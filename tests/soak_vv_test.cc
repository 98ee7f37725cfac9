// Soak variant under version-vector consistency: randomized concurrent
// writers with disconnections, where every successful put must be causally
// safe. Invariants at the end:
//   - the master's final state equals the last *accepted* write (no lost
//     updates admitted silently — every overwrite was causally ordered),
//   - every conflict surfaced as kConflict and was recoverable by
//     refresh-and-retry,
//   - all sites converge after a final refresh.
#include <gtest/gtest.h>

#include <random>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using consistency::VersionVectorPolicy;
using core::ReplicationMode;
using test::Node;

class VvSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VvSoakTest, ConcurrentWritersNeverLoseCausality) {
  std::mt19937_64 rng(GetParam());
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{}, GetParam());

  core::Site hub(1, network.CreateEndpoint("hub"), clock);
  ASSERT_TRUE(hub.Start().ok());
  hub.HostRegistry();
  hub.SetConsistencyPolicy(std::make_unique<VersionVectorPolicy>(1));

  constexpr int kWriters = 4;
  std::vector<std::unique_ptr<core::Site>> writers;
  std::vector<core::Ref<Node>> refs(kWriters);
  for (int i = 0; i < kWriters; ++i) {
    writers.push_back(std::make_unique<core::Site>(
        static_cast<SiteId>(2 + i),
        network.CreateEndpoint(std::string("w").append(std::to_string(i))),
        clock));
    ASSERT_TRUE(writers.back()->Start().ok());
    writers.back()->UseRegistry("hub");
    writers.back()->SetConsistencyPolicy(
        std::make_unique<VersionVectorPolicy>(static_cast<SiteId>(2 + i)));
  }

  auto master = test::MakeChain(1, 32, "shared");
  ASSERT_TRUE(hub.Bind("shared", master).ok());
  for (int i = 0; i < kWriters; ++i) {
    auto remote = writers[i]->Lookup<Node>("shared");
    ASSERT_TRUE(remote.ok());
    refs[i] = *remote->Replicate(ReplicationMode::Incremental(1));
  }

  int accepted = 0;
  int conflicts = 0;
  std::int64_t last_accepted_value = master->value;

  for (int round = 0; round < 400; ++round) {
    int w = static_cast<int>(rng() % kWriters);
    core::Site& site = *writers[w];
    core::Ref<Node>& ref = refs[w];

    switch (rng() % 4) {
      case 0: {  // connectivity flap
        network.SetEndpointUp(std::string("w").append(std::to_string(w)),
                              (rng() & 1) != 0u);
        break;
      }
      case 1: {  // refresh to catch up
        (void)site.Refresh(ref);
        break;
      }
      default: {  // edit + put, with one refresh-retry on conflict
        std::int64_t value = static_cast<std::int64_t>(rng() % 100000);
        ref->SetValue(value);
        Status s = site.Put(ref);
        if (s.ok()) {
          ++accepted;
          last_accepted_value = value;
        } else if (s.code() == StatusCode::kConflict) {
          ++conflicts;
          if (site.Refresh(ref).ok()) {
            ref->SetValue(value);
            if (site.Put(ref).ok()) {
              ++accepted;
              last_accepted_value = value;
            }
          }
        } else {
          // Disconnected: the optimistic VV bump stays local; refresh later
          // resynchronises the vector.
          EXPECT_EQ(s.code(), StatusCode::kDisconnected) << s;
        }
        break;
      }
    }
    clock.Sleep(kMilli);
  }

  // The master holds exactly the last accepted write.
  EXPECT_EQ(master->value, last_accepted_value);
  EXPECT_GT(accepted, 50);
  EXPECT_GT(conflicts, 0);  // concurrency really happened

  // Everyone converges after reconnect + refresh.
  for (int i = 0; i < kWriters; ++i) {
    network.SetEndpointUp(std::string("w").append(std::to_string(i)), true);
    ASSERT_TRUE(writers[i]->Refresh(refs[i]).ok());
    EXPECT_EQ(refs[i]->Value(), master->value) << "writer " << i;
  }

  // And causal writing still works for everyone after the storm.
  for (int i = 0; i < kWriters; ++i) {
    ASSERT_TRUE(writers[i]->Refresh(refs[i]).ok());
    refs[i]->SetValue(1000 + i);
    ASSERT_TRUE(writers[i]->Put(refs[i]).ok()) << "writer " << i;
  }
  EXPECT_EQ(master->value, 1000 + kWriters - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VvSoakTest, ::testing::Values(3, 17, 91));

}  // namespace
}  // namespace obiwan
