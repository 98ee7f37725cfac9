// Parameterized behaviour-model sweeps: for every (mode, batch, list length,
// payload) combination, the protocol's observable counters must follow the
// cost model the paper's evaluation is built on:
//   - number of gets = ceil(len / batch) for count-based modes, 1 for closure;
//   - replicas created = list length after a full traversal;
//   - proxy-ins at the provider = per-object in incremental mode, per-batch
//     (+1 boundary each) in cluster mode;
//   - data integrity: every element's value arrives intact.
#include <gtest/gtest.h>

#include <type_traits>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

// gtest lists each case with the raw bytes of its parameter, and ctest takes
// that listing as the test's name. The gaps after `kind` and `length` are
// therefore spelled out as zeroed members: left as compiler padding they
// hold stale stack bytes, and the names change from one build to the next.
struct SweepCase {
  SweepCase(ReplicationMode::Kind kind, std::uint32_t batch, int length,
            std::size_t payload)
      : kind(kind), batch(batch), length(length), payload(payload) {}

  ReplicationMode::Kind kind;
  std::uint8_t unused_after_kind[3] = {};
  std::uint32_t batch;
  int length;
  std::uint32_t unused_after_length = 0;
  std::size_t payload;
};
static_assert(std::has_unique_object_representations_v<SweepCase>,
              "SweepCase must have no padding bytes");

class TraversalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TraversalSweep, CountersFollowTheCostModel) {
  const SweepCase& param = GetParam();
  ReplicationMode mode;
  switch (param.kind) {
    case ReplicationMode::Kind::kIncremental:
      mode = ReplicationMode::Incremental(param.batch);
      break;
    case ReplicationMode::Kind::kCluster:
      mode = ReplicationMode::Cluster(param.batch);
      break;
    case ReplicationMode::Kind::kTransitiveClosure:
      mode = ReplicationMode::Closure();
      break;
    case ReplicationMode::Kind::kClusterDepth:
      mode = ReplicationMode::ClusterDepth(param.batch);
      break;
  }

  net::LoopbackNetwork network;
  core::Site provider(2, network.CreateEndpoint("s2"));
  core::Site demander(1, network.CreateEndpoint("s1"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("s2");

  auto head = test::MakeChain(param.length, param.payload, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  const auto pins_before = provider.stats().proxy_ins_created;

  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(mode);
  ASSERT_TRUE(ref.ok()) << ref.status();

  // Full traversal, checking data integrity along the way.
  core::Ref<Node>* cursor = &*ref;
  long long sum = 0;
  int visited = 0;
  while (!cursor->IsEmpty()) {
    EXPECT_EQ((*cursor)->Value(), visited);
    sum += (*cursor)->Value();
    ASSERT_EQ((*cursor)->payload.size(), param.payload);
    cursor = &cursor->get()->next;
    ++visited;
  }

  EXPECT_EQ(visited, param.length);
  EXPECT_EQ(sum, static_cast<long long>(param.length) * (param.length - 1) / 2);
  EXPECT_EQ(demander.replica_count(), static_cast<std::size_t>(param.length));

  const std::uint64_t pins =
      provider.stats().proxy_ins_created - pins_before;
  const auto len = static_cast<std::uint64_t>(param.length);
  switch (param.kind) {
    case ReplicationMode::Kind::kIncremental: {
      // ceil(len/batch) gets, one per fault after the first.
      std::uint64_t expected_gets = (len + param.batch - 1) / param.batch;
      EXPECT_EQ(demander.stats().gets_sent, expected_gets);
      // One put/refresh pin per object; the head's reuses the Bind pin, and
      // batch-boundary pins coincide with later per-object pins (dedup).
      EXPECT_EQ(pins, len - 1);
      break;
    }
    case ReplicationMode::Kind::kCluster: {
      std::uint64_t expected_gets = (len + param.batch - 1) / param.batch;
      EXPECT_EQ(demander.stats().gets_sent, expected_gets);
      // One cluster pin per batch plus one boundary pin per non-final batch.
      std::uint64_t full_batches = expected_gets;
      EXPECT_EQ(pins, full_batches + (full_batches - 1));
      break;
    }
    case ReplicationMode::Kind::kTransitiveClosure: {
      EXPECT_EQ(demander.stats().gets_sent, 1u);
      EXPECT_EQ(pins, 1u);  // the single closure cluster pin
      break;
    }
    case ReplicationMode::Kind::kClusterDepth: {
      // depth d brings d+1 chain nodes per get.
      std::uint64_t per_get = param.batch + 1;
      std::uint64_t expected_gets = (len + per_get - 1) / per_get;
      EXPECT_EQ(demander.stats().gets_sent, expected_gets);
      break;
    }
  }
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  for (std::uint32_t batch : {1u, 3u, 7u, 25u}) {
    for (int length : {1, 5, 24, 100}) {
      cases.push_back({ReplicationMode::Kind::kIncremental, batch, length, 16});
      cases.push_back({ReplicationMode::Kind::kCluster, batch, length, 16});
    }
  }
  for (int length : {1, 24, 100}) {
    cases.push_back({ReplicationMode::Kind::kTransitiveClosure, 0, length, 16});
  }
  for (std::uint32_t depth : {1u, 4u}) {
    cases.push_back({ReplicationMode::Kind::kClusterDepth, depth, 30, 16});
  }
  // Payload-size sweep at a fixed shape.
  for (std::size_t payload : {std::size_t{0}, std::size_t{1024}, std::size_t{16384}}) {
    cases.push_back({ReplicationMode::Kind::kIncremental, 5, 20, payload});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TraversalSweep, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const SweepCase& c = info.param;
      const char* kind = "";
      switch (c.kind) {
        case ReplicationMode::Kind::kIncremental: kind = "Inc"; break;
        case ReplicationMode::Kind::kCluster: kind = "Cluster"; break;
        case ReplicationMode::Kind::kTransitiveClosure: kind = "Closure"; break;
        case ReplicationMode::Kind::kClusterDepth: kind = "Depth"; break;
      }
      return std::string(kind) + "B" + std::to_string(c.batch) + "L" +
             std::to_string(c.length) + "P" + std::to_string(c.payload);
    });

}  // namespace
}  // namespace obiwan
