// Property tests: randomized object graphs (including cycles and shared
// subtrees) replicated under every mode, checking the protocol's core
// invariants:
//   1. completeness — after faulting everything, the demander holds exactly
//      the provider's reachable set;
//   2. identity preservation — one replica per master, so shared targets and
//      cycles keep their shape;
//   3. isomorphism — the replica graph's topology equals the master graph's;
//   4. put round-trip — pushing every replica back reproduces master state.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Pair;

// gtest names each case after the parameter's raw bytes, and ctest takes
// that into the test name, so GraphCase has no padding: ReplicationMode's 3
// bytes after `kind` are spelled out as zeroed members here, or they would
// carry stale stack bytes that change from one build to the next.
struct GraphCase {
  GraphCase(std::uint64_t seed, int nodes, ReplicationMode mode)
      : seed(seed),
        nodes(nodes),
        kind(mode.kind),
        count(mode.count),
        depth(mode.depth) {}

  ReplicationMode mode() const { return {kind, count, depth}; }

  std::uint64_t seed;
  int nodes;
  ReplicationMode::Kind kind;
  std::uint8_t unused_after_kind[3] = {};
  std::uint32_t count;
  std::uint32_t depth;
};
static_assert(std::has_unique_object_representations_v<GraphCase>,
              "GraphCase must have no padding bytes");

class GraphPropertyTest : public ::testing::TestWithParam<GraphCase> {};

// Build a random graph: node i may point (left/right) at any node, allowing
// cycles, self-loops, shared targets, and unreachable islands.
std::vector<std::shared_ptr<Pair>> BuildRandomGraph(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<std::shared_ptr<Pair>> nodes;
  nodes.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto node = std::make_shared<Pair>();
    node->name = "g" + std::to_string(i);
    nodes.push_back(std::move(node));
  }
  for (auto& node : nodes) {
    if (rng() % 100 < 70) node->left = nodes[rng() % nodes.size()];
    if (rng() % 100 < 70) node->right = nodes[rng() % nodes.size()];
  }
  return nodes;
}

// The master graph is test-owned and may contain cycles plus unreachable
// islands the provider never sees; unlink it at scope exit so refcounting
// can free it (sites only unlink the objects *they* hold).
struct GraphUnlinker {
  explicit GraphUnlinker(std::vector<std::shared_ptr<Pair>>& nodes)
      : nodes_(nodes) {}
  ~GraphUnlinker() {
    for (auto& node : nodes_) {
      node->left.Reset();
      node->right.Reset();
    }
  }
  std::vector<std::shared_ptr<Pair>>& nodes_;
};

// Names of every node reachable from `root` by local pointers only.
std::unordered_set<std::string> ReachableNames(Pair* root) {
  std::unordered_set<std::string> names;
  std::deque<Pair*> queue{root};
  std::unordered_set<Pair*> seen;
  while (!queue.empty()) {
    Pair* node = queue.front();
    queue.pop_front();
    if (node == nullptr || !seen.insert(node).second) continue;
    names.insert(node->name);
    queue.push_back(node->left.get());
    queue.push_back(node->right.get());
  }
  return names;
}

// Walk master and replica graphs in lockstep, checking isomorphism and
// identity preservation.
void ExpectIsomorphic(Pair* master_root, Pair* replica_root) {
  std::deque<std::pair<Pair*, Pair*>> queue{{master_root, replica_root}};
  std::unordered_map<Pair*, Pair*> mapping;  // master -> replica
  while (!queue.empty()) {
    auto [m, r] = queue.front();
    queue.pop_front();
    ASSERT_EQ(m == nullptr, r == nullptr);
    if (m == nullptr) continue;
    auto [it, inserted] = mapping.emplace(m, r);
    // Identity: one replica per master, always the same object.
    ASSERT_EQ(it->second, r) << "master " << m->name << " has two replicas";
    if (!inserted) continue;
    ASSERT_EQ(m->name, r->name);
    queue.emplace_back(m->left.get(), r->left.get());
    queue.emplace_back(m->right.get(), r->right.get());
  }
}

TEST_P(GraphPropertyTest, ReplicateFaultEverythingCheckInvariants) {
  const GraphCase& param = GetParam();

  net::LoopbackNetwork network;
  core::Site provider(2, network.CreateEndpoint("s2"));
  core::Site demander(1, network.CreateEndpoint("s1"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("s2");

  auto nodes = BuildRandomGraph(param.seed, param.nodes);
  GraphUnlinker unlinker(nodes);
  ASSERT_TRUE(provider.Bind("root", nodes[0]).ok());

  auto remote = demander.Lookup<Pair>("root");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(param.mode());
  ASSERT_TRUE(ref.ok()) << ref.status();

  // Fault in the entire reachable graph.
  ASSERT_TRUE(demander.PrefetchAll(*ref).ok());

  // (1) completeness + (3) isomorphism + (2) identity.
  auto expected = ReachableNames(nodes[0].get());
  auto actual = ReachableNames(ref->get());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(demander.replica_count(), expected.size());
  ExpectIsomorphic(nodes[0].get(), ref->get());
}

TEST_P(GraphPropertyTest, PutRoundTripReproducesState) {
  const GraphCase& param = GetParam();
  // Cluster members share one proxy pair and can only be put as a whole
  // (§4.3): those modes ship each replica's whole cluster.
  const bool cluster = param.mode().SharedProxyPair();

  net::LoopbackNetwork network;
  core::Site provider(2, network.CreateEndpoint("s2"));
  core::Site demander(1, network.CreateEndpoint("s1"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("s2");

  auto nodes = BuildRandomGraph(param.seed, param.nodes);
  GraphUnlinker unlinker(nodes);
  ASSERT_TRUE(provider.Bind("root", nodes[0]).ok());

  auto remote = demander.Lookup<Pair>("root");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(param.mode());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(demander.PrefetchAll(*ref).ok());

  // Rename every replica, push each back, then check every reachable master.
  std::deque<Pair*> queue{ref->get()};
  std::unordered_set<Pair*> seen;
  while (!queue.empty()) {
    Pair* node = queue.front();
    queue.pop_front();
    if (node == nullptr || !seen.insert(node).second) continue;
    node->name = "edited-" + node->name;
    queue.push_back(node->left.get());
    queue.push_back(node->right.get());
  }
  // Push every replica back, traversing through the actual Ref objects.
  std::deque<core::RefBase*> ref_queue{&*ref};
  std::unordered_set<core::Shareable*> put_done;
  while (!ref_queue.empty()) {
    core::RefBase* rb = ref_queue.front();
    ref_queue.pop_front();
    if (rb->IsEmpty() || !rb->IsLocal()) continue;
    auto* node = static_cast<Pair*>(rb->local_raw());
    if (!put_done.insert(node).second) continue;
    ASSERT_TRUE((cluster ? demander.PutCluster(*rb) : demander.Put(*rb)).ok());
    ref_queue.push_back(&node->left);
    ref_queue.push_back(&node->right);
  }

  for (const auto& master : nodes) {
    if (ReachableNames(nodes[0].get()).contains(master->name)) {
      EXPECT_EQ(master->name.substr(0, 7), "edited-") << master->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, GraphPropertyTest,
    ::testing::Values(
        GraphCase{1, 8, ReplicationMode::Incremental(1)},
        GraphCase{2, 20, ReplicationMode::Incremental(3)},
        GraphCase{3, 40, ReplicationMode::Incremental(7)},
        GraphCase{4, 20, ReplicationMode::Cluster(4)},
        GraphCase{5, 40, ReplicationMode::Cluster(16)},
        GraphCase{6, 25, ReplicationMode::Closure()},
        GraphCase{7, 30, ReplicationMode::ClusterDepth(2)},
        GraphCase{8, 12, ReplicationMode::Incremental(2)},
        GraphCase{9, 60, ReplicationMode::Incremental(10)},
        GraphCase{10, 60, ReplicationMode::Closure()}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      const GraphCase& c = info.param;
      std::string mode;
      switch (c.kind) {
        case ReplicationMode::Kind::kIncremental:
          mode = "Inc" + std::to_string(c.count);
          break;
        case ReplicationMode::Kind::kCluster:
          mode = "Cluster" + std::to_string(c.count);
          break;
        case ReplicationMode::Kind::kClusterDepth:
          mode = "Depth" + std::to_string(c.depth);
          break;
        case ReplicationMode::Kind::kTransitiveClosure:
          mode = "Closure";
          break;
      }
      return "Seed" + std::to_string(c.seed) + "N" + std::to_string(c.nodes) +
             mode;
    });

}  // namespace
}  // namespace obiwan
