// Core replication protocol tests: the paper's prototypical example
// (Figure 1/2, §2.2) and the surrounding invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

// Two loopback sites: S2 ("provider") masters the graph, S1 ("demander")
// replicates it — the setting of Figure 1.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("s2"));
    demander_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("s1"));
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(demander_->Start().ok());
    provider_->HostRegistry();
    demander_->UseRegistry("s2");
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> demander_;
};

TEST_F(ReplicationTest, PrototypicalExampleIncremental) {
  // Situation (a): S2 holds A -> B -> C; only A is registered.
  auto a = test::MakeChain(3, 16, "obj");
  ASSERT_TRUE(provider_->Bind("A", a).ok());

  auto remote = demander_->Lookup<Node>("A");
  ASSERT_TRUE(remote.ok()) << remote.status();

  // get(A, incremental): situation (b) — A' local, B behind a proxy-out.
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok()) << ref.status();
  core::Ref<Node> a_prime = *ref;

  EXPECT_TRUE(a_prime.IsLocal());
  EXPECT_EQ(a_prime.get()->label, "obj0");
  EXPECT_EQ(demander_->replica_count(), 1u);
  EXPECT_TRUE(a_prime.get()->next.IsProxy());

  // First invocation through the boundary ref: object fault on B (situation
  // (c)) — resolved transparently, reference patched to the new replica.
  EXPECT_EQ(a_prime.get()->next->Label(), "obj1");
  EXPECT_TRUE(a_prime.get()->next.IsLocal());
  EXPECT_EQ(demander_->replica_count(), 2u);

  // After the fault, invocations are direct: no further gets occur.
  const auto gets_before = demander_->telemetry().gets_sent->Value();
  EXPECT_EQ(a_prime.get()->next->Value(), 1);
  EXPECT_EQ(demander_->telemetry().gets_sent->Value(), gets_before);

  // C faults the same way through B'.
  EXPECT_EQ(a_prime.get()->next->next->Label(), "obj2");
  EXPECT_EQ(demander_->replica_count(), 3u);
  // End of chain: C's next is null.
  EXPECT_TRUE(a_prime.get()->next->next->next.IsEmpty());
}

TEST_F(ReplicationTest, RmiAndLmiCoexist) {
  auto a = test::MakeChain(1, 16, "x");
  a->value = 41;
  ASSERT_TRUE(provider_->Bind("A", a).ok());

  auto remote = demander_->Lookup<Node>("A");
  ASSERT_TRUE(remote.ok());

  // RMI on the master.
  auto v = remote->Invoke(&Node::Touch);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(a->value, 42);

  // LMI on a replica; the master reference stays usable (paper §2.1: "at any
  // time, both replicas, the master and the local, can be freely invoked").
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->Touch(), 43);  // local: does not touch the master
  EXPECT_EQ(a->value, 42);

  auto v2 = remote->Invoke(&Node::Value);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 42);
}

TEST_F(ReplicationTest, PutUpdatesMaster) {
  auto a = test::MakeChain(1, 16, "x");
  ASSERT_TRUE(provider_->Bind("A", a).ok());

  auto remote = demander_->Lookup<Node>("A");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  (*ref)->SetLabel("updated");
  (*ref)->SetValue(99);
  ASSERT_TRUE(demander_->Put(*ref).ok());

  EXPECT_EQ(a->label, "updated");
  EXPECT_EQ(a->value, 99);
  auto version = provider_->MasterVersion(remote->id());
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);
}

TEST_F(ReplicationTest, RefreshPullsMasterState) {
  auto a = test::MakeChain(1, 16, "x");
  ASSERT_TRUE(provider_->Bind("A", a).ok());

  auto remote = demander_->Lookup<Node>("A");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->label, "x0");

  a->label = "changed-at-master";
  ASSERT_TRUE(demander_->Refresh(*ref).ok());
  EXPECT_EQ((*ref)->label, "changed-at-master");
}

TEST_F(ReplicationTest, IncrementalBatchSizes) {
  constexpr int kLen = 10;
  auto head = test::MakeChain(kLen, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());

  // Batch of 4: the first get brings nodes 0..3, the boundary ref to node 4
  // is a proxy.
  auto ref = remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(demander_->replica_count(), 4u);

  // Traverse everything: two more faults (4..7, 8..9).
  core::Ref<Node>* cursor = &*ref;
  int sum = 0;
  while (!cursor->IsEmpty()) {
    sum += static_cast<int>((*cursor)->Value());
    cursor = &(*cursor)->next;
  }
  EXPECT_EQ(sum, kLen * (kLen - 1) / 2);
  EXPECT_EQ(demander_->replica_count(), 10u);
  EXPECT_EQ(demander_->telemetry().gets_sent->Value(), 3u);
}

// A batch count is the demander's to choose and may far exceed the graph:
// the provider serves what the graph holds and sizes nothing by the count.
TEST_F(ReplicationTest, BatchCountBeyondTheGraphServesTheGraph) {
  auto head = test::MakeChain(4, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());

  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  for (const ReplicationMode mode :
       {ReplicationMode::Incremental(kMax), ReplicationMode::Cluster(kMax)}) {
    auto ref = remote->Replicate(mode);
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_EQ(demander_->replica_count(), 4u);
    EXPECT_EQ((*ref)->next.get()->next.get()->next.get()->Label(), "n3");
  }
}

TEST_F(ReplicationTest, TransitiveClosureReplicatesEverything) {
  auto head = test::MakeChain(25, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Closure());
  ASSERT_TRUE(ref.ok());

  EXPECT_EQ(demander_->replica_count(), 25u);
  EXPECT_EQ(demander_->telemetry().gets_sent->Value(), 1u);

  // No proxies anywhere: the whole graph is colocated, usable offline.
  core::Ref<Node>* cursor = &*ref;
  while (!cursor->IsEmpty()) {
    EXPECT_TRUE(cursor->IsLocal());
    cursor = &cursor->get()->next;
  }
}

TEST_F(ReplicationTest, IdentityPreservedAcrossGets) {
  auto a = test::MakeChain(3, 16, "n");
  ASSERT_TRUE(provider_->Bind("A", a).ok());

  auto remote = demander_->Lookup<Node>("A");
  ASSERT_TRUE(remote.ok());

  auto ref1 = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref1.ok());
  auto ref2 = remote->Replicate(ReplicationMode::Closure());
  ASSERT_TRUE(ref2.ok());

  // One replica per master, ever: both refs resolve to the same object.
  EXPECT_EQ(ref1->get(), ref2->get());
  EXPECT_EQ(demander_->replica_count(), 3u);  // closure pulled B and C
}

TEST_F(ReplicationTest, SharedTargetSwizzlesToOneReplica) {
  // Diamond: root.left and root.right both point to the same child.
  auto root = std::make_shared<test::Pair>();
  root->name = "root";
  auto child = std::make_shared<test::Pair>();
  child->name = "child";
  root->left = child;
  root->right = child;
  ASSERT_TRUE(provider_->Bind("root", root).ok());

  auto remote = demander_->Lookup<test::Pair>("root");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Closure());
  ASSERT_TRUE(ref.ok());

  EXPECT_EQ(demander_->replica_count(), 2u);
  EXPECT_EQ((*ref)->left.get(), (*ref)->right.get());
  EXPECT_EQ((*ref)->left->Name(), "child");
}

TEST_F(ReplicationTest, ClusterModeCreatesSingleProxyPair) {
  auto head = test::MakeChain(10, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());

  const auto pins_before = provider_->telemetry().proxy_ins_created->Value();
  auto ref = remote->Replicate(ReplicationMode::Cluster(5));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(demander_->replica_count(), 5u);
  // Exactly two proxy-ins: the cluster pair plus the boundary ref to node 5.
  EXPECT_EQ(provider_->telemetry().proxy_ins_created->Value() - pins_before,
            2u);

  // §4.3: cluster members "can not be individually updated".
  Status s = demander_->Put(*ref);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);

  // But the cluster as a whole can.
  (*ref)->SetLabel("cluster-edit");
  (*ref)->next->SetLabel("cluster-edit-2");
  ASSERT_TRUE(demander_->PutCluster(*ref).ok());
  EXPECT_EQ(head->label, "cluster-edit");
  EXPECT_EQ(head->next.get()->label, "cluster-edit-2");
}

TEST_F(ReplicationTest, ClusterDepthMode) {
  // Balanced binary tree of depth 3 (15 nodes) out of Pair.
  std::function<std::shared_ptr<test::Pair>(int, std::string)> build =
      [&](int depth, std::string name) -> std::shared_ptr<test::Pair> {
    auto n = std::make_shared<test::Pair>();
    n->name = name;
    if (depth > 0) {
      n->left = build(depth - 1, name + "L");
      n->right = build(depth - 1, name + "R");
    }
    return n;
  };
  auto root = build(3, "t");
  ASSERT_TRUE(provider_->Bind("tree", root).ok());

  auto remote = demander_->Lookup<test::Pair>("tree");
  ASSERT_TRUE(remote.ok());
  // Depth 1: root + its two children.
  auto ref = remote->Replicate(ReplicationMode::ClusterDepth(1));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(demander_->replica_count(), 3u);
  EXPECT_TRUE((*ref)->left.IsLocal());
  EXPECT_TRUE((*ref)->left.get()->left.IsProxy());
}

TEST_F(ReplicationTest, FaultWhileDisconnectedSurfacesError) {
  auto head = test::MakeChain(3, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  // Sever the link by stopping the provider.
  provider_->Stop();

  // Colocated objects keep working (the disconnected-operation story)...
  EXPECT_EQ((*ref)->Label(), "n0");
  // ...but faulting on the boundary fails loudly.
  Status s = (*ref)->next.Demand();
  EXPECT_FALSE(s.ok());
  EXPECT_THROW((*ref)->next->Label(), core::ObjectFaultError);

  // Reconnect: the same proxy resolves.
  ASSERT_TRUE(provider_->Start().ok());
  EXPECT_EQ((*ref)->next->Label(), "n1");
}

TEST_F(ReplicationTest, PrefetchAllPinsGraphForOffline) {
  auto head = test::MakeChain(8, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  ASSERT_TRUE(demander_->PrefetchAll(*ref).ok());
  EXPECT_EQ(demander_->replica_count(), 8u);

  provider_->Stop();
  // Entire list usable offline.
  core::Ref<Node>* cursor = &*ref;
  int count = 0;
  while (!cursor->IsEmpty()) {
    cursor->get()->Touch();
    cursor = &cursor->get()->next;
    ++count;
  }
  EXPECT_EQ(count, 8);
}

TEST_F(ReplicationTest, PutChainBackWithNewObject) {
  auto head = test::MakeChain(2, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  // Incremental: each replica gets its own proxy pair, so it is
  // individually updatable (closure-mode replicas would need PutCluster).
  auto ref = remote->Replicate(ReplicationMode::Incremental(10));
  ASSERT_TRUE(ref.ok());

  // Grow the replica graph with an object mastered at the demander.
  auto fresh = std::make_shared<Node>();
  fresh->label = "fresh";
  (*ref)->next->next = fresh;
  ASSERT_TRUE(demander_->Put((*ref)->next).ok());

  // The master's tail now reaches the new object — through a proxy back to
  // the demander (graphs may span sites in both directions).
  core::Ref<Node>& master_tail_next = head->next.get()->next;
  ASSERT_FALSE(master_tail_next.IsEmpty());
  EXPECT_EQ(master_tail_next->Label(), "fresh");
}

TEST_F(ReplicationTest, StatsCountFaults) {
  auto head = test::MakeChain(6, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  core::Ref<Node>* cursor = &*ref;
  while (!cursor->IsEmpty()) cursor = &(*cursor)->next;

  // 6 nodes in batches of 2: the initial get (not a fault) plus 2 faults.
  EXPECT_EQ(demander_->telemetry().object_faults->Value(), 2u);
  EXPECT_EQ(demander_->telemetry().gets_sent->Value(), 3u);
  EXPECT_EQ(demander_->telemetry().replicas_created->Value(), 6u);
}

}  // namespace
}  // namespace obiwan
