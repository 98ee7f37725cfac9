// Replica eviction (limited-memory info-appliances) and site snapshots
// (mobility across restarts).
#include <gtest/gtest.h>

#include <chrono>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

class EvictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("p"));
    demander_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("d"));
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(demander_->Start().ok());
    provider_->HostRegistry();
    demander_->UseRegistry("p");
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> demander_;
};

TEST_F(EvictionTest, DroppingTheLastRefMakesTheGraphEvictable) {
  auto head = test::MakeChain(10, 64, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(10));
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(demander_->replica_count(), 10u);

    // While the application holds the head, the chain is pinned: the head is
    // referenced by the app, every tail node by its predecessor's ref field.
    EXPECT_EQ(demander_->EvictIdleReplicas(), 0u);
    EXPECT_EQ(demander_->replica_count(), 10u);
  }
  // App dropped its Ref: the whole chain cascades out.
  EXPECT_EQ(demander_->EvictIdleReplicas(), 10u);
  EXPECT_EQ(demander_->replica_count(), 0u);
}

TEST_F(EvictionTest, HeldMiddleNodePinsItsTail) {
  auto head = test::MakeChain(6, 64, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  core::Ref<Node> third;
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(6));
    ASSERT_TRUE(ref.ok());
    third = (*ref)->next->next->next;  // hold node 3
  }
  // Nodes 0..2 are unreferenced; 3..5 are pinned through `third`.
  EXPECT_EQ(demander_->EvictIdleReplicas(), 3u);
  EXPECT_EQ(demander_->replica_count(), 3u);
  EXPECT_EQ(third->Label(), "n3");
}

TEST_F(EvictionTest, EvictedObjectIsRefetchedOnNextFault) {
  auto head = test::MakeChain(3, 64, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(3));
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(demander_->EvictIdleReplicas(), 3u);

  // Replicating again works; fresh replicas, fresh state.
  auto again = remote->Replicate(ReplicationMode::Incremental(3));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->Label(), "n0");
  EXPECT_EQ(demander_->replica_count(), 3u);
}

TEST_F(EvictionTest, MastersAreNeverEvicted) {
  auto obj = std::make_shared<Node>();
  provider_->Export(obj);
  EXPECT_EQ(provider_->EvictIdleReplicas(), 0u);
  EXPECT_EQ(provider_->master_count(), 1u);
}

// Each erase re-checks only the replicas its reference fields pointed at, so
// a chain evicts in time linear in its length. A table sweep per link would
// be quadratic: seconds for this chain in an optimised build.
TEST_F(EvictionTest, LongChainEvictsInLinearTime) {
  constexpr std::size_t kLength = 20000;
  auto head = test::MakeChain(kLength, 8, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(kLength));
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(demander_->replica_count(), kLength);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(demander_->EvictIdleReplicas(), kLength);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(demander_->replica_count(), 0u);
  EXPECT_TRUE(demander_->CheckTableConsistency());
}

TEST_F(EvictionTest, ReplicaCycleStaysResident) {
  auto a = std::make_shared<Node>();
  auto b = std::make_shared<Node>();
  a->next = b;
  b->next = a;
  ASSERT_TRUE(provider_->Bind("ring", a).ok());
  auto remote = demander_->Lookup<Node>("ring");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(2));
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ((*ref)->next->next.get(), ref->get());
  }
  // Each replica is held by the other's reference field, so neither is ever
  // the table's only owner: a cycle stays resident.
  EXPECT_EQ(demander_->EvictIdleReplicas(), 0u);
  EXPECT_EQ(demander_->replica_count(), 2u);
  EXPECT_TRUE(demander_->CheckTableConsistency());
}

TEST_F(EvictionTest, CascadePassesThroughLocalObjectOutsideTheTable) {
  auto head = test::MakeChain(4, 64, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(4));
    ASSERT_TRUE(ref.ok());
    // n0 -> local -> n1: an application object with no id, so not in the
    // table, now holds the only field reference to n1..n3.
    auto local = std::make_shared<Node>();
    demander_->WithObjectLock(*ref, [&] {
      local->next = (*ref)->next;
      (*ref)->next = local;
    });
  }
  // Erasing n0 frees `local`, which frees n1; no replica field pointed at
  // n1, so the repeated sweep finds it and the cascade goes on to n3.
  EXPECT_EQ(demander_->EvictIdleReplicas(), 4u);
  EXPECT_EQ(demander_->replica_count(), 0u);
  EXPECT_TRUE(demander_->CheckTableConsistency());
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("p"));
    ASSERT_TRUE(provider_->Start().ok());
    provider_->HostRegistry();
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> provider_;
};

TEST_F(SnapshotTest, MasterGraphRoundTrips) {
  auto head = test::MakeChain(5, 32, "m");
  head->value = 77;
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  auto snapshot = provider_->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  core::Site restored(1, network_.CreateEndpoint("p2"));
  ASSERT_TRUE(restored.LoadSnapshot(AsView(*snapshot)).ok());
  EXPECT_EQ(restored.master_count(), 5u);

  // The graph is intact: walk it through the restored master table.
  auto root = restored.FindLocal(ObjectId{1, 1});
  ASSERT_TRUE(root.ok());
  auto* node = dynamic_cast<Node*>(root->get());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->value, 77);
  int count = 0;
  while (node != nullptr) {
    ++count;
    node = static_cast<Node*>(node->next.local_raw());
  }
  EXPECT_EQ(count, 5);
}

TEST_F(SnapshotTest, PdaResumesOfflineWorkAfterRestart) {
  // The full mobility loop: replicate, edit, snapshot, "power off", restore,
  // reconnect, put.
  core::Site pda(2, network_.CreateEndpoint("pda"));
  ASSERT_TRUE(pda.Start().ok());
  pda.UseRegistry("p");

  auto agenda = test::MakeChain(4, 32, "a");
  ASSERT_TRUE(provider_->Bind("agenda", agenda).ok());

  auto remote = pda.Lookup<Node>("agenda");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());
  (*ref)->SetLabel("edited-offline");

  auto snapshot = pda.SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());
  pda.Stop();  // power off

  // Power back on: a fresh process restores the snapshot.
  core::Site pda2(2, network_.CreateEndpoint("pda-reborn"));
  ASSERT_TRUE(pda2.LoadSnapshot(AsView(*snapshot)).ok());
  ASSERT_TRUE(pda2.Start().ok());
  pda2.UseRegistry("p");
  EXPECT_EQ(pda2.replica_count(), 2u);

  // The offline edit survived, and the provider channel still works.
  auto restored = pda2.FindLocal(remote->id());
  ASSERT_TRUE(restored.ok());
  core::Ref<Node> rref;
  rref.BindLocal(remote->id(), std::move(restored).value());
  EXPECT_EQ(rref->Label(), "edited-offline");
  ASSERT_TRUE(pda2.Put(rref).ok());
  EXPECT_EQ(agenda->label, "edited-offline");

  // Boundary proxies were restored too: traversal faults onward.
  EXPECT_EQ(rref->next->next->Label(), "a2");
}

TEST_F(SnapshotTest, ProviderRoleSurvives) {
  auto head = test::MakeChain(2, 32, "m");
  ASSERT_TRUE(provider_->Bind("list", head).ok());

  core::Site client(2, network_.CreateEndpoint("client"));
  ASSERT_TRUE(client.Start().ok());
  client.UseRegistry("p");
  auto remote = client.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  // Provider snapshots and "restarts" at the same logical address.
  auto snapshot = provider_->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());
  provider_->Stop();
  provider_.reset();

  core::Site reborn(1, network_.CreateEndpoint("p"));
  ASSERT_TRUE(reborn.LoadSnapshot(AsView(*snapshot)).ok());
  ASSERT_TRUE(reborn.Start().ok());

  // The client's replica provider channel (put) and its boundary proxy
  // (fault for node 1) both still resolve against the reborn provider.
  (*ref)->SetLabel("after-restart");
  EXPECT_TRUE(client.Put(*ref).ok());
  EXPECT_EQ((*ref)->next->Label(), "m1");
}

TEST_F(SnapshotTest, LoadRejectsBadInput) {
  core::Site fresh(1, network_.CreateEndpoint("f"));
  EXPECT_EQ(fresh.LoadSnapshot({}).code(), StatusCode::kDataLoss);
  Bytes garbage{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(fresh.LoadSnapshot(AsView(garbage)).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, LoadRejectsWrongSiteAndNonEmptySite) {
  auto obj = std::make_shared<Node>();
  provider_->Export(obj);
  auto snapshot = provider_->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());

  core::Site other(9, network_.CreateEndpoint("other"));
  EXPECT_EQ(other.LoadSnapshot(AsView(*snapshot)).code(),
            StatusCode::kFailedPrecondition);

  // A site already holding objects refuses to load.
  core::Site busy(1, network_.CreateEndpoint("busy"));
  busy.Export(std::make_shared<Node>());
  EXPECT_EQ(busy.LoadSnapshot(AsView(*snapshot)).code(),
            StatusCode::kFailedPrecondition);
}

// A snapshot of site 2 saved by an earlier build, on a VirtualClock: it holds
// replica n0 {1,1} with an inline ref to replica n1 {1,2}, whose ref is a
// proxy to n2 {1,3} at provider "p", and a local master {2,1} with a null
// ref. Round trips inside one build would miss a format change made on both
// the save and the load side; these fixed bytes do not.
constexpr char kEarlierSnapshotHex[] =
    "3249424f020201010201044e6f6465010000c0cf8c0800000300000001000201"
    "01044e6f6465010001010101700101044e6f646500000001c0cf8c0801000502"
    "6e300000010101020102044e6f6465010001010301700102044e6f6465000000"
    "01c0cf8c08010005026e3100020102010201700103044e6f64650000";

TEST_F(SnapshotTest, SnapshotFromAnEarlierBuildLoads) {
  Bytes snapshot;
  for (std::size_t i = 0; i + 1 < sizeof(kEarlierSnapshotHex); i += 2) {
    snapshot.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(kEarlierSnapshotHex + i, 2), nullptr, 16)));
  }
  ASSERT_EQ(snapshot.size(), 124u);

  core::Site restored(2, network_.CreateEndpoint("d"));
  ASSERT_TRUE(restored.LoadSnapshot(AsView(snapshot)).ok());
  EXPECT_EQ(restored.master_count(), 1u);
  EXPECT_EQ(restored.replica_count(), 2u);
  EXPECT_TRUE(restored.CheckTableConsistency());

  auto n0 = restored.FindLocal(ObjectId{1, 1});
  auto n1 = restored.FindLocal(ObjectId{1, 2});
  ASSERT_TRUE(n0.ok() && n1.ok());
  auto* head = static_cast<Node*>(n0->get());
  EXPECT_EQ(head->label, "n0");
  EXPECT_EQ(head->next.local_raw(), n1->get());  // inline ref
  EXPECT_EQ(head->next.id(), (ObjectId{1, 2}));
  auto* second = static_cast<Node*>(n1->get());
  EXPECT_EQ(second->label, "n1");
  ASSERT_TRUE(second->next.IsProxy());  // proxy ref
  EXPECT_EQ(second->next.proxy()->target(), (ObjectId{1, 3}));
  EXPECT_EQ(second->next.proxy()->descriptor().provider, "p");
  auto channel = restored.ReplicaProvider(ObjectId{1, 1});
  ASSERT_TRUE(channel.ok());
  EXPECT_EQ(channel->provider, "p");

  auto local = restored.FindLocal(ObjectId{2, 1});
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(static_cast<Node*>(local->get())->next.IsEmpty());  // null ref
}

TEST_F(SnapshotTest, TruncatedSnapshotFailsCleanly) {
  auto head = test::MakeChain(3, 32, "m");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto snapshot = provider_->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());

  for (std::size_t cut : {snapshot->size() / 4, snapshot->size() / 2,
                          snapshot->size() - 1}) {
    core::Site fresh(1, network_.CreateEndpoint("cut" + std::to_string(cut)));
    EXPECT_FALSE(fresh.LoadSnapshot(BytesView(snapshot->data(), cut)).ok())
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace obiwan
