// Lease-based proxy-in collection (distributed GC) and push-based update
// dissemination.
#include <gtest/gtest.h>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::PushUpdates;
using core::ReplicationMode;
using test::Node;

class LeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::LinkParams{});
    provider_ = std::make_unique<core::Site>(1, network_->CreateEndpoint("p"), clock_);
    demander_ = std::make_unique<core::Site>(2, network_->CreateEndpoint("d"), clock_);
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(demander_->Start().ok());
    provider_->HostRegistry();
    demander_->UseRegistry("p");
    provider_->SetProxyLeaseDuration(kLease);
  }

  static constexpr Nanos kLease = 10 * kSecond;

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> demander_;
};

TEST_F(LeaseTest, ExpiredProxyInsAreCollected) {
  auto head = test::MakeChain(4, 16, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(ref.ok());
  // 4 per-object pins; the head's put channel reuses the *anchored* bind
  // pin, and there is no boundary pin (the whole list fits in the batch).
  EXPECT_EQ(provider_->proxy_in_count(), 4u);

  // Nothing expires before the lease runs out.
  clock_.Sleep(kLease / 2);
  EXPECT_EQ(provider_->CollectExpiredProxyIns(), 0u);

  clock_.Sleep(kLease);
  // The three tail pins expire; the bind pin is anchored (the registry still
  // advertises it) and survives.
  EXPECT_EQ(provider_->CollectExpiredProxyIns(), 3u);
  EXPECT_EQ(provider_->proxy_in_count(), 1u);

  // Replicas keep working locally; a tail's put channel is gone, while the
  // head's (the anchored pin) still accepts puts.
  EXPECT_EQ((*ref)->Label(), "n0");
  (*ref)->next.get()->SetLabel("x");
  EXPECT_EQ(demander_->Put((*ref)->next).code(), StatusCode::kNotFound);
  (*ref)->SetLabel("y");
  EXPECT_TRUE(demander_->Put(*ref).ok());
}

TEST_F(LeaseTest, UseRenewsLease) {
  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider_->Bind("obj", head).ok());
  auto remote = demander_->Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  // Keep putting through the pin just inside the lease window.
  for (int i = 0; i < 5; ++i) {
    clock_.Sleep(kLease - kSecond);
    (*ref)->SetValue(i);
    ASSERT_TRUE(demander_->Put(*ref).ok());
    EXPECT_EQ(provider_->CollectExpiredProxyIns(), 0u)
        << "active pin collected at round " << i;
  }
}

TEST_F(LeaseTest, ExplicitRenewKeepsIdleProxyAlive) {
  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider_->Bind("obj", head).ok());
  auto remote = demander_->Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  auto provider_desc = demander_->ReplicaProvider(remote->id());
  ASSERT_TRUE(provider_desc.ok());

  // Idle, but renewed in time (the single pin doubles as bind pin and put
  // channel thanks to per-target dedup).
  clock_.Sleep(kLease - kSecond);
  ASSERT_TRUE(demander_->RenewProxy(*provider_desc).ok());
  clock_.Sleep(kLease - kSecond);
  EXPECT_EQ(provider_->CollectExpiredProxyIns(), 0u);
  // The renewed put channel survived.
  (*ref)->SetValue(9);
  EXPECT_TRUE(demander_->Put(*ref).ok());

  // Renewing an unknown pin reports not-found.
  core::ProxyDescriptor bogus{{1, 999}, "p", remote->id(), "Node"};
  EXPECT_EQ(demander_->RenewProxy(bogus).code(), StatusCode::kNotFound);
}

TEST_F(LeaseTest, LeasingDisabledMeansNoCollection) {
  provider_->SetProxyLeaseDuration(0);
  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider_->Bind("obj", head).ok());
  clock_.Sleep(1000 * kSecond);
  EXPECT_EQ(provider_->CollectExpiredProxyIns(), 0u);
  EXPECT_EQ(provider_->proxy_in_count(), 1u);
}

// --- push-based dissemination ---------------------------------------------------

class PushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    master_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("pc"));
    laptop_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("laptop"));
    pda_ = std::make_unique<core::Site>(3, network_.CreateEndpoint("pda"));
    ASSERT_TRUE(master_->Start().ok());
    ASSERT_TRUE(laptop_->Start().ok());
    ASSERT_TRUE(pda_->Start().ok());
    master_->HostRegistry();
    laptop_->UseRegistry("pc");
    pda_->UseRegistry("pc");
    master_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> master_;
  std::unique_ptr<core::Site> laptop_;
  std::unique_ptr<core::Site> pda_;
};

TEST_F(PushTest, PutPropagatesToOtherHolders) {
  auto obj = test::MakeChain(1, 16, "o");
  ASSERT_TRUE(master_->Bind("obj", obj).ok());

  auto on_laptop = *laptop_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));
  auto on_pda = *pda_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));

  on_laptop->SetLabel("pushed-content");
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());

  // The PDA's replica was updated eagerly — no refresh needed.
  EXPECT_EQ(on_pda->Label(), "pushed-content");
  EXPECT_FALSE(pda_->IsStale(on_pda));
  // And its version advanced to the master's.
  auto v = pda_->ReplicaVersion(on_pda);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
}

TEST_F(PushTest, PushCarriesNewEdges) {
  auto head = test::MakeChain(2, 16, "n");
  ASSERT_TRUE(master_->Bind("list", head).ok());

  auto on_laptop = *laptop_->Lookup<Node>("list")->Replicate(ReplicationMode::Incremental(2));
  auto on_pda = *pda_->Lookup<Node>("list")->Replicate(ReplicationMode::Incremental(1));

  // The laptop rewires the head to skip node 1.
  on_laptop->next.Reset();
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());

  // The PDA received the pushed topology change.
  EXPECT_TRUE(on_pda->next.IsEmpty());
}

TEST_F(PushTest, WriterIsNotPushedTo) {
  auto obj = test::MakeChain(1, 16, "o");
  ASSERT_TRUE(master_->Bind("obj", obj).ok());
  auto on_laptop = *laptop_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));

  const Counter& received = *laptop_->telemetry().invalidations_received;
  const auto received_before = received.Value();
  on_laptop->SetValue(5);
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());
  EXPECT_EQ(received.Value(), received_before);
}

TEST_F(PushTest, UpdateCallbackFiresOnPush) {
  auto obj = test::MakeChain(1, 16, "o");
  ASSERT_TRUE(master_->Bind("obj", obj).ok());
  auto on_laptop = *laptop_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));
  auto on_pda = *pda_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));

  std::vector<std::pair<ObjectId, bool>> events;
  pda_->SetReplicaUpdateCallback(
      [&](ObjectId id, bool stale) { events.emplace_back(id, stale); });

  on_laptop->SetLabel("pushed");
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, on_pda.id());
  EXPECT_FALSE(events[0].second);  // push = fresh, not stale

  // Detach: no further events.
  pda_->SetReplicaUpdateCallback(nullptr);
  on_laptop->SetLabel("again");
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());
  EXPECT_EQ(events.size(), 1u);
}

TEST_F(PushTest, UpdateCallbackFiresOnInvalidate) {
  master_->SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  auto obj = test::MakeChain(1, 16, "o");
  ASSERT_TRUE(master_->Bind("obj", obj).ok());
  auto on_laptop = *laptop_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));
  auto on_pda = *pda_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));

  std::vector<std::pair<ObjectId, bool>> events;
  pda_->SetReplicaUpdateCallback(
      [&](ObjectId id, bool stale) { events.emplace_back(id, stale); });

  on_laptop->SetLabel("wins");
  ASSERT_TRUE(laptop_->Put(on_laptop).ok());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].second);  // invalidation = stale
  EXPECT_TRUE(pda_->IsStale(on_pda));
}

TEST_F(PushTest, DepartedHolderIsIgnored) {
  auto obj = test::MakeChain(1, 16, "o");
  ASSERT_TRUE(master_->Bind("obj", obj).ok());
  auto on_laptop = *laptop_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));
  {
    auto on_pda = *pda_->Lookup<Node>("obj")->Replicate(ReplicationMode::Incremental(1));
    (void)on_pda;
  }
  pda_->Stop();  // the PDA vanished

  on_laptop->SetLabel("still-works");
  EXPECT_TRUE(laptop_->Put(on_laptop).ok());
  EXPECT_EQ(obj->label, "still-works");
}

}  // namespace
}  // namespace obiwan
