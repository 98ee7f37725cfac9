// Replica re-export chains: "objects can be replicated freely among sites"
// (§5). A site holding replicas can serve them onward (office PC -> laptop ->
// PDA); proxies for objects the middle site never resolved are forwarded to
// the original provider.
#include <gtest/gtest.h>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

class ChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    office_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("office"));
    laptop_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("laptop"));
    pda_ = std::make_unique<core::Site>(3, network_.CreateEndpoint("pda"));
    ASSERT_TRUE(office_->Start().ok());
    ASSERT_TRUE(laptop_->Start().ok());
    ASSERT_TRUE(pda_->Start().ok());
    office_->HostRegistry();
    laptop_->UseRegistry("office");
    pda_->UseRegistry("office");
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> office_;
  std::unique_ptr<core::Site> laptop_;
  std::unique_ptr<core::Site> pda_;
};

TEST_F(ChainTest, LaptopReExportsToPda) {
  auto doc = test::MakeChain(4, 32, "d");
  ASSERT_TRUE(office_->Bind("doc", doc).ok());

  // Laptop replicates the whole document from the office.
  auto office_remote = laptop_->Lookup<Node>("doc");
  ASSERT_TRUE(office_remote.ok());
  auto on_laptop = office_remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(on_laptop.ok());
  EXPECT_EQ(laptop_->replica_count(), 4u);

  // Laptop re-binds its replica under a new name (now acting as provider).
  ASSERT_TRUE(laptop_->Bind("doc-cached", on_laptop->local()).ok());

  // PDA replicates from the laptop, never talking to the office.
  const auto office_gets = office_->telemetry().gets_served->Value();
  auto laptop_remote = pda_->Lookup<Node>("doc-cached");
  ASSERT_TRUE(laptop_remote.ok());
  EXPECT_EQ(laptop_remote->provider(), "laptop");
  auto on_pda = laptop_remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(on_pda.ok());

  EXPECT_EQ(pda_->replica_count(), 4u);
  // The office is untouched.
  EXPECT_EQ(office_->telemetry().gets_served->Value(), office_gets);
  EXPECT_EQ((*on_pda)->next->next->Label(), "d2");

  // Identity: the PDA's replicas carry the office's master ids.
  EXPECT_EQ(on_pda->id(), office_remote->id());
}

TEST_F(ChainTest, UnresolvedProxyIsForwardedToOrigin) {
  auto doc = test::MakeChain(4, 32, "d");
  ASSERT_TRUE(office_->Bind("doc", doc).ok());

  // Laptop only replicates the first two nodes; d2 stays a proxy there.
  auto office_remote = laptop_->Lookup<Node>("doc");
  ASSERT_TRUE(office_remote.ok());
  auto on_laptop = office_remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(on_laptop.ok());
  ASSERT_TRUE((*on_laptop)->next.IsLocal());
  ASSERT_TRUE((*on_laptop)->next.get()->next.IsProxy());

  ASSERT_TRUE(laptop_->Bind("doc-cached", on_laptop->local()).ok());

  // PDA pulls everything through the laptop. When it crosses the laptop's
  // own boundary, the forwarded descriptor sends the PDA straight to the
  // office for d2 — without the laptop resolving it first.
  auto laptop_remote = pda_->Lookup<Node>("doc-cached");
  ASSERT_TRUE(laptop_remote.ok());
  auto on_pda = laptop_remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(on_pda.ok());

  const auto laptop_replicas_before = laptop_->replica_count();
  EXPECT_EQ((*on_pda)->next->next->Label(), "d2");  // faults to the office
  EXPECT_EQ(laptop_->replica_count(), laptop_replicas_before);  // laptop unchanged
  EXPECT_TRUE((*on_laptop)->next.get()->next.IsProxy());  // laptop still faulted
}

TEST_F(ChainTest, PutToMiddleUpdatesItsReplicaOnly) {
  auto doc = test::MakeChain(1, 32, "d");
  ASSERT_TRUE(office_->Bind("doc", doc).ok());

  auto office_remote = laptop_->Lookup<Node>("doc");
  ASSERT_TRUE(office_remote.ok());
  auto on_laptop = office_remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(on_laptop.ok());
  ASSERT_TRUE(laptop_->Bind("doc-cached", on_laptop->local()).ok());

  auto laptop_remote = pda_->Lookup<Node>("doc-cached");
  ASSERT_TRUE(laptop_remote.ok());
  auto on_pda = laptop_remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(on_pda.ok());

  // The PDA's provider is the laptop: a put updates the laptop's replica
  // (hierarchical reintegration), not the office master directly.
  (*on_pda)->SetLabel("edited-on-pda");
  ASSERT_TRUE(pda_->Put(*on_pda).ok());
  EXPECT_EQ(on_laptop->get()->label, "edited-on-pda");
  EXPECT_EQ(doc->label, "d0");

  // The laptop then reintegrates upstream.
  ASSERT_TRUE(laptop_->Put(*on_laptop).ok());
  EXPECT_EQ(doc->label, "edited-on-pda");
}

TEST_F(ChainTest, ThreeLevelFaultChain) {
  auto doc = test::MakeChain(3, 32, "d");
  ASSERT_TRUE(office_->Bind("doc", doc).ok());

  auto r1 = laptop_->Lookup<Node>("doc");
  ASSERT_TRUE(r1.ok());
  auto on_laptop = r1->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(on_laptop.ok());
  ASSERT_TRUE(laptop_->Bind("cached", on_laptop->local()).ok());

  auto r2 = pda_->Lookup<Node>("cached");
  ASSERT_TRUE(r2.ok());
  auto on_pda = r2->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(on_pda.ok());

  // Traversing on the PDA: d1's descriptor was forwarded from the laptop
  // (which never resolved it), so the PDA faults straight to the office.
  EXPECT_EQ((*on_pda)->next->Label(), "d1");
  EXPECT_EQ((*on_pda)->next->next->Label(), "d2");
  EXPECT_EQ(pda_->replica_count(), 3u);
}

}  // namespace
}  // namespace obiwan
