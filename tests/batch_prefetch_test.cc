// Batched RMI (CallBatch) and the background prefetcher.
#include <gtest/gtest.h>

#include "core/batch.h"
#include "core/prefetcher.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::CallBatch;
using core::ReplicationMode;
using test::Node;

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::kPaperLan);
    server_ = std::make_unique<core::Site>(1, network_->CreateEndpoint("s"), clock_);
    client_ = std::make_unique<core::Site>(2, network_->CreateEndpoint("c"), clock_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_->Start().ok());
    server_->HostRegistry();
    client_->UseRegistry("s");
    master_ = test::MakeChain(1, 16, "m");
    ASSERT_TRUE(server_->Bind("obj", master_).ok());
    remote_ = *client_->Lookup<Node>("obj");
  }

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> server_;
  std::unique_ptr<core::Site> client_;
  std::shared_ptr<Node> master_;
  core::RemoteRef<Node> remote_;
};

TEST_F(BatchTest, ManyCallsOneRoundTrip) {
  CallBatch<Node> batch(*client_, remote_);
  std::vector<std::size_t> touches;
  for (int i = 0; i < 50; ++i) touches.push_back(batch.Add(&Node::Touch));
  std::size_t label = batch.Add(&Node::Label);

  Nanos before = clock_.Now();
  ASSERT_TRUE(batch.Execute().ok());
  Nanos elapsed = clock_.Now() - before;

  // One round trip, not 51: within 2x of the base RTT (payload transfer).
  EXPECT_LT(elapsed, 2 * 2'800 * kMicro);
  EXPECT_EQ(master_->value, 50);

  // In-order execution with per-call results.
  for (std::size_t i = 0; i < touches.size(); ++i) {
    auto v = batch.Get<std::int64_t>(touches[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, static_cast<std::int64_t>(i + 1));
  }
  auto l = batch.Get<std::string>(label);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(*l, "m0");
}

TEST_F(BatchTest, ItemsFailIndependently) {
  // Second object with a different class to provoke a per-item miss.
  auto other = std::make_shared<test::Pair>();
  ASSERT_TRUE(server_->Bind("pair", other).ok());
  auto pair_remote = *client_->Lookup<test::Pair>("pair");

  CallBatch<Node> batch(*client_, remote_);
  std::size_t good = batch.Add(&Node::Touch);
  // Manually poison one item: call Node::Touch on the Pair object's id.
  CallBatch<test::Pair> pair_batch(*client_, pair_remote);
  std::size_t bad = pair_batch.Add(&test::Pair::Name);
  std::size_t good2 = batch.Add(&Node::Value);

  ASSERT_TRUE(batch.Execute().ok());
  EXPECT_TRUE(batch.Ok(good).ok());
  EXPECT_TRUE(batch.Ok(good2).ok());

  ASSERT_TRUE(pair_batch.Execute().ok());
  EXPECT_TRUE(pair_batch.Ok(bad).ok());  // actually fine — sanity

  // Genuine per-item failure: unknown method name via raw encoding.
  std::vector<rmi::CallRequest> calls;
  calls.push_back({remote_.id(), "Touch", {}});
  calls.push_back({remote_.id(), "NoSuchMethod", {}});
  calls.push_back({remote_.id(), "Touch", {}});
  auto reply = client_->transport().Request(
      "s", AsView(rmi::EncodeCallBatch(calls)));
  ASSERT_TRUE(reply.ok());
  auto results = rmi::DecodeBatchReply(AsView(*reply));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].ok());
  EXPECT_EQ((*results)[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE((*results)[2].ok());
}

TEST_F(BatchTest, EmptyBatchIsFree) {
  CallBatch<Node> batch(*client_, remote_);
  Nanos before = clock_.Now();
  EXPECT_TRUE(batch.Execute().ok());
  EXPECT_EQ(clock_.Now(), before);
}

TEST_F(BatchTest, WrongIndexAndVoidResults) {
  CallBatch<Node> batch(*client_, remote_);
  std::size_t set = batch.Add(&Node::SetValue, std::int64_t{9});
  ASSERT_TRUE(batch.Execute().ok());
  EXPECT_TRUE(batch.Ok(set).ok());
  EXPECT_EQ(master_->value, 9);
  EXPECT_EQ(batch.Ok(99).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(batch.Get<std::int64_t>(99).ok());
}

// --- background prefetcher (real threads -> loopback transport) -------------------

TEST(BackgroundPrefetcher, HidesFaultsBeforeTraversal) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(40, 64, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(ref.ok());

  core::BackgroundPrefetcher prefetcher(demander);
  prefetcher.Prefetch(*ref);
  prefetcher.Drain();

  EXPECT_EQ(demander.replica_count(), 40u);
  EXPECT_EQ(prefetcher.graphs_prefetched(), 1u);

  // Traversal now faults zero times over the network.
  const auto gets_before = demander.telemetry().gets_sent->Value();
  core::Ref<Node>* cursor = &*ref;
  int count = 0;
  while (!cursor->IsEmpty()) {
    (*cursor)->Touch();
    cursor = &cursor->get()->next;
    ++count;
  }
  EXPECT_EQ(count, 40);
  EXPECT_EQ(demander.telemetry().gets_sent->Value(), gets_before);
}

TEST(BackgroundPrefetcher, MultipleGraphsAndShutdown) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  std::vector<core::Ref<Node>> refs;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        provider.Bind(std::string("g").append(std::to_string(i)),
                      test::MakeChain(10, 16, "g"))
            .ok());
    auto remote =
        demander.Lookup<Node>(std::string("g").append(std::to_string(i)));
    ASSERT_TRUE(remote.ok());
    refs.push_back(*remote->Replicate(ReplicationMode::Incremental(1)));
  }

  core::BackgroundPrefetcher prefetcher(demander);
  for (auto& ref : refs) prefetcher.Prefetch(ref);
  prefetcher.Drain();
  EXPECT_EQ(prefetcher.graphs_prefetched(), 5u);
  EXPECT_EQ(demander.replica_count(), 50u);
  prefetcher.Stop();
  prefetcher.Stop();  // idempotent
}

TEST(BackgroundPrefetcher, DisconnectionIsBestEffort) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");
  ASSERT_TRUE(provider.Bind("list", test::MakeChain(6, 16, "n")).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  provider.Stop();  // the link dies before the prefetcher runs
  core::BackgroundPrefetcher prefetcher(demander);
  prefetcher.Prefetch(*ref);
  prefetcher.Drain();  // returns; the failure stayed internal
  EXPECT_EQ(demander.replica_count(), 2u);

  // The application's own fault surfaces the error as usual.
  EXPECT_FALSE((*ref)->next.get()->next.Demand().ok());
}

}  // namespace
}  // namespace obiwan
