// Site surface tests: error paths, stats accounting, and state inspection
// not covered by the protocol suites.
#include <gtest/gtest.h>

#include <map>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

class SiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("p"));
    demander_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("d"));
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(demander_->Start().ok());
    provider_->HostRegistry();
    demander_->UseRegistry("p");
  }

  core::Ref<Node> Replicate(const std::string& name, ReplicationMode mode) {
    auto remote = demander_->Lookup<Node>(name);
    EXPECT_TRUE(remote.ok());
    auto ref = remote->Replicate(mode);
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> demander_;
};

TEST_F(SiteTest, DoubleStartAndStopAreSafe) {
  EXPECT_EQ(provider_->Start().code(), StatusCode::kFailedPrecondition);
  provider_->Stop();
  provider_->Stop();  // idempotent
  EXPECT_TRUE(provider_->Start().ok());
}

TEST_F(SiteTest, PutErrorPaths) {
  auto obj = test::MakeChain(1, 8, "o");
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());

  // Empty ref.
  core::Ref<Node> empty;
  EXPECT_EQ(demander_->Put(empty).code(), StatusCode::kFailedPrecondition);

  // Local object never replicated/exported.
  core::Ref<Node> fresh(std::make_shared<Node>());
  EXPECT_EQ(demander_->Put(fresh).code(), StatusCode::kFailedPrecondition);

  // A master cannot be "put" at its own site.
  core::Ref<Node> master_ref(obj);
  master_ref.set_id(ObjectId{1, 1});
  EXPECT_EQ(provider_->Put(master_ref).code(), StatusCode::kFailedPrecondition);

  // An unresolved proxy cannot be put.
  ASSERT_TRUE(provider_->Bind("list", test::MakeChain(3, 8, "l")).ok());
  auto ref = Replicate("list", ReplicationMode::Incremental(1));
  EXPECT_EQ(demander_->Put(ref->next).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SiteTest, RefreshErrorPaths) {
  core::Ref<Node> empty;
  EXPECT_EQ(demander_->Refresh(empty).code(), StatusCode::kFailedPrecondition);
  core::Ref<Node> fresh(std::make_shared<Node>());
  EXPECT_EQ(demander_->Refresh(fresh).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SiteTest, ReplicaVersionTracksPuts) {
  auto obj = test::MakeChain(1, 8, "o");
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  auto ref = Replicate("obj", ReplicationMode::Incremental(1));

  auto v1 = demander_->ReplicaVersion(ref);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);

  ref->SetValue(5);
  ASSERT_TRUE(demander_->Put(ref).ok());
  auto v2 = demander_->ReplicaVersion(ref);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  auto mv = provider_->MasterVersion(ref.id());
  ASSERT_TRUE(mv.ok());
  EXPECT_EQ(*mv, 2u);

  core::Ref<Node> unknown(std::make_shared<Node>());
  EXPECT_FALSE(demander_->ReplicaVersion(unknown).ok());
  EXPECT_FALSE(provider_->MasterVersion(ObjectId{1, 999}).ok());
}

TEST_F(SiteTest, StatsAccounting) {
  auto head = test::MakeChain(4, 8, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  // The counters are monotonic: each check is a difference from here.
  const core::SiteTelemetry& d = demander_->telemetry();
  const core::SiteTelemetry& p = provider_->telemetry();
  std::map<const Counter*, std::uint64_t> before;
  for (const Counter* c :
       {d.gets_sent, p.gets_served, d.replicas_created, p.objects_served,
        d.proxy_outs_created, d.puts_sent, p.puts_served, d.calls_sent,
        p.calls_served}) {
    before[c] = c->Value();
  }
  auto since = [&](const Counter* c) { return c->Value() - before.at(c); };

  auto ref = Replicate("list", ReplicationMode::Incremental(2));
  EXPECT_EQ(since(d.gets_sent), 1u);
  EXPECT_EQ(since(p.gets_served), 1u);
  EXPECT_EQ(since(d.replicas_created), 2u);
  EXPECT_EQ(since(p.objects_served), 2u);
  EXPECT_EQ(since(d.proxy_outs_created), 1u);  // boundary to n2

  ref->SetValue(1);
  ASSERT_TRUE(demander_->Put(ref).ok());
  EXPECT_EQ(since(d.puts_sent), 1u);
  EXPECT_EQ(since(p.puts_served), 1u);

  auto remote = demander_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  (void)remote->Invoke(&Node::Value);
  EXPECT_EQ(since(d.calls_sent), 1u);
  EXPECT_EQ(since(p.calls_served), 1u);
}

TEST_F(SiteTest, FindLocalCoversMastersAndReplicas) {
  auto obj = test::MakeChain(1, 8, "o");
  ObjectId oid = provider_->Export(obj);
  auto found = provider_->FindLocal(oid);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), obj.get());

  EXPECT_EQ(provider_->FindLocal(ObjectId{1, 12345}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(demander_->FindLocal(oid).status().code(), StatusCode::kNotFound);
}

TEST_F(SiteTest, PutClusterOnNonClusterReplicaDegeneratesToSinglePut) {
  auto obj = test::MakeChain(1, 8, "o");
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  auto ref = Replicate("obj", ReplicationMode::Incremental(1));
  ref->SetLabel("via-putcluster");
  ASSERT_TRUE(demander_->PutCluster(ref).ok());
  EXPECT_EQ(obj->label, "via-putcluster");
}

TEST_F(SiteTest, RefreshClusterRefreshesAllMembers) {
  auto head = test::MakeChain(3, 8, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto ref = Replicate("list", ReplicationMode::Cluster(3));

  head->label = "c0-new";
  head->next.get()->label = "c1-new";
  ASSERT_TRUE(demander_->Refresh(ref).ok());
  EXPECT_EQ(ref->label, "c0-new");
  EXPECT_EQ(ref->next.get()->label, "c1-new");
}

TEST_F(SiteTest, ConsistencyPolicyAccessors) {
  EXPECT_EQ(provider_->consistency_policy().name(), "none");
  provider_->SetConsistencyPolicy(std::make_unique<consistency::LastWriterWins>());
  EXPECT_EQ(provider_->consistency_policy().name(), "last-writer-wins");
  provider_->SetConsistencyPolicy(nullptr);  // ignored, never null
  EXPECT_EQ(provider_->consistency_policy().name(), "last-writer-wins");
}

TEST_F(SiteTest, GetOnUnknownPinOrRoot) {
  auto obj = test::MakeChain(1, 8, "o");
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  auto remote = demander_->Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok());
  const auto& info = remote->info();

  core::ProxyDescriptor bad_pin{{1, 777}, "p", info.id, "Node"};
  EXPECT_EQ(demander_
                ->DemandThrough(bad_pin, info.id, ReplicationMode::Incremental(),
                                false, false)
                .status()
                .code(),
            StatusCode::kNotFound);

  core::ProxyDescriptor bad_root{info.pin, "p", ObjectId{1, 777}, "Node"};
  EXPECT_EQ(demander_
                ->DemandThrough(bad_root, ObjectId{1, 777},
                                ReplicationMode::Incremental(), false, false)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(SiteTest, UnknownClassInBatchIsCleanError) {
  // A provider could serve classes this binary does not link. Simulate with
  // a direct push of a record naming an unknown class — the handler path.
  auto obj = test::MakeChain(1, 8, "o");
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  auto ref = Replicate("obj", ReplicationMode::Incremental(1));

  core::ObjectRecord rec;
  rec.id = ref.id();
  rec.class_name = "ClassFromTheFuture";
  rec.version = 9;
  rec.refs = {};
  wire::Writer body;
  wire::Encode(body, rec);
  auto reply = demander_->transport().Request(
      "d", AsView(rmi::WrapRequest(rmi::MessageKind::kPush, body)));
  // Self-request to exercise the handler: unknown class -> clean error.
  EXPECT_FALSE(reply.ok());
}

}  // namespace
}  // namespace obiwan
