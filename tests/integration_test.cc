// Feature-composition integration tests: the extensions working *together* —
// stacked transport decorators, adaptive refs on flaky links, snapshots of
// cluster replicas, chains with push dissemination, eviction vs leases.
#include <gtest/gtest.h>

#include "core/batch.h"
#include "net/compressed.h"
#include "net/retry.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

TEST(Integration, CompressedRetryingStackOnFlakyWireless) {
  // Full decorator stack: Site -> Retrying -> Compressed -> SimNetwork.
  VirtualClock clock;
  net::SimNetwork network(clock,
                          net::LinkParams{.processing_overhead = 1300 * kMicro,
                                          .latency = 300 * kMilli,
                                          .bandwidth_bytes_per_sec = 50.0e3 / 8,
                                          .drop_probability = 0.2},
                          /*seed=*/5);
  auto stack = [&](const char* name) -> std::unique_ptr<net::Transport> {
    return std::make_unique<net::RetryingTransport>(
        std::make_unique<net::CompressedTransport>(network.CreateEndpoint(name)),
        net::RetryPolicy{.max_attempts = 12}, clock);
  };
  core::Site provider(1, stack("p"), clock);
  core::Site demander(2, stack("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(10, 1024, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());

  // Everything works through drops + narrow pipe + compression.
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto ref = remote->Replicate(ReplicationMode::Cluster(10));
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(demander.replica_count(), 10u);

  (*ref)->SetLabel("through-the-stack");
  ASSERT_TRUE(demander.PutCluster(*ref).ok());
  EXPECT_EQ(head->label, "through-the-stack");

  // Compression actually engaged: the repetitive batch went far below raw.
  EXPECT_LT(network.telemetry().reply_bytes->Value(), 4000u);
}

TEST(Integration, AdaptiveRefOverRetryingTransport) {
  VirtualClock clock;
  net::SimNetwork network(clock,
                          net::LinkParams{.processing_overhead = 1300 * kMicro,
                                          .latency = 100 * kMicro,
                                          .drop_probability = 0.3},
                          /*seed=*/9);
  auto stack = [&](const char* name) -> std::unique_ptr<net::Transport> {
    return std::make_unique<net::RetryingTransport>(
        network.CreateEndpoint(name), net::RetryPolicy{.max_attempts = 15}, clock);
  };
  core::Site server(1, stack("s"), clock);
  core::Site client(2, stack("c"), clock);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Start().ok());
  server.HostRegistry();
  client.UseRegistry("s");
  auto master = test::MakeChain(1, 64, "m");
  ASSERT_TRUE(server.Bind("obj", master).ok());

  auto remote = client.Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok());
  adaptive::AdaptiveRef<Node> ref(client, *remote);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(ref.Invoke(&Node::Touch).ok()) << "call " << i;
  }
  EXPECT_TRUE(ref.local());  // switched despite the flaky link
  ASSERT_TRUE(ref.Sync().ok());
  // Retries are at-least-once: a Touch whose *reply* was dropped executed at
  // the master and ran again on retry, so the count may exceed 30. The final
  // Sync makes the replica state authoritative either way.
  EXPECT_GE(master->value, 30);
}

TEST(Integration, SnapshotPreservesClusterSemantics) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  auto pda = std::make_unique<core::Site>(2, network.CreateEndpoint("pda"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(pda->Start().ok());
  provider.HostRegistry();
  pda->UseRegistry("p");

  auto head = test::MakeChain(4, 32, "c");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = pda->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Cluster(4));
  ASSERT_TRUE(ref.ok());
  (*ref)->SetLabel("before-snapshot");

  auto snapshot = pda->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());
  pda.reset();  // device off

  core::Site reborn(2, network.CreateEndpoint("pda2"));
  ASSERT_TRUE(reborn.LoadSnapshot(AsView(*snapshot)).ok());
  ASSERT_TRUE(reborn.Start().ok());

  core::Ref<Node> restored;
  auto obj = reborn.FindLocal(remote->id());
  ASSERT_TRUE(obj.ok());
  restored.BindLocal(remote->id(), std::move(obj).value());
  EXPECT_EQ(restored->label, "before-snapshot");

  // Cluster discipline survives the restart: per-object put still refused,
  // cluster put still lands.
  EXPECT_EQ(reborn.Put(restored).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(reborn.PutCluster(restored).ok());
  EXPECT_EQ(head->label, "before-snapshot");
}

TEST(Integration, ChainWithPushKeepsMiddleFresh) {
  // office -> laptop -> pda, with push-updates at the office AND laptop.
  net::LoopbackNetwork network;
  core::Site office(1, network.CreateEndpoint("office"));
  core::Site laptop(2, network.CreateEndpoint("laptop"));
  core::Site pda(3, network.CreateEndpoint("pda"));
  ASSERT_TRUE(office.Start().ok());
  ASSERT_TRUE(laptop.Start().ok());
  ASSERT_TRUE(pda.Start().ok());
  office.HostRegistry();
  laptop.UseRegistry("office");
  pda.UseRegistry("office");
  office.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());
  laptop.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());

  auto doc = test::MakeChain(1, 32, "d");
  ASSERT_TRUE(office.Bind("doc", doc).ok());

  auto on_laptop = *laptop.Lookup<Node>("doc")->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(laptop.Bind("doc-cached", on_laptop.local()).ok());
  auto on_pda = *pda.Lookup<Node>("doc-cached")->Replicate(ReplicationMode::Incremental(1));

  // The PDA edits; its put updates the laptop's replica. Because the laptop
  // re-exported and tracks its own holders, *its* acceptance pushes back to
  // the PDA only excludes the writer — so a second PDA-side device would be
  // updated. The laptop then reintegrates upstream.
  on_pda->SetLabel("edited-on-the-road");
  ASSERT_TRUE(pda.Put(on_pda).ok());
  EXPECT_EQ(on_laptop->label, "edited-on-the-road");
  ASSERT_TRUE(laptop.Put(on_laptop).ok());
  EXPECT_EQ(doc->label, "edited-on-the-road");

  // An office-side edit (via a fourth client) pushes to the office's direct
  // holders — the laptop gets fresh state immediately.
  core::Site editor(4, network.CreateEndpoint("editor"));
  ASSERT_TRUE(editor.Start().ok());
  editor.UseRegistry("office");
  auto on_editor = *editor.Lookup<Node>("doc")->Replicate(ReplicationMode::Incremental(1));
  on_editor->SetLabel("edited-at-hq-v2");
  ASSERT_TRUE(editor.Put(on_editor).ok());

  EXPECT_EQ(doc->label, "edited-at-hq-v2");
  EXPECT_EQ(on_laptop->label, "edited-at-hq-v2");  // pushed office -> laptop

  // Pushes are one hop (a pushed update does not re-trigger dissemination);
  // the PDA catches up with its usual refresh.
  EXPECT_EQ(on_pda->label, "edited-on-the-road");
  ASSERT_TRUE(pda.Refresh(on_pda).ok());
  EXPECT_EQ(on_pda->label, "edited-at-hq-v2");
}

TEST(Integration, ReExportedReplicaPushesToItsOwnHolders) {
  // laptop re-exports; two PDAs replicate from it; one PDA's put makes the
  // laptop push to the other (replica-level holder tracking).
  net::LoopbackNetwork network;
  core::Site office(1, network.CreateEndpoint("office"));
  core::Site laptop(2, network.CreateEndpoint("laptop"));
  core::Site pda_a(3, network.CreateEndpoint("pda-a"));
  core::Site pda_b(4, network.CreateEndpoint("pda-b"));
  for (core::Site* s : {&office, &laptop, &pda_a, &pda_b}) {
    ASSERT_TRUE(s->Start().ok());
  }
  office.HostRegistry();
  laptop.UseRegistry("office");
  pda_a.UseRegistry("office");
  pda_b.UseRegistry("office");
  laptop.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());

  auto doc = test::MakeChain(1, 32, "d");
  ASSERT_TRUE(office.Bind("doc", doc).ok());
  auto on_laptop = *laptop.Lookup<Node>("doc")->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(laptop.Bind("cached", on_laptop.local()).ok());

  auto on_a = *pda_a.Lookup<Node>("cached")->Replicate(ReplicationMode::Incremental(1));
  auto on_b = *pda_b.Lookup<Node>("cached")->Replicate(ReplicationMode::Incremental(1));

  on_a->SetLabel("from-pda-a");
  ASSERT_TRUE(pda_a.Put(on_a).ok());
  EXPECT_EQ(on_laptop->label, "from-pda-a");
  EXPECT_EQ(on_b->label, "from-pda-a");  // pushed laptop -> pda-b
}

TEST(Integration, EvictionRespectsLeasedChannels) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{});
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");
  provider.SetProxyLeaseDuration(10 * kSecond);

  auto head = test::MakeChain(5, 32, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  {
    auto ref = remote->Replicate(ReplicationMode::Incremental(5));
    ASSERT_TRUE(ref.ok());
  }
  // The demander dropped everything; evict, then let the provider's leases
  // expire — both sides reclaim independently and a fresh get still works.
  EXPECT_EQ(demander.EvictIdleReplicas(), 5u);
  clock.Sleep(20 * kSecond);
  EXPECT_GT(provider.CollectExpiredProxyIns(), 0u);

  auto again = demander.Lookup<Node>("list");
  ASSERT_TRUE(again.ok());  // re-lookup refreshes the (re-created) bind pin
  auto ref = again->Replicate(ReplicationMode::Incremental(5));
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ((*ref)->next->next->Label(), "n2");
}

TEST(Integration, BatchedRmiThroughCompressedTransport) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  auto wrap = [&](const char* name) {
    return std::make_unique<net::CompressedTransport>(network.CreateEndpoint(name));
  };
  core::Site server(1, wrap("s"), clock);
  core::Site client(2, wrap("c"), clock);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Start().ok());
  server.HostRegistry();
  client.UseRegistry("s");
  auto master = test::MakeChain(1, 16, "m");
  ASSERT_TRUE(server.Bind("obj", master).ok());
  auto remote = client.Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok());

  core::CallBatch<Node> batch(client, *remote);
  std::vector<std::size_t> indices;
  for (int i = 0; i < 100; ++i) {
    indices.push_back(batch.Add(&Node::SetLabel,
                                std::string("very repetitive label text ") +
                                    std::to_string(i % 3)));
  }
  Nanos before = clock.Now();
  ASSERT_TRUE(batch.Execute().ok());
  EXPECT_LT(clock.Now() - before, 2 * 2'800 * kMicro);  // one (compressed) RTT
  for (std::size_t i : indices) EXPECT_TRUE(batch.Ok(i).ok());
}

}  // namespace
}  // namespace obiwan
