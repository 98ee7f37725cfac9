// Update fanout, holder lifecycle and reconnect resync.
//
// The provider-side fanout (ServePut / MarkMasterUpdated) must survive the
// paper's normal case — holders that disconnect and reconnect (§2.1) —
// without stalling writers: notifications go out through a bounded parallel
// pool, chronically unreachable holders are dropped (and re-registered on
// their next get), transient failures are retried with backoff, and the
// demander-side ResyncDaemon re-refreshes stale replicas after reconnect.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fanout.h"
#include "core/resync.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::FanoutPool;
using core::PushUpdates;
using core::ReplicationMode;
using core::ResyncDaemon;
using test::Node;

// ---------------------------------------------------------------------------
// FanoutPool unit tests
// ---------------------------------------------------------------------------

TEST(FanoutPoolTest, VirtualClockChargesMakespanNotSum) {
  VirtualClock clock;
  FanoutPool pool(clock, /*width=*/8);
  std::vector<FanoutPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&clock] {
      clock.Sleep(10 * kMilli);
      return Status::Ok();
    });
  }
  const Nanos start = clock.Now();
  auto statuses = pool.RunAll(std::move(tasks));
  EXPECT_EQ(clock.Now() - start, 10 * kMilli);  // 8 concurrent, not 80 ms
  ASSERT_EQ(statuses.size(), 8u);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok());
}

TEST(FanoutPoolTest, BoundedWidthQueuesExcessTasks) {
  VirtualClock clock;
  FanoutPool pool(clock, /*width=*/2);
  std::vector<FanoutPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&clock] {
      clock.Sleep(10 * kMilli);
      return Status::Ok();
    });
  }
  const Nanos start = clock.Now();
  pool.RunAll(std::move(tasks));
  // 8 tasks of 10 ms over 2 virtual workers: 4 rounds.
  EXPECT_EQ(clock.Now() - start, 40 * kMilli);
}

TEST(FanoutPoolTest, StatusesKeepTaskOrder) {
  VirtualClock clock;
  FanoutPool pool(clock, /*width=*/4);
  std::vector<FanoutPool::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([i] {
      return i % 2 == 0 ? Status::Ok() : TimeoutError("task " + std::to_string(i));
    });
  }
  auto statuses = pool.RunAll(std::move(tasks));
  ASSERT_EQ(statuses.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(statuses[i].ok(), i % 2 == 0) << i;
  }
}

TEST(FanoutPoolTest, RealClockRunsTasksOnBoundedThreads) {
  FanoutPool pool(SystemClock::Instance(), /*width=*/4);
  std::atomic<int> ran{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<FanoutPool::Task> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      in_flight.fetch_sub(1);
      ran.fetch_add(1);
      return Status::Ok();
    });
  }
  auto statuses = pool.RunAll(std::move(tasks));
  EXPECT_EQ(ran.load(), 32);
  EXPECT_LE(max_in_flight.load(), 4);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok());
}

// ---------------------------------------------------------------------------
// Simulated-network scenarios
// ---------------------------------------------------------------------------

// Provider "hub" plus a writer and N holder devices on the paper's LAN.
class FanoutSimTest : public ::testing::Test {
 protected:
  void AddSite(const std::string& name, SiteId id) {
    auto site = std::make_unique<core::Site>(
        id, network_->CreateEndpoint(name), clock_);
    ASSERT_TRUE(site->Start().ok());
    site->UseRegistry("hub");
    sites_.emplace(name, std::move(site));
  }

  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::kPaperLan);
    hub_ = std::make_unique<core::Site>(1, network_->CreateEndpoint("hub"),
                                        clock_);
    ASSERT_TRUE(hub_->Start().ok());
    hub_->HostRegistry();
  }

  core::Site& site(const std::string& name) { return *sites_.at(name); }

  // Replicate `name`'s binding on the given site and return the Ref.
  core::Ref<Node> Replicate(const std::string& site_name,
                            const std::string& binding, std::uint32_t count = 1) {
    auto remote = site(site_name).Lookup<Node>(binding);
    EXPECT_TRUE(remote.ok()) << remote.status();
    auto ref = remote->Replicate(ReplicationMode::Incremental(count));
    EXPECT_TRUE(ref.ok()) << ref.status();
    return *ref;
  }

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> hub_;
  std::map<std::string, std::unique_ptr<core::Site>> sites_;
};

// The tentpole latency claim: with several of 8 holders unreachable, a put
// completes within ~one notification deadline — not one per dead holder.
TEST_F(FanoutSimTest, PutLatencyBoundedByOneDeadlineUnderPartialDisconnection) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  hub_->SetRequestDeadline(1 * kSecond);
  // Isolate the latency claim from the lifecycle machinery: never drop
  // holders, never queue retries.
  hub_->SetHolderFailureThreshold(0);
  hub_->SetNotifyRetryPolicy({.max_attempts = 1});

  auto obj = std::make_shared<Node>();
  obj->payload.resize(64);
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());

  AddSite("writer", 2);
  for (int i = 0; i < 8; ++i) AddSite("h" + std::to_string(i), 10 + i);

  auto writer_ref = Replicate("writer", "obj");
  std::vector<core::Ref<Node>> holder_refs;
  for (int i = 0; i < 8; ++i) {
    holder_refs.push_back(Replicate("h" + std::to_string(i), "obj"));
  }

  // Three holders fall into a black hole: the link stays up but nothing
  // arrives within the notification deadline.
  for (int i = 0; i < 3; ++i) {
    network_->SetLinkParams("hub", "h" + std::to_string(i),
                            net::LinkParams{.latency = 10 * kSecond});
  }

  writer_ref.get()->SetValue(42);
  Nanos start = clock_.Now();
  ASSERT_TRUE(site("writer").Put(writer_ref).ok());
  const Nanos parallel_elapsed = clock_.Now() - start;
  // 3 concurrent timeouts of 1 s + 5 fast notifications ≈ one deadline.
  EXPECT_GE(parallel_elapsed, 1 * kSecond);
  EXPECT_LT(parallel_elapsed, 3 * kSecond / 2) << "fanout did not parallelize";

  // Control: the sequential behaviour this PR replaces pays one deadline
  // *per* dead holder.
  hub_->SetNotifyFanout(1);
  writer_ref.get()->SetValue(43);
  start = clock_.Now();
  ASSERT_TRUE(site("writer").Put(writer_ref).ok());
  const Nanos sequential_elapsed = clock_.Now() - start;
  EXPECT_GE(sequential_elapsed, 29 * kSecond / 10);

  // Live holders converged despite the black holes.
  EXPECT_EQ(*site("h5").ReplicaVersion(holder_refs[5]), 3u);
}

TEST_F(FanoutSimTest, HolderDroppedAfterThresholdAndReRegisteredOnGet) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());
  const ObjectId oid = hub_->Export(obj);

  AddSite("h1", 2);
  AddSite("h2", 3);
  auto ref1 = Replicate("h1", "obj");
  auto ref2 = Replicate("h2", "obj");

  network_->SetEndpointUp("h2", false);

  // Default threshold is 3 consecutive failures.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  }
  EXPECT_EQ(hub_->stats().holders_dropped, 1u);
  EXPECT_EQ(hub_->pending_notify_retries(), 0u)  // purged with the holder
      << "dropped holder left retries behind";

  // Updates no longer pay for the dead holder: exactly one notification
  // (to h1) per update.
  const std::uint64_t sent_before = hub_->stats().invalidations_sent;
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(hub_->stats().invalidations_sent - sent_before, 1u);

  // The device comes back and re-syncs: its next get re-registers it.
  network_->SetEndpointUp("h2", true);
  ASSERT_TRUE(site("h2").Refresh(ref2).ok());
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(*site("h2").ReplicaVersion(ref2), *hub_->MasterVersion(oid));
  EXPECT_EQ(*site("h1").ReplicaVersion(ref1), *hub_->MasterVersion(oid));
  EXPECT_EQ(hub_->stats().holders_dropped, 1u);
}

TEST_F(FanoutSimTest, QueuedNotificationRetriesDeliverAfterReconnect) {
  hub_->SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());

  AddSite("laptop", 2);
  AddSite("pda", 3);
  auto laptop_ref = Replicate("laptop", "obj");
  auto pda_ref = Replicate("pda", "obj");

  network_->SetEndpointUp("pda", false);
  laptop_ref.get()->SetValue(7);
  ASSERT_TRUE(site("laptop").Put(laptop_ref).ok());

  // The invalidation to the disconnected pda failed and was queued.
  EXPECT_EQ(hub_->pending_notify_retries(), 1u);
  EXPECT_FALSE(site("pda").IsStale(pda_ref));  // it never heard

  network_->SetEndpointUp("pda", true);
  clock_.Sleep(200 * kMilli);  // past the initial retry backoff
  EXPECT_EQ(hub_->PumpNotifyRetries(), 1u);
  EXPECT_TRUE(site("pda").IsStale(pda_ref));
  EXPECT_GE(hub_->stats().notify_retries, 1u);
  EXPECT_EQ(hub_->pending_notify_retries(), 0u);
}

TEST_F(FanoutSimTest, ResyncDaemonConvergesStaleReplicaOnLinkUp) {
  hub_->SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());

  AddSite("laptop", 2);
  AddSite("pda", 3);
  auto laptop_ref = Replicate("laptop", "obj");
  auto pda_ref = Replicate("pda", "obj");

  ResyncDaemon daemon(site("pda"));

  // The pda hears the invalidation, but the provider goes unreachable
  // before it can refresh.
  laptop_ref.get()->SetValue(1);
  ASSERT_TRUE(site("laptop").Put(laptop_ref).ok());
  EXPECT_TRUE(site("pda").IsStale(pda_ref));
  EXPECT_EQ(daemon.pending(), 1u);

  network_->SetLinkUp("hub", "pda", false);
  EXPECT_EQ(daemon.PumpOnce(), 0u);  // refresh failed; backoff scheduled
  EXPECT_EQ(daemon.pending(), 1u);
  EXPECT_EQ(daemon.PumpOnce(), 0u);  // still inside the backoff window

  // Link restored: the next pump inside the backoff window does nothing,
  // then the deadline passes and the daemon converges the replica.
  network_->SetLinkUp("hub", "pda", true);
  clock_.Sleep(600 * kMilli);
  EXPECT_EQ(daemon.PumpOnce(), 1u);
  EXPECT_FALSE(site("pda").IsStale(pda_ref));
  EXPECT_EQ(*site("pda").ReplicaVersion(pda_ref), *hub_->MasterVersion(hub_->Export(obj)));
  EXPECT_EQ(daemon.pending(), 0u);
  EXPECT_EQ(daemon.refreshed_total(), 1u);
}

TEST_F(FanoutSimTest, ResyncDaemonPicksUpPreexistingStaleSet) {
  hub_->SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());

  AddSite("laptop", 2);
  AddSite("pda", 3);
  auto laptop_ref = Replicate("laptop", "obj");
  auto pda_ref = Replicate("pda", "obj");

  // Stale before any daemon exists (e.g. restored from a snapshot).
  laptop_ref.get()->SetValue(5);
  ASSERT_TRUE(site("laptop").Put(laptop_ref).ok());
  ASSERT_TRUE(site("pda").IsStale(pda_ref));

  ResyncDaemon daemon(site("pda"));
  EXPECT_EQ(daemon.PumpOnce(), 1u);  // merged from Site::StaleReplicaIds
  EXPECT_FALSE(site("pda").IsStale(pda_ref));
}

// ---------------------------------------------------------------------------
// Satellite bugfix regressions
// ---------------------------------------------------------------------------

// 1. ServeRelease: releasing the last pin for an object must also remove
// the demander from the master's holders list — released sites must not
// receive (or stall puts with) notifications forever.
TEST_F(FanoutSimTest, ReleaseRemovesHolderRegistration) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());
  const ObjectId oid = hub_->Export(obj);

  AddSite("pda", 2);
  auto ref = Replicate("pda", "obj");
  auto provider = site("pda").ReplicaProvider(oid);
  ASSERT_TRUE(provider.ok());
  ASSERT_TRUE(site("pda").ReleaseProxy(*provider).ok());

  // The released (and now unreachable) demander costs the writer nothing.
  network_->SetEndpointUp("pda", false);
  const std::uint64_t sent_before = hub_->stats().invalidations_sent;
  const Nanos start = clock_.Now();
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(clock_.Now() - start, 0);  // no notification attempted
  EXPECT_EQ(hub_->stats().invalidations_sent, sent_before);

  auto report = hub_->Inspect();
  for (const auto& row : report.objects) {
    if (row.id == oid) {
      EXPECT_EQ(row.holders, 0u);
    }
  }
}

// A release through a *shared* pin only unregisters the releasing site.
TEST_F(FanoutSimTest, SharedPinReleaseKeepsOtherHolders) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());
  const ObjectId oid = hub_->Export(obj);

  AddSite("h1", 2);
  AddSite("h2", 3);
  auto ref1 = Replicate("h1", "obj");
  auto ref2 = Replicate("h2", "obj");

  // Both demanders share the per-target pin; h1's release must not tear it
  // down under h2.
  auto provider = site("h1").ReplicaProvider(oid);
  ASSERT_TRUE(provider.ok());
  ASSERT_TRUE(site("h1").ReleaseProxy(*provider).ok());

  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(*site("h2").ReplicaVersion(ref2), *hub_->MasterVersion(oid));
  ASSERT_TRUE(site("h2").Refresh(ref2).ok());  // the pin still serves
}

// A pushed record's boundary pin is shared by all of its recipients, so
// every recipient must be registered on it: one holder's release must not
// tear the pin down under another that has yet to fault through it.
TEST_F(FanoutSimTest, PushedBoundaryPinServesEveryRecipient) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto head = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("head", head).ok());
  const ObjectId oid = hub_->Export(head);

  AddSite("h1", 2);
  AddSite("h2", 3);
  auto ref1 = Replicate("h1", "head");
  auto ref2 = Replicate("h2", "head");

  // Link a tail no holder has fetched: the push carries it as a pin.
  auto tail = std::make_shared<Node>();
  tail->label = "tail";
  head->next = tail;
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  ASSERT_TRUE(ref1.get()->next.IsProxy());
  ASSERT_TRUE(ref2.get()->next.IsProxy());

  ASSERT_TRUE(
      site("h1").ReleaseProxy(ref1.get()->next.proxy()->descriptor()).ok());
  ASSERT_TRUE(ref2.get()->next.Demand().ok());
  EXPECT_EQ(ref2.get()->next.get()->label, "tail");
}

// 2. BuildPushRecord: repeated pushes must reuse boundary pins and build
// the record once per fanout — provider pin tables must not grow.
TEST_F(FanoutSimTest, RepeatedPushesKeepPinTableStable) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto chain = test::MakeChain(2, 64, "n");  // A -> B: the record carries a
  ASSERT_TRUE(hub_->Bind("chain", chain).ok());  // boundary pin for B
  const ObjectId oid = hub_->Export(chain);

  AddSite("h1", 2);
  AddSite("h2", 3);
  Replicate("h1", "chain");
  Replicate("h2", "chain");

  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  const std::size_t pins_after_first = hub_->proxy_in_count();
  const std::uint64_t created_after_first = hub_->stats().proxy_ins_created;
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(hub_->proxy_in_count(), pins_after_first);
  EXPECT_EQ(hub_->stats().proxy_ins_created, created_after_first);
}

// 3. (PR 8) Retry backoff must carry forward across requeues. The old code
// re-derived the exponential schedule from the policy's initial_backoff on
// every requeue — O(attempts) per failure, and a SetNotifyRetryPolicy call
// mid-flight silently rewrote the schedule of already-queued notifications.
// Now the queued entry carries its own backoff and just doubles it.
TEST_F(FanoutSimTest, RetryBackoffCarriesForwardAcrossPolicyMutation) {
  hub_->SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  hub_->SetHolderFailureThreshold(0);  // isolate the schedule from drops
  hub_->SetNotifyRetryPolicy({.initial_backoff = 100 * kMilli,
                              .max_backoff = 10 * kSecond,
                              .max_attempts = 8});
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());

  AddSite("laptop", 2);
  AddSite("pda", 3);
  auto laptop_ref = Replicate("laptop", "obj");
  auto pda_ref = Replicate("pda", "obj");

  // First failure: queued with the 100 ms initial backoff.
  network_->SetEndpointUp("pda", false);
  laptop_ref.get()->SetValue(7);
  ASSERT_TRUE(site("laptop").Put(laptop_ref).ok());
  ASSERT_EQ(hub_->pending_notify_retries(), 1u);

  // Shrink the policy while the notification is in flight. The queued
  // entry's schedule must not be affected: its next backoff is
  // 2 × 100 ms, not the new initial.
  hub_->SetNotifyRetryPolicy({.initial_backoff = 1 * kMilli,
                              .max_backoff = 10 * kSecond,
                              .max_attempts = 8});

  clock_.Sleep(110 * kMilli);
  EXPECT_EQ(hub_->PumpNotifyRetries(), 1u);  // second failure, requeued
  ASSERT_EQ(hub_->pending_notify_retries(), 1u);

  // 50 ms < the carried-forward 200 ms: nothing is due. The old
  // re-derivation made this entry due after 2 x the *new* 1 ms initial.
  clock_.Sleep(50 * kMilli);
  EXPECT_EQ(hub_->PumpNotifyRetries(), 0u)
      << "requeue re-derived its backoff from the mutated policy";

  // Past 200 ms the retry goes out and (pda back up) delivers.
  network_->SetEndpointUp("pda", true);
  clock_.Sleep(160 * kMilli);
  EXPECT_EQ(hub_->PumpNotifyRetries(), 1u);
  EXPECT_TRUE(site("pda").IsStale(pda_ref));
  EXPECT_EQ(hub_->pending_notify_retries(), 0u);
}

// A retried (frozen) push from an old version must never regress a replica
// that has since seen newer state.
TEST_F(FanoutSimTest, StalePushIsIgnored) {
  hub_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(hub_->Bind("obj", obj).ok());
  const ObjectId oid = hub_->Export(obj);

  AddSite("h1", 2);
  AddSite("h2", 3);
  Replicate("h1", "obj");
  auto ref2 = Replicate("h2", "obj");

  // v2's push to h2 fails and is queued with the v2 record frozen inside.
  network_->SetEndpointUp("h2", false);
  obj->value = 2;
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  ASSERT_EQ(hub_->pending_notify_retries(), 1u);

  // h2 reconnects and receives v3 live.
  network_->SetEndpointUp("h2", true);
  obj->value = 3;
  ASSERT_TRUE(hub_->MarkMasterUpdated(oid).ok());
  ASSERT_EQ(*site("h2").ReplicaVersion(ref2), 3u);
  ASSERT_EQ(ref2.get()->value, 3);

  // The frozen v2 retry finally goes out — and must be a no-op at h2.
  clock_.Sleep(200 * kMilli);
  EXPECT_EQ(hub_->PumpNotifyRetries(), 1u);
  EXPECT_EQ(*site("h2").ReplicaVersion(ref2), 3u);
  EXPECT_EQ(ref2.get()->value, 3);
}

// ---------------------------------------------------------------------------
// Real-socket soak (runs under TSan in tools/ci.sh)
// ---------------------------------------------------------------------------

// Concurrent writers against one provider: puts race, each put's fanout
// dispatches pushes on the bounded thread pool, and every holder converges.
TEST(FanoutTcp, ConcurrentPutsFanOutToAllHolders) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  provider.SetConsistencyPolicy(std::make_unique<PushUpdates>());

  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("obj", obj).ok());
  const ObjectId oid = provider.Export(obj);

  constexpr int kDemanders = 3;
  constexpr int kPutsPerWriter = 8;
  std::vector<std::unique_ptr<core::Site>> demanders;
  std::vector<core::Ref<Node>> refs;
  for (int i = 0; i < kDemanders; ++i) {
    auto transport = net::TcpTransport::Create(0);
    ASSERT_TRUE(transport.ok());
    auto site = std::make_unique<core::Site>(10 + i, std::move(*transport));
    ASSERT_TRUE(site->Start().ok());
    site->UseRegistry(provider.address());
    auto remote = site->Lookup<Node>("obj");
    ASSERT_TRUE(remote.ok()) << remote.status();
    auto ref = remote->Replicate(ReplicationMode::Incremental(1));
    ASSERT_TRUE(ref.ok()) << ref.status();
    refs.push_back(*ref);
    demanders.push_back(std::move(site));
  }

  std::atomic<int> failures{0};
  auto writer = [&](int idx) {
    for (int i = 0; i < kPutsPerWriter; ++i) {
      // The other writer's puts fan back out as pushes into this replica, so
      // local mutation must synchronize with push application.
      demanders[idx]->WithSiteLock(
          [&] { refs[idx].get()->value = idx * 100 + i; });
      if (!demanders[idx]->Put(refs[idx]).ok()) failures.fetch_add(1);
    }
  };
  std::thread w0(writer, 0), w1(writer, 1);
  w0.join();
  w1.join();

  EXPECT_EQ(failures.load(), 0);
  auto version = provider.MasterVersion(oid);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u + 2 * kPutsPerWriter);
  // The non-writing holder was pushed every accepted update.
  auto v2 = demanders[2]->ReplicaVersion(refs[2]);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, *version);

  for (auto& site : demanders) site->Stop();
  provider.Stop();
}

// 2. (PR 8) Dropping an unreachable holder must be atomic with respect to
// re-registration. The old code decided to drop inside the failure loop and
// erased health before sweeping the holders lists; a get that re-registered
// the holder in between was silently wiped, leaving a live demander that
// never heard another update. Now the drop re-checks the failure count
// under the world guard + site mutex and aborts if a get healed the holder
// meanwhile. Threshold 1 + a request deadline that is already expired makes
// every notification fail, so drops race the re-registration loop as hard
// as possible; TSan (tools/ci.sh) checks the locking, the final sequence
// checks the holder is functional after a real drop.
TEST(FanoutTcp, DropRacesReRegistrationWithoutWipingLiveHolder) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());
  provider.SetHolderFailureThreshold(1);  // any failure is a drop decision

  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("obj", obj).ok());
  const ObjectId oid = provider.Export(obj);

  auto demander_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(demander_transport.ok());
  core::Site demander(2, std::move(*demander_transport));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry(provider.address());
  auto remote = demander.Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok()) << ref.status();

  // An already-expired outgoing deadline makes every notification from the
  // provider fail before it touches the wire.
  provider.SetRequestDeadline(1);

  std::thread dropper([&] {
    for (int i = 0; i < 24; ++i) {
      (void)provider.MarkMasterUpdated(oid);  // fail -> drop decision
    }
  });
  std::thread registrar([&] {
    for (int i = 0; i < 24; ++i) {
      (void)demander.Refresh(*ref);  // get -> re-register + heal
    }
  });
  dropper.join();
  registrar.join();

  EXPECT_GE(provider.stats().holders_dropped, 1u);
  EXPECT_EQ(provider.pending_notify_retries(), 0u)
      << "drop left retries behind";

  // Back to a sane deadline: one refresh re-registers, and the next update
  // must actually reach the holder — a drop that swept a re-registered
  // holder's rows would leave this invalidation undelivered.
  provider.SetRequestDeadline(0);
  ASSERT_TRUE(demander.Refresh(*ref).ok());
  ASSERT_TRUE(provider.MarkMasterUpdated(oid).ok());
  EXPECT_TRUE(demander.IsStale(*ref));
  ASSERT_TRUE(demander.Refresh(*ref).ok());
  EXPECT_EQ(*demander.ReplicaVersion(*ref), *provider.MasterVersion(oid));

  demander.Stop();
  provider.Stop();
}

// The resync daemon's background worker converges a stale replica over real
// sockets, with Start/Stop racing live invalidation traffic.
TEST(FanoutTcp, ResyncDaemonBackgroundWorkerConverges) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());

  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("obj", obj).ok());
  provider.Export(obj);

  auto demander_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(demander_transport.ok());
  core::Site demander(2, std::move(*demander_transport));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry(provider.address());
  auto remote = demander.Lookup<Node>("obj");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok()) << ref.status();

  // Updates go through a writer site's Put so the master's fields are only
  // ever touched under the provider's site mutex — mutating `obj` directly
  // here would race the daemon-triggered ServeGet on the provider's TCP
  // thread.
  auto writer_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(writer_transport.ok());
  core::Site writer(3, std::move(*writer_transport));
  ASSERT_TRUE(writer.Start().ok());
  writer.UseRegistry(provider.address());
  auto writer_remote = writer.Lookup<Node>("obj");
  ASSERT_TRUE(writer_remote.ok()) << writer_remote.status();
  auto writer_ref = writer_remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(writer_ref.ok()) << writer_ref.status();

  ResyncDaemon daemon(demander,
                      {.initial_backoff = 5 * kMilli,
                       .max_backoff = 100 * kMilli,
                       .poll_interval = 10 * kMilli});
  daemon.Start();

  constexpr int kUpdates = 5;
  for (int i = 1; i <= kUpdates; ++i) {
    writer_ref->get()->value = i;
    ASSERT_TRUE(writer.Put(*writer_ref).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // The daemon should drain the stale set without any application help.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto version = demander.ReplicaVersion(*ref);
    if (version.ok() && *version == 1u + kUpdates && !demander.IsStale(*ref)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  daemon.Stop();

  EXPECT_FALSE(demander.IsStale(*ref));
  auto version = demander.ReplicaVersion(*ref);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u + kUpdates);
  EXPECT_GE(daemon.refreshed_total(), 1u);

  writer.Stop();
  demander.Stop();
  provider.Stop();
}

}  // namespace
}  // namespace obiwan
