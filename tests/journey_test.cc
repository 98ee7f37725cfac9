// Per-update dissemination journeys: every hop of put -> notify -> wire ->
// apply -> ack stamped deterministically on the virtual clock, folded into
// ttfr / convergence / per-hop histograms, and driving the multi-window SLO
// burn-rate alert (fires under sustained breach, clears once the fast window
// drains).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obiwan.h"
#include "obs/journey.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::PushUpdates;
using core::ReplicationMode;
using test::Node;

// Provider + one holder on the paper's LAN, with a journey tracker attached
// to each side.
class JourneySimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::kPaperLan);
    provider_ = std::make_unique<core::Site>(
        1, network_->CreateEndpoint("prov"), clock_);
    holder_ = std::make_unique<core::Site>(
        2, network_->CreateEndpoint("hold"), clock_);
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(holder_->Start().ok());
    provider_->HostRegistry();
    holder_->UseRegistry("prov");

    provider_tracker_ = std::make_unique<obs::JourneyTracker>(clock_, 1);
    holder_tracker_ = std::make_unique<obs::JourneyTracker>(clock_, 2);
    provider_->SetJourneySink(provider_tracker_.get());
    holder_->SetJourneySink(holder_tracker_.get());
  }

  void TearDown() override {
    provider_->SetJourneySink(nullptr);
    holder_->SetJourneySink(nullptr);
  }

  core::Ref<Node> Replicate(const std::string& binding) {
    auto remote = holder_->Lookup<Node>(binding);
    EXPECT_TRUE(remote.ok()) << remote.status();
    auto ref = remote->Replicate(ReplicationMode::Incremental(1));
    EXPECT_TRUE(ref.ok()) << ref.status();
    return *ref;
  }

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> holder_;
  std::unique_ptr<obs::JourneyTracker> provider_tracker_;
  std::unique_ptr<obs::JourneyTracker> holder_tracker_;
};

TEST_F(JourneySimTest, PushJourneyStampsEveryHop) {
  provider_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  const ObjectId oid = provider_->Export(obj);
  auto ref = Replicate("obj");

  obj->value = 7;
  ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());

  // Provider side: the journey completed with every hop stamped in order.
  EXPECT_EQ(provider_tracker_->minted(), 1u);
  EXPECT_EQ(provider_tracker_->completed(), 1u);
  auto journeys = provider_tracker_->Recent(4);
  ASSERT_EQ(journeys.size(), 1u);
  const obs::JourneyView& j = journeys[0];
  EXPECT_EQ(j.id, oid);
  EXPECT_EQ(j.version, 2u);  // replicate-time v1, this update bumped to v2
  EXPECT_TRUE(j.push);
  EXPECT_TRUE(j.complete);
  EXPECT_EQ(j.expected, 1u);
  EXPECT_EQ(j.acked, 1u);
  ASSERT_EQ(j.hops.size(), 1u);
  const obs::JourneyHopView& hop = j.hops[0];
  EXPECT_EQ(hop.holder, "hold");
  EXPECT_TRUE(hop.acked);
  ASSERT_GE(j.put_commit, 0);
  EXPECT_GE(hop.enqueue, j.put_commit);
  EXPECT_GE(hop.send, hop.enqueue);
  EXPECT_GT(hop.ack, hop.send);  // the simulated wire has real latency
  // With a single recipient, ttfr == convergence == commit-to-ack exactly.
  EXPECT_EQ(j.ttfr, hop.ack - j.put_commit);
  EXPECT_EQ(j.convergence, j.ttfr);

  // Holder side: the push was received and applied at the same version.
  auto applied = holder_tracker_->Recent(4);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].id, oid);
  EXPECT_EQ(applied[0].version, 2u);
  EXPECT_TRUE(applied[0].push);
  ASSERT_GE(applied[0].receive, 0);
  EXPECT_GE(applied[0].apply, applied[0].receive);
  EXPECT_TRUE(applied[0].complete);
  EXPECT_EQ(ref.get()->value, 7);
}

TEST_F(JourneySimTest, TimingsAreDeterministicOnTheVirtualClock) {
  provider_->SetConsistencyPolicy(std::make_unique<PushUpdates>());
  auto obj = std::make_shared<Node>();
  obj->payload.resize(64);
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  const ObjectId oid = provider_->Export(obj);
  (void)Replicate("obj");

  // Two identical updates over the simulated network: identical per-journey
  // latency, nanosecond for nanosecond — the whole point of measuring on the
  // virtual clock instead of polling.
  obj->value = 1;
  ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());
  obj->value = 2;
  ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());

  auto journeys = provider_tracker_->Recent(4);
  ASSERT_EQ(journeys.size(), 2u);
  EXPECT_GT(journeys[0].version, journeys[1].version);  // newest first
  EXPECT_GT(journeys[0].convergence, 0);
  EXPECT_EQ(journeys[0].convergence, journeys[1].convergence);
  EXPECT_EQ(journeys[0].ttfr, journeys[1].ttfr);
}

TEST_F(JourneySimTest, InvalidateJourneyAppliesOnRefresh) {
  provider_->SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());
  // Both refresh entry points close the apply hop: the resync daemon's
  // RefreshReplica(id) and an application's Refresh(ref).
  for (const bool by_ref : {false, true}) {
    SCOPED_TRACE(by_ref ? "Refresh(ref)" : "RefreshReplica(id)");
    const std::string name = by_ref ? "by_ref" : "by_id";
    auto obj = std::make_shared<Node>();
    ASSERT_TRUE(provider_->Bind(name, obj).ok());
    const ObjectId oid = provider_->Export(obj);
    auto ref = Replicate(name);
    auto journeys_of_obj = [&] {
      std::vector<obs::JourneyView> mine;
      for (const obs::JourneyView& j : holder_tracker_->Recent(8)) {
        if (j.id == oid) mine.push_back(j);
      }
      return mine;
    };

    obj->value = 9;
    ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());

    // The invalidation was received but the replica has not caught up yet:
    // the apply hop is still open.
    auto pending = journeys_of_obj();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_FALSE(pending[0].push);
    ASSERT_GE(pending[0].receive, 0);
    EXPECT_LT(pending[0].apply, 0);

    // Refresh closes it: apply stamped at the refreshed version.
    ASSERT_TRUE(
        (by_ref ? holder_->Refresh(ref) : holder_->RefreshReplica(oid)).ok());
    auto applied = journeys_of_obj();
    ASSERT_EQ(applied.size(), 1u);
    EXPECT_EQ(applied[0].version, 2u);
    EXPECT_GT(applied[0].apply, applied[0].receive);
    EXPECT_TRUE(applied[0].complete);
    EXPECT_EQ(ref.get()->value, 9);
  }
}

TEST_F(JourneySimTest, SupersededRetryCountsOnceAndKeepsNewestVersion) {
  provider_->SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());
  provider_->SetHolderFailureThreshold(0);  // never drop the holder
  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(provider_->Bind("obj", obj).ok());
  const ObjectId oid = provider_->Export(obj);
  (void)Replicate("obj");

  // Two failed notifications to the same dead holder: the second coalesces
  // onto the queued first instead of deepening the retry queue.
  network_->SetEndpointUp("hold", false);
  obj->value = 1;
  ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());
  ASSERT_EQ(provider_->pending_notify_retries(), 1u);
  obj->value = 2;
  ASSERT_TRUE(provider_->MarkMasterUpdated(oid).ok());
  EXPECT_EQ(provider_->pending_notify_retries(), 1u);
  EXPECT_EQ(provider_->telemetry().notify_superseded->Value(), 1u);
  EXPECT_GE(MetricsRegistry::Default().SumCounters(
                "obiwan_notify_superseded_total"),
            1u);
}

// ---------------------------------------------------------------------------
// Burn-rate alerting (tracker driven directly, no sites)
// ---------------------------------------------------------------------------

class BurnRateTest : public ::testing::Test {
 protected:
  BurnRateTest() {
    options_.slo_convergence = 10 * kMilli;
    options_.slo_budget = 0.01;
    options_.burn_threshold = 14.4;
    tracker_ = std::make_unique<obs::JourneyTracker>(clock_, 7, options_);
  }

  // One single-recipient journey that converges in `latency`.
  void Complete(std::uint64_t version, Nanos latency) {
    const ObjectId id{7, 1};
    const Nanos start = clock_.Now();
    tracker_->OnPutCommit(id, version, start, 1, false, TraceId{7, version});
    tracker_->OnNotifyEnqueue(id, version, "dev", start);
    tracker_->OnWireSend(id, version, "dev", start);
    clock_.Sleep(latency);
    tracker_->OnAckReturn(id, version, "dev", clock_.Now(), true);
  }

  VirtualClock clock_;
  obs::JourneyOptions options_;
  std::unique_ptr<obs::JourneyTracker> tracker_;
  std::uint64_t next_version_ = 1;
};

TEST_F(BurnRateTest, FiresUnderSustainedBreachAndClearsAfterRecovery) {
  EXPECT_FALSE(tracker_->EvaluateAlerts().firing);  // no traffic, no page

  // Sustained breach: every journey blows the 10 ms SLO.
  for (int i = 0; i < 20; ++i) Complete(next_version_++, 50 * kMilli);
  obs::JourneyAlert alert = tracker_->EvaluateAlerts();
  EXPECT_TRUE(alert.firing);
  EXPECT_EQ(alert.fast.total, 20u);
  EXPECT_EQ(alert.fast.bad, 20u);
  // All-bad traffic burns (1.0 / 0.01) = 100x the sustainable rate.
  EXPECT_DOUBLE_EQ(alert.fast.burn_rate, 100.0);
  EXPECT_GE(alert.slow.burn_rate, options_.burn_threshold);
  EXPECT_NE(tracker_->AlertsJson().find("\"state\":\"firing\""),
            std::string::npos);
  EXPECT_GE(tracker_->WindowConvergenceP99(), 50 * kMilli);

  // Recovery: the bad events age out of the fast window while healthy
  // journeys land. The slow window still remembers the breach, but paging
  // requires BOTH windows to burn — the alert clears.
  clock_.Sleep(options_.fast_window + 1 * kSecond);
  for (int i = 0; i < 20; ++i) Complete(next_version_++, 1 * kMilli);
  alert = tracker_->EvaluateAlerts();
  EXPECT_FALSE(alert.firing);
  EXPECT_EQ(alert.fast.bad, 0u);
  EXPECT_DOUBLE_EQ(alert.fast.burn_rate, 0.0);
  EXPECT_GT(alert.slow.bad, 0u);
  EXPECT_NE(tracker_->AlertsJson().find("\"state\":\"ok\""),
            std::string::npos);
  EXPECT_LT(tracker_->WindowConvergenceP99(), 10 * kMilli);
}

TEST_F(BurnRateTest, SlowWindowAloneDoesNotPage) {
  // A short burst of bad journeys, then silence past the fast window: the
  // slow window still shows the burn, but a one-off blip must not page.
  for (int i = 0; i < 5; ++i) Complete(next_version_++, 50 * kMilli);
  clock_.Sleep(options_.fast_window + 1 * kSecond);
  const obs::JourneyAlert alert = tracker_->EvaluateAlerts();
  EXPECT_FALSE(alert.firing);
  EXPECT_EQ(alert.fast.total, 0u);
  EXPECT_EQ(alert.slow.bad, 5u);
}

TEST_F(BurnRateTest, EventsAgeOutOfTheSlowWindow) {
  for (int i = 0; i < 3; ++i) Complete(next_version_++, 50 * kMilli);
  clock_.Sleep(options_.slow_window + 1 * kSecond);
  const obs::JourneyAlert alert = tracker_->EvaluateAlerts();
  EXPECT_EQ(alert.slow.total, 0u);
  EXPECT_EQ(alert.fast.total, 0u);
  EXPECT_FALSE(alert.firing);
}

TEST(JourneyTrackerTest, BoundedRingEvictsOldestButKeepsFoldedMetrics) {
  VirtualClock clock;
  obs::JourneyOptions options;
  options.capacity = 8;
  options.stripes = 2;
  obs::JourneyTracker tracker(clock, 3, options);
  const ObjectId id{3, 1};
  for (std::uint64_t v = 1; v <= 50; ++v) {
    const Nanos start = clock.Now();
    tracker.OnPutCommit(id, v, start, 1, false, TraceId{});
    tracker.OnNotifyEnqueue(id, v, "dev", start);
    tracker.OnWireSend(id, v, "dev", start);
    clock.Sleep(1 * kMilli);
    tracker.OnAckReturn(id, v, "dev", clock.Now(), true);
  }
  EXPECT_EQ(tracker.minted(), 50u);
  EXPECT_EQ(tracker.completed(), 50u);  // eviction never loses folded metrics
  const auto recent = tracker.Recent(100);
  EXPECT_LE(recent.size(), options.capacity);
  EXPECT_EQ(recent[0].version, 50u);  // newest survives

  const std::string json = tracker.UpdatesJson(4);
  EXPECT_NE(json.find("\"minted\":50"), std::string::npos);
  EXPECT_NE(json.find("\"convergence_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"slowest\""), std::string::npos);
}

TEST(JourneyTrackerTest, SlowestTailKeepsWorstJourneysWithTraces) {
  VirtualClock clock;
  obs::JourneyOptions options;
  options.slowest_k = 2;
  obs::JourneyTracker tracker(clock, 4, options);
  const ObjectId id{4, 1};
  const Nanos latencies[] = {5 * kMilli, 90 * kMilli, 20 * kMilli,
                             70 * kMilli};
  std::uint64_t v = 0;
  for (const Nanos latency : latencies) {
    ++v;
    const Nanos start = clock.Now();
    tracker.OnPutCommit(id, v, start, 1, false, TraceId{4, v});
    tracker.OnNotifyEnqueue(id, v, "dev", start);
    tracker.OnWireSend(id, v, "dev", start);
    clock.Sleep(latency);
    tracker.OnAckReturn(id, v, "dev", clock.Now(), true);
  }
  const auto slowest = tracker.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].version, 2u);  // 90 ms
  EXPECT_EQ(slowest[1].version, 4u);  // 70 ms
  EXPECT_TRUE(slowest[0].trace.valid());
  EXPECT_EQ(slowest[0].trace.seq, 2u);
}

}  // namespace
}  // namespace obiwan
