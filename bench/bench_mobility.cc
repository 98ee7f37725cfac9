// A4 — extension experiment: disconnected operation and prefetching.
//
// The paper's motivation (§1) is qualitative: with replicas colocated, "as
// long as objects needed by an application are colocated, there is no need
// to be connected", and footnote 3 of §2.1 notes that "a perfect mechanism of
// pre-fetching in the background can completely eliminate the latency". This
// bench quantifies both on a wireless link with periodic outages:
//
//   pure-RMI      every access is a remote call; accesses during an outage
//                 fail (lost work).
//   on-demand     incremental replication; faults during an outage fail.
//   prefetch      replicate-ahead before the outage window (PrefetchAll),
//                 then work entirely locally.
//
// A second experiment quantifies the update-fanout path under partial
// disconnection: put latency with one of N holders unreachable (bounded by
// one notification deadline thanks to the parallel fanout), and the time for
// the reconnecting holder to reconverge through the provider's notification
// retry queue plus the demander-side resync daemon.
//
// A third experiment scales the same story to a fleet: 220 devices replicate
// one document, 30 churn offline while updates land, and a FleetMonitor
// (obs/fleet_monitor.h) polls every site throughout — its merged
// convergence-lag distribution peaks during the window and collapses to zero
// after reconnection. Emitted as the "fleet" BENCH JSON section.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "core/resync.h"
#include "harness.h"
#include "obs/journey.h"

namespace obiwan::bench {
namespace {

constexpr int kEntries = 200;
constexpr int kAccessRounds = 600;  // accesses entry i % kEntries
// The link drops for 20 accesses out of every 100 (tunnels, dead zones).
bool LinkUpAt(int access) { return access % 100 < 80; }

struct RunResult {
  double ms;
  int completed;
  int failed;
};

struct Fixture {
  Fixture() : network(clock, net::kPaperWireless) {
    office = std::make_unique<core::Site>(1, network.CreateEndpoint("office"), clock);
    pda = std::make_unique<core::Site>(2, network.CreateEndpoint("pda"), clock);
    (void)office->Start();
    (void)pda->Start();
    office->HostRegistry();
    pda->UseRegistry("office");
    agenda = test::MakeChain(kEntries, 64, "e");
    (void)office->Bind("agenda", agenda);
  }

  void SetLink(int access) { network.SetEndpointUp("pda", LinkUpAt(access)); }

  VirtualClock clock;
  net::SimNetwork network;
  std::unique_ptr<core::Site> office;
  std::unique_ptr<core::Site> pda;
  std::shared_ptr<test::Node> agenda;
};

RunResult RunPureRmi() {
  Fixture f;
  // Pure RMI cannot traverse the list without replicating it, so the master
  // exposes each entry by name (bound once, outside the measured window).
  std::vector<core::RemoteRef<test::Node>> entries;
  std::shared_ptr<test::Node> node = f.agenda;
  for (int i = 0; i < kEntries && node != nullptr; ++i) {
    (void)f.office->Bind("entry" + std::to_string(i), node);
    entries.push_back(*f.pda->Lookup<test::Node>("entry" + std::to_string(i)));
    node = std::static_pointer_cast<test::Node>(node->next.local());
  }
  RunResult result{0, 0, 0};
  Stopwatch sw(f.clock);
  for (int i = 0; i < kAccessRounds; ++i) {
    f.SetLink(i);
    auto r = entries[static_cast<std::size_t>(i) % kEntries].Invoke(&test::Node::Touch);
    if (r.ok()) {
      ++result.completed;
    } else {
      ++result.failed;
    }
  }
  result.ms = sw.ElapsedMs();
  return result;
}

RunResult RunReplicated(bool prefetch) {
  Fixture f;
  auto remote = f.pda->Lookup<test::Node>("agenda");
  RunResult result{0, 0, 0};
  Stopwatch sw(f.clock);
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(20));
  if (prefetch) (void)f.pda->PrefetchAll(*ref);

  // Index the replicated list once; entries still behind proxies resolve (or
  // fail) on access.
  for (int i = 0; i < kAccessRounds; ++i) {
    f.SetLink(i);
    core::Ref<test::Node>* cursor = &*ref;
    bool ok = true;
    for (int hop = 0; hop < i % kEntries; ++hop) {
      if (!cursor->Demand().ok()) {
        ok = false;
        break;
      }
      cursor = &cursor->get()->next;
    }
    if (ok && cursor->Demand().ok()) {
      cursor->get()->Touch();
      ++result.completed;
    } else {
      ++result.failed;
    }
  }
  result.ms = sw.ElapsedMs();
  return result;
}

// Disconnection-reconvergence: returns the "reconvergence" BENCH JSON
// section.
std::string Reconvergence() {
  constexpr int kHolders = 8;
  constexpr int kUpdatesDuringWindow = 3;
  constexpr Nanos kNotifyDeadline = 2 * kSecond;

  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperWireless);
  core::Site office(1, network.CreateEndpoint("office"), clock);
  (void)office.Start();
  office.HostRegistry();
  office.SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  office.SetRequestDeadline(kNotifyDeadline);
  // The experiment measures the retry-queue path; never unregister the
  // disconnected holder.
  office.SetHolderFailureThreshold(0);

  auto agenda = std::make_shared<test::Node>();
  agenda->payload.resize(64);
  (void)office.Bind("agenda", agenda);
  const ObjectId oid = office.Export(agenda);

  std::vector<std::unique_ptr<core::Site>> devices;
  std::vector<core::Ref<test::Node>> refs;
  for (int i = 0; i < kHolders; ++i) {
    const std::string name = "dev" + std::to_string(i);
    auto site = std::make_unique<core::Site>(
        static_cast<SiteId>(10 + i), network.CreateEndpoint(name), clock);
    (void)site->Start();
    site->UseRegistry("office");
    auto remote = site->Lookup<test::Node>("agenda");
    refs.push_back(*remote->Replicate(core::ReplicationMode::Incremental(1)));
    devices.push_back(std::move(site));
  }

  core::Site& writer = *devices.back();
  core::Ref<test::Node>& writer_ref = refs.back();

  // Baseline: everyone reachable.
  writer_ref.get()->SetValue(1);
  Stopwatch all_up(clock);
  (void)writer.Put(writer_ref);
  const double put_ms_all_up = all_up.ElapsedMs();

  // dev0 falls into a black hole: notifications to it burn the full
  // deadline instead of failing fast.
  network.SetLinkParams("office", "dev0",
                        net::LinkParams{.latency = 10 * kNotifyDeadline});
  writer_ref.get()->SetValue(2);
  Stopwatch one_down(clock);
  (void)writer.Put(writer_ref);
  const double put_ms_one_down = one_down.ElapsedMs();

  // More updates land while dev0 is gone; the retry queue keeps (and
  // supersedes) the undelivered invalidation.
  for (int i = 0; i < kUpdatesDuringWindow - 1; ++i) {
    writer_ref.get()->SetValue(3 + i);
    (void)writer.Put(writer_ref);
  }

  // Reconnect: the provider drains its retry queue, the device's resync
  // daemon refreshes the now-stale replica.
  network.SetLinkParams("office", "dev0", net::kPaperWireless);
  core::ResyncDaemon daemon(*devices.front());
  Stopwatch reconverge(clock);
  const std::uint64_t master_version = *office.MasterVersion(oid);
  while (*devices.front()->ReplicaVersion(refs.front()) != master_version) {
    clock.Sleep(100 * kMilli);
    (void)office.PumpNotifyRetries();
    (void)daemon.PumpOnce();
  }
  const double reconverge_ms = reconverge.ElapsedMs();

  std::printf("\n=== disconnection reconvergence (%d holders, 1 down) ===\n",
              kHolders);
  std::printf("put all-up %.3f ms | put one-down %.3f ms (deadline %.0f ms) | "
              "reconverge %.3f ms | resync refreshes %llu\n",
              put_ms_all_up, put_ms_one_down,
              static_cast<double>(kNotifyDeadline) / kMilli, reconverge_ms,
              static_cast<unsigned long long>(daemon.refreshed_total()));

  std::string out = "\"reconvergence\":{";
  out += "\"holders\":" + std::to_string(kHolders);
  out += ",\"disconnected\":1";
  out += ",\"updates_during_window\":" + std::to_string(kUpdatesDuringWindow);
  out += ",\"put_ms_all_up\":" + JsonNumber(put_ms_all_up);
  out += ",\"put_ms_one_down\":" + JsonNumber(put_ms_one_down);
  out += ",\"notify_deadline_ms\":" +
         JsonNumber(static_cast<double>(kNotifyDeadline) / kMilli);
  out += ",\"reconverge_ms\":" + JsonNumber(reconverge_ms);
  out += ",\"resync_refreshes\":" + std::to_string(daemon.refreshed_total());
  out += "}";
  return out;
}

// Fleet-scale convergence under churn: a ≥200-device fleet replicates one
// document; a slice of the fleet churns offline while updates land; after
// reconnection the provider's retry queue plus per-device refreshes drain the
// staleness. A FleetMonitor polls every site over the kInspect plane
// throughout — this experiment is as much a test of the monitor's merge math
// at scale as of the protocol. Returns the "fleet" and "journey" BENCH JSON
// sections: a journey tracker on the master measures per-update convergence
// on the same run, so the polled estimate's aliasing error is quantified
// against ground truth.
std::pair<std::string, std::string> FleetConvergence() {
  constexpr int kSites = 220;
  constexpr int kChurned = 30;
  constexpr int kUpdates = 5;
  constexpr int kMaxConvergeRounds = 50;

  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site office(1, network.CreateEndpoint("office"), clock);
  (void)office.Start();
  office.HostRegistry();
  office.SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  office.SetRequestDeadline(500 * kMilli);
  office.SetNotifyFanout(32);
  // Churned devices must survive the window in the holders list and the
  // retry queue: never drop them, and retry far past the churn window.
  office.SetHolderFailureThreshold(0);
  office.SetNotifyRetryPolicy({.initial_backoff = 100 * kMilli,
                               .max_backoff = 1 * kSecond,
                               .max_attempts = 64,
                               .per_holder_queue = 16});

  // Ground truth for the cross-check: every put on the master mints a
  // journey; its convergence stamp is the actual last-holder-ack time, free
  // of the monitor's poll-period aliasing.
  obs::JourneyTracker journeys(clock, office.id());
  office.SetJourneySink(&journeys);

  auto doc = std::make_shared<test::Node>();
  doc->payload.resize(256);
  (void)office.Bind("doc", doc);
  const ObjectId oid = office.Export(doc);

  std::vector<std::unique_ptr<core::Site>> devices;
  std::vector<core::Ref<test::Node>> refs;
  std::vector<net::Address> targets = {"office"};
  for (int i = 0; i < kSites; ++i) {
    const std::string name = "dev" + std::to_string(i);
    auto site = std::make_unique<core::Site>(
        static_cast<SiteId>(100 + i), network.CreateEndpoint(name), clock);
    (void)site->Start();
    site->UseRegistry("office");
    auto remote = site->Lookup<test::Node>("doc");
    refs.push_back(*remote->Replicate(core::ReplicationMode::Incremental(1)));
    targets.push_back(name);
    devices.push_back(std::move(site));
  }

  // The monitor is its own vantage site, polling everyone else remotely.
  core::Site vantage(99, network.CreateEndpoint("monitor"), clock);
  (void)vantage.Start();
  vantage.SetRequestDeadline(500 * kMilli);
  obs::FleetMonitor monitor(vantage, targets);

  const obs::FleetReport baseline = monitor.PollOnce();

  // Churn: a slice of the fleet drops off the network.
  for (int i = 0; i < kChurned; ++i) {
    network.SetEndpointUp("dev" + std::to_string(i), false);
  }

  // Updates land while they are gone — written by a connected device and
  // reintegrated, so the master's put counters (and the monitor's
  // bytes-per-update figure) move. Invalidations fan out to every holder;
  // the churned slice's queue up for retry.
  core::Site& writer = *devices.back();
  core::Ref<test::Node>& writer_ref = refs.back();
  for (int u = 0; u < kUpdates; ++u) {
    writer_ref.get()->SetValue(10 + u);
    (void)writer.Put(writer_ref);
    clock.Sleep(200 * kMilli);
  }
  const obs::FleetReport peak = monitor.PollOnce();

  // Reconnect and converge: the provider drains its retry queue so the
  // churned slice learns it is stale, every device refreshes its stale
  // replicas, the monitor watches the lag distribution collapse to zero.
  for (int i = 0; i < kChurned; ++i) {
    network.SetEndpointUp("dev" + std::to_string(i), true);
  }
  const std::uint64_t master_version = *office.MasterVersion(oid);
  Stopwatch converge(clock);
  obs::FleetReport report = peak;
  int rounds = 0;
  while (rounds < kMaxConvergeRounds) {
    ++rounds;
    clock.Sleep(500 * kMilli);
    (void)office.PumpNotifyRetries();
    for (auto& device : devices) {
      for (ObjectId id : device->StaleReplicaIds()) {
        (void)device->RefreshReplica(id);
      }
    }
    report = monitor.PollOnce();
    bool all_current = report.lag_versions_max == 0 && report.stale_replicas == 0;
    for (std::size_t i = 0; all_current && i < devices.size(); ++i) {
      all_current = *devices[i]->ReplicaVersion(refs[i]) == master_version;
    }
    if (all_current) break;
  }
  const double converge_ms = converge.ElapsedMs();
  const Nanos polled_current_at = clock.Now();  // first poll that saw lag 0
  office.SetJourneySink(nullptr);

  std::printf("\n=== fleet convergence (%d devices, %d churned, %d updates) ===\n",
              kSites, kChurned, kUpdates);
  std::printf("baseline lag max %llu | peak lag p50=%llu p95=%llu max=%llu, "
              "%llu stale, %zu unreachable\n",
              static_cast<unsigned long long>(baseline.lag_versions_max),
              static_cast<unsigned long long>(peak.lag_versions_p50),
              static_cast<unsigned long long>(peak.lag_versions_p95),
              static_cast<unsigned long long>(peak.lag_versions_max),
              static_cast<unsigned long long>(peak.stale_replicas),
              peak.sites - peak.reachable);
  std::printf("reconverged in %.1f ms over %d polls | %.0f bytes/update at "
              "peak\n",
              converge_ms, rounds, peak.bytes_per_update);

  std::string out = "\"fleet\":{";
  out += "\"sites\":" + std::to_string(kSites);
  out += ",\"churned\":" + std::to_string(kChurned);
  out += ",\"updates\":" + std::to_string(kUpdates);
  out += ",\"updates_observed\":" + std::to_string(peak.updates);
  out += ",\"peak_lag_versions\":{\"p50\":" + std::to_string(peak.lag_versions_p50) +
         ",\"p95\":" + std::to_string(peak.lag_versions_p95) +
         ",\"max\":" + std::to_string(peak.lag_versions_max) + "}";
  out += ",\"peak_stale_replicas\":" + std::to_string(peak.stale_replicas);
  out += ",\"unreachable_at_peak\":" + std::to_string(peak.sites - peak.reachable);
  out += ",\"bytes_per_update_peak\":" + JsonNumber(peak.bytes_per_update);
  out += ",\"converge_ms\":" + JsonNumber(converge_ms);
  out += ",\"converge_polls\":" + std::to_string(rounds);
  out += ",\"final_lag_versions_max\":" + std::to_string(report.lag_versions_max);
  out += ",\"final_stale_replicas\":" + std::to_string(report.stale_replicas);
  out += "}";

  // --- journey cross-check -------------------------------------------------
  // The monitor's convergence estimate comes from 500 ms polls; the journey
  // tracker stamped the actual last-holder ack. Older updates' invalidations
  // were superseded by version in the per-holder retry queue, so the newest
  // journey is the one that fully converged — compare its measured
  // convergence against the polled estimate over the same put-commit
  // baseline and report the difference as the aliasing error.
  std::vector<double> conv_ms;
  std::vector<double> ttfr_ms;
  obs::JourneyView measured{};
  for (const obs::JourneyView& j : journeys.Recent(kUpdates + 2)) {
    if (!j.complete || j.convergence < 0) continue;
    if (measured.convergence < 0) measured = j;  // Recent is newest-first
    conv_ms.push_back(static_cast<double>(j.convergence) / kMilli);
    ttfr_ms.push_back(static_cast<double>(j.ttfr) / kMilli);
  }
  auto pct = [](std::vector<double> v, double p) {
    if (v.empty()) return -1.0;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  const bool have_measured = measured.convergence >= 0;
  const double measured_ms =
      have_measured ? static_cast<double>(measured.convergence) / kMilli : -1;
  const double polled_ms =
      have_measured
          ? static_cast<double>(polled_current_at - measured.put_commit) /
                kMilli
          : -1;
  const obs::JourneyAlert alert = journeys.EvaluateAlerts();
  const std::uint64_t superseded =
      office.telemetry().notify_superseded->Value();

  std::printf("journeys minted %llu, completed %llu, notifies superseded %llu\n",
              static_cast<unsigned long long>(journeys.minted()),
              static_cast<unsigned long long>(journeys.completed()),
              static_cast<unsigned long long>(superseded));
  if (have_measured) {
    std::printf("convergence: journey-measured %.1f ms vs polled %.1f ms "
                "(aliasing error %.1f ms) | burn alert %s\n",
                measured_ms, polled_ms, polled_ms - measured_ms,
                alert.firing ? "FIRING" : "ok");
  }

  std::string journey = "\"journey\":{";
  journey += "\"minted\":" + std::to_string(journeys.minted());
  journey += ",\"completed\":" + std::to_string(journeys.completed());
  journey += ",\"superseded_notifies\":" + std::to_string(superseded);
  journey += ",\"ttfr_ms_p95\":" + JsonNumber(pct(ttfr_ms, 0.95));
  journey += ",\"convergence_ms_p95\":" + JsonNumber(pct(conv_ms, 0.95));
  journey += ",\"measured_convergence_ms\":" + JsonNumber(measured_ms);
  journey += ",\"polled_convergence_ms\":" + JsonNumber(polled_ms);
  journey += ",\"aliasing_error_ms\":" +
             JsonNumber(have_measured ? polled_ms - measured_ms : -1);
  journey += ",\"poll_interval_ms\":500";
  journey += ",\"alert_firing\":";
  journey += alert.firing ? "true" : "false";
  journey += ",\"fast_burn_rate\":" + JsonNumber(alert.fast.burn_rate);
  journey += "}";
  return {out, journey};
}

void PaperSeries() {
  std::printf("=== A4: disconnected operation on a flaky wireless link ===\n");
  std::printf("(%d accesses over a %d-entry agenda; link down 20%% of the time)\n",
              kAccessRounds, kEntries);
  std::printf("%14s %14s %12s %10s\n", "strategy", "time ms", "completed", "failed");
  RunResult rmi = RunPureRmi();
  std::printf("%14s %14.3f %12d %10d\n", "pure-RMI", rmi.ms, rmi.completed, rmi.failed);
  RunResult on_demand = RunReplicated(/*prefetch=*/false);
  std::printf("%14s %14.3f %12d %10d\n", "on-demand", on_demand.ms,
              on_demand.completed, on_demand.failed);
  RunResult prefetch = RunReplicated(/*prefetch=*/true);
  std::printf("%14s %14.3f %12d %10d\n", "prefetch", prefetch.ms,
              prefetch.completed, prefetch.failed);
  std::printf("\nExpected: pure-RMI loses every access made during an outage and "
              "pays a round\ntrip per access; on-demand loses only accesses that "
              "fault during an outage;\nprefetch completes everything and, after "
              "the initial transfer, pays ~zero per access\n(the footnote-3 "
              "claim).\n");

  const std::string reconvergence = Reconvergence();
  const auto [fleet, journey] = FleetConvergence();

  // xs indexes the strategies: 0 pure-RMI, 1 on-demand, 2 prefetch.
  std::vector<Series> series;
  series.push_back({"time_ms", {rmi.ms, on_demand.ms, prefetch.ms}});
  series.push_back({"completed",
                    {static_cast<double>(rmi.completed),
                     static_cast<double>(on_demand.completed),
                     static_cast<double>(prefetch.completed)}});
  series.push_back({"failed",
                    {static_cast<double>(rmi.failed),
                     static_cast<double>(on_demand.failed),
                     static_cast<double>(prefetch.failed)}});
  WriteBenchJson("mobility", "strategy_index", {0, 1, 2}, series,
                 {reconvergence, fleet, journey});
}

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
