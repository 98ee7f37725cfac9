// JourneyTracker: per-update dissemination ground truth.
//
// FleetMonitor's polled version-lag distribution aliases anything faster
// than its poll period. The journey tracker removes the aliasing: it is a
// core::JourneySink (core/journey.h) that accumulates the hop stamps the
// replication paths emit for every update — put commit, notify enqueue,
// wire send, ack return on the provider; receive and apply on the holder —
// keyed by the (object, version) UpdateId that already travels in every
// invalidation and push body.
//
// Completed journeys fold into:
//   obiwan_update_ttfr_ns          time-to-first-replica (first ack)
//   obiwan_update_convergence_ns   time-to-all-holders (last ack), with a
//                                  tail exemplar carrying the journey's
//                                  TraceId (the flight-recorder link)
//   obiwan_update_hop_ns{hop=queue|wire|apply}   per-hop breakdown
// plus a slowest-K list with trace ids, and a multi-window SLO burn-rate
// evaluator: a journey is "bad" when convergence exceeds the SLO; the alert
// fires while both the fast (5 min) and slow (1 h) windows burn error
// budget faster than the threshold, and clears once the fast window drains
// — the standard page-on-burn-rate discipline, driven by the site's clock
// so virtual-clock tests exercise fire and clear deterministically.
//
// Storage is a bounded ring of journey records behind a striped index, so
// concurrent puts' fanouts and transport threads stamp with sharded locking.
// All methods are internally synchronized; the tracker never calls back
// into the site (see the JourneySink threading contract).
//
// Surfaced via /updates.json and /alerts.json on the admin endpoint
// (http_admin.cc), `obiwan_shell journeys`, and the opt-in /healthz
// convergence budget (AdminOptions::convergence_budget).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/metrics.h"
#include "core/journey.h"
#include "net/transport.h"

namespace obiwan::obs {

struct JourneyOptions {
  // Journey records retained across all stripes; completed and in-flight
  // journeys beyond this evict oldest-first (their folded metrics remain).
  std::size_t capacity = 512;
  std::size_t stripes = 8;
  // Convergence SLO: a journey is bad when time-to-all-holders exceeds it.
  Nanos slo_convergence = 1 * kSecond;
  // Allowed bad fraction (0.01 = 99% of updates converge within the SLO).
  double slo_budget = 0.01;
  Nanos fast_window = 300 * kSecond;   // 5 min
  Nanos slow_window = 3600 * kSecond;  // 1 h
  // Fires while BOTH windows burn budget at >= this multiple of the
  // sustainable rate (14.4 = the classic 5m/1h page threshold).
  double burn_threshold = 14.4;
  std::size_t slowest_k = 5;           // tail journeys retained with traces
  std::size_t max_alert_events = 65536;
};

// One recipient's hop stamps within a provider-side journey (-1 = not yet).
struct JourneyHopView {
  std::string holder;
  Nanos enqueue = -1;
  Nanos send = -1;
  Nanos ack = -1;
  bool acked = false;
};

// Flattened journey record. Provider-side journeys carry put_commit +
// per-recipient hops; holder-side journeys carry receive/apply instead.
struct JourneyView {
  ObjectId id{};
  std::uint64_t version = 0;
  bool push = false;
  TraceId trace{};
  Nanos put_commit = -1;
  Nanos receive = -1;
  Nanos apply = -1;
  std::size_t expected = 0;
  std::size_t acked = 0;
  bool complete = false;
  Nanos ttfr = -1;
  Nanos convergence = -1;
  std::uint64_t seq = 0;  // mint order; larger = more recent
  std::vector<JourneyHopView> hops;
};

struct BurnWindow {
  Nanos window = 0;
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  double burn_rate = 0;  // (bad/total) / slo_budget; 0 when total == 0
};

struct JourneyAlert {
  bool firing = false;
  Nanos now = 0;
  Nanos slo_convergence = 0;
  double burn_threshold = 0;
  BurnWindow fast;
  BurnWindow slow;
};

class JourneyTracker final : public core::JourneySink {
 public:
  JourneyTracker(Clock& clock, SiteId site, JourneyOptions options = {});

  JourneyTracker(const JourneyTracker&) = delete;
  JourneyTracker& operator=(const JourneyTracker&) = delete;

  // core::JourneySink — stamped by the replication paths.
  void OnPutCommit(ObjectId id, std::uint64_t version, Nanos now,
                   std::size_t recipients, bool push, TraceId trace) override;
  void OnNotifyEnqueue(ObjectId id, std::uint64_t version,
                       const net::Address& holder, Nanos now) override;
  void OnWireSend(ObjectId id, std::uint64_t version,
                  const net::Address& holder, Nanos now) override;
  void OnAckReturn(ObjectId id, std::uint64_t version,
                   const net::Address& holder, Nanos now, bool ok) override;
  void OnHolderReceive(ObjectId id, std::uint64_t version, Nanos now,
                       bool push) override;
  void OnReplicaApply(ObjectId id, std::uint64_t version, Nanos now) override;

  // Most recent journeys (newest first), and the slowest completed ones
  // (worst first, each with its TraceId).
  std::vector<JourneyView> Recent(std::size_t n) const;
  std::vector<JourneyView> Slowest() const;

  // One evaluation round on the tracker's clock: prune aged-out events,
  // recompute both windows' burn rates, update the gauges, return the state.
  JourneyAlert EvaluateAlerts();

  // p99 convergence over journeys completed within the fast window; 0 when
  // none. The /healthz convergence budget compares against this.
  Nanos WindowConvergenceP99() const;

  std::uint64_t minted() const { return minted_->Value(); }
  std::uint64_t completed() const { return completed_->Value(); }

  // /updates.json body: counts, ttfr/convergence/per-hop percentiles,
  // recent journeys and the slowest tail.
  std::string UpdatesJson(std::size_t recent = 20);
  // /alerts.json body: the burn-rate evaluation (runs one round).
  std::string AlertsJson();
  // Human-readable summary for `obiwan_shell journeys`.
  std::string ToText(std::size_t recent = 8);

  const JourneyOptions& options() const { return options_; }

 private:
  struct Hop {
    net::Address holder;
    Nanos enqueue = -1;
    Nanos send = -1;
    Nanos ack = -1;
    bool acked = false;
  };
  struct Record {
    ObjectId id{};
    std::uint64_t version = 0;
    bool push = false;
    TraceId trace{};
    Nanos put_commit = -1;
    Nanos receive = -1;
    Nanos apply = -1;
    std::size_t expected = 0;
    std::size_t acked = 0;
    Nanos first_ack = -1;
    Nanos last_ack = -1;
    bool complete = false;
    Nanos ttfr = -1;
    Nanos convergence = -1;
    std::uint64_t seq = 0;
    std::vector<Hop> hops;
  };
  struct Key {
    ObjectId id{};
    std::uint64_t version = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return ObjectIdHash{}(k.id) * 1099511628211ull ^ k.version;
    }
  };
  // Journeys shard by key so fanouts stamping different updates do not
  // serialize. std::deque keeps element pointers stable across
  // push_back/pop_front, so the index can hold Record* directly.
  struct Stripe {
    mutable std::mutex mutex;
    std::deque<Record> ring;
    std::unordered_map<Key, Record*, KeyHash> index;
  };
  struct Event {
    Nanos at = 0;           // completion time (site clock)
    Nanos convergence = 0;
  };

  Stripe& StripeFor(const Key& key) const;
  // Stripe mutex held. Creating evicts oldest-first past the per-stripe cap.
  Record* FindOrCreate(Stripe& stripe, const Key& key);
  Record* Find(Stripe& stripe, const Key& key);
  Hop& HopFor(Record& record, const net::Address& holder);
  // Stripe mutex held; folds ttfr/convergence, alert event, slowest-K.
  void FoldCompleted(const Record& record);
  static JourneyView ViewOf(const Record& record);
  void PruneEventsLocked(Nanos now);

  Clock& clock_;
  SiteId site_;
  JourneyOptions options_;
  std::size_t per_stripe_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> seq_{0};

  // Alert/summary state: completion events inside the slow window plus the
  // slowest-K tail. A leaf lock taken after a stripe mutex, never before.
  mutable std::mutex summary_mutex_;
  std::deque<Event> events_;
  std::vector<JourneyView> slowest_;
  JourneyAlert last_alert_;

  Counter* minted_;      // obiwan_update_journeys_total
  Counter* completed_;   // obiwan_update_journeys_completed_total
  Histogram* ttfr_;      // obiwan_update_ttfr_ns
  Histogram* convergence_;  // obiwan_update_convergence_ns (exemplars on)
  Histogram* hop_queue_;    // obiwan_update_hop_ns{hop=queue}
  Histogram* hop_wire_;     // obiwan_update_hop_ns{hop=wire}
  Histogram* hop_apply_;    // obiwan_update_hop_ns{hop=apply}
  Gauge* burn_fast_;     // obiwan_update_burn_rate_milli{window=fast}
  Gauge* burn_slow_;     // obiwan_update_burn_rate_milli{window=slow}
  Gauge* alert_firing_;  // obiwan_update_alert_firing
};

}  // namespace obiwan::obs
