// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The paper's evaluation is entirely about measured behaviour (RMI vs. LMI
// latency, incremental vs. transitive-closure replication cost), so the
// reproduction treats per-operation instrumentation as core middleware rather
// than an afterthought. The design splits cost between two phases:
//
//   - Registration (GetCounter/GetGauge/GetHistogram) takes a mutex, interns
//     the (name, labels) pair and returns a stable handle. It happens once,
//     at subsystem construction time.
//   - Updates (Inc/Set/Observe) go through the pre-resolved handle and are
//     single relaxed atomic operations — cheap enough for the RMI hot path.
//
// Exporters (plain text, Prometheus text format, JSON for the bench harness)
// walk the registry under the mutex; they never block updates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/contention.h"
#include "common/ids.h"

namespace obiwan {

// Label set attached to a metric instance, e.g. {{"site", "1"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonic counter.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Instantaneous value (table sizes, queue depths).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-bucket histogram. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; one implicit overflow bucket counts
// v > bounds.back(). Negative observations clamp to the first bucket.
//
// Percentile(p) walks the cumulative distribution to the bucket containing
// rank p*count and interpolates linearly inside it (the first bucket
// interpolates from 0). Ranks landing in the overflow bucket return the
// exact tracked maximum, so p100 == Max() always holds.
class Histogram {
 public:
  // Tail exemplar: one observation at or above the exemplar threshold,
  // stamped with the TraceId/span id that was active on the observing thread
  // — the link from a fat histogram bucket back to the flight-recorder span
  // that produced it. Kept in a small ring (most recent kExemplarSlots);
  // capture is best-effort (skipped when the ring lock is contended or no
  // trace is active) so the hot path never blocks on it.
  static constexpr std::size_t kExemplarSlots = 8;
  struct Exemplar {
    std::int64_t value = 0;
    std::size_t bucket = 0;  // index into BucketCounts()
    TraceId trace;
    std::uint64_t span = 0;  // 0 when no span was open
    std::uint64_t seq = 0;   // capture order; larger = more recent
  };

  // `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<std::int64_t> bounds);

  // Records `weight` observations of `v` at once: a sampled observation
  // standing for the unsampled ones beside it.
  void Observe(std::int64_t v, std::uint64_t weight = 1);

  // Observations >= `threshold` capture an exemplar when a trace is active.
  // Negative disables (the default — exemplars are opt-in per histogram).
  void SetExemplarThreshold(std::int64_t threshold);
  std::int64_t exemplar_threshold() const {
    return exemplar_threshold_.load(std::memory_order_relaxed);
  }
  // Captured exemplars, most recent last. Empty when disabled or none hit.
  std::vector<Exemplar> Exemplars() const;

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Largest observation so far (0 when empty).
  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  // p in [0, 1]. Returns 0 when empty.
  double Percentile(double p) const;
  double P50() const { return Percentile(0.50); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }

  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  // Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> BucketCounts() const;

  void Reset();

 private:
  void MaybeCaptureExemplar(std::int64_t v, std::size_t bucket);

  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};

  std::atomic<std::int64_t> exemplar_threshold_{-1};  // < 0 = disabled
  mutable std::mutex exemplar_mutex_;
  std::array<Exemplar, kExemplarSlots> exemplar_ring_;  // guarded by ^
  std::uint64_t exemplar_count_ = 0;                    // guarded by ^
};

// Shared percentile math over an explicit bucket-count array (`counts` has
// bounds.size() + 1 entries, last = overflow). This is the same walk
// Histogram::Percentile does; exported so windowed consumers (the /healthz
// lock-wait budget) can run it over *delta* counts between two snapshots.
double PercentileFromBucketCounts(const std::vector<std::int64_t>& bounds,
                                  const std::vector<std::uint64_t>& counts,
                                  std::uint64_t total, std::int64_t max,
                                  double p);

// `count` bucket bounds starting at `start`, each `factor` times the last.
std::vector<std::int64_t> ExponentialBuckets(std::int64_t start, double factor,
                                             int count);

// Build identity, baked in by the build system (OBIWAN_VERSION /
// OBIWAN_BUILD_FLAGS compile definitions; "unknown" otherwise).
std::string_view BuildVersion();
std::string_view BuildFlags();

// Default buckets for RPC latencies in nanoseconds: 1 µs .. ~8.6 s, ×2 steps.
const std::vector<std::int64_t>& DefaultLatencyBuckets();

// Merged view over several histogram series of one metric (e.g. the RPC
// latency of every site in the process). Produced by
// MetricsRegistry::SummarizeHistograms.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

// Raw merged buckets of one metric across matching series — the windowed
// consumers' building block (snapshot now, snapshot later, diff the counts,
// run PercentileFromBucketCounts over the delta).
struct MergedHistogram {
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
};

class MetricsRegistry {
 public:
  // Process-wide registry every subsystem registers into by default.
  static MetricsRegistry& Default();

  // The default registry if its construction has (at least) started, nullptr
  // before the first Default() call. BindLockStats identifies the default
  // registry through this instead of Default() because the default registry
  // binds its *own* mutex mid-construction — re-entering the magic static
  // there would throw recursive_init_error.
  static MetricsRegistry* DefaultIfLive();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Intern (name, labels) and return the stable handle; repeated calls with
  // the same identity return the same instance. A name registered under one
  // metric type cannot be re-registered under another — the mismatching call
  // gets a process-wide dummy metric (updates go nowhere) and an error log,
  // never a crash.
  Counter& GetCounter(std::string_view name, MetricLabels labels = {},
                      std::string_view help = "");
  Gauge& GetGauge(std::string_view name, MetricLabels labels = {},
                  std::string_view help = "");
  Histogram& GetHistogram(std::string_view name, MetricLabels labels = {},
                          const std::vector<std::int64_t>& bounds =
                              DefaultLatencyBuckets(),
                          std::string_view help = "");

  // Zero every metric. Handles stay valid; registrations are kept.
  void Reset();

  std::size_t size() const;

  // One line per metric instance: "counter name{labels} value" /
  // "histogram name{labels} count=N p50=... p95=... p99=... max=...".
  std::string DumpText() const;

  // Prometheus text exposition format: # HELP/# TYPE metadata per family,
  // counters normalized to a _total suffix, histograms expanded to native
  // cumulative _bucket{le=...}/_sum/_count series (the percentile summaries
  // stay in the text exporter only — external aggregation recomputes
  // quantiles from the buckets). This is what the HTTP admin endpoint's
  // GET /metrics serves.
  std::string DumpPrometheus() const;

  // Machine-readable dump used by the bench harness:
  // {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string DumpJson() const;

  // Merge every histogram named `name` whose labels contain all of `having`
  // (subset match, so a bench can aggregate over per-site instances by op
  // label alone). Series with bucket bounds differing from the first match
  // are skipped. Returns a zero summary when nothing matches.
  HistogramSummary SummarizeHistograms(std::string_view name,
                                       const MetricLabels& having = {}) const;

  // Sum of every counter named `name` whose labels contain all of `having`.
  std::uint64_t SumCounters(std::string_view name,
                            const MetricLabels& having = {}) const;

  // Sum of every gauge named `name` whose labels contain all of `having`.
  std::int64_t SumGauges(std::string_view name,
                         const MetricLabels& having = {}) const;

  // Raw merged buckets (same matching/skip rules as SummarizeHistograms).
  MergedHistogram MergeHistograms(std::string_view name,
                                  const MetricLabels& having = {}) const;

  // Distinct values of label `key` across every metric named `name`, in
  // first-seen order — how the lock-hotness report enumerates lock sites
  // without a side table.
  std::vector<std::string> LabelValues(std::string_view name,
                                       std::string_view key) const;

  // Monotonic process-wide sequence, used to give per-instance metrics (two
  // sites with the same SiteId in one process) distinct label sets.
  static std::uint64_t NextInstance();

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string label_str;  // canonical '{k="v",...}' form, "" when unlabeled
    MetricLabels labels;
    Type type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* Find(std::string_view name, const std::string& label_str);
  Entry& Register(std::string_view name, MetricLabels labels, Type type,
                  std::string_view help);

  // Instrumented (obiwan_lock_* under name "metrics_registry") for the
  // Default() instance only — binding happens in Default() *after*
  // construction, so registering the lock's own metrics goes through the
  // still-unbound (passthrough) mutex and cannot recurse. Local registries
  // keep an untracked lock.
  mutable TrackedMutex mutex_;
  // Sorted by (name, label_str) at dump time; storage order is registration
  // order so handles are stable.
  std::vector<std::unique_ptr<Entry>> entries_;
};

// `s` as a quoted JSON string: `"`, `\` and every byte below 0x20 escaped
// (RFC 8259). The one string quoter behind DumpJson and every other JSON
// export (Chrome traces, inspect reports, admin routes).
std::string JsonString(std::string_view s);

// Register the constant obiwan_build_info{version,flags} = 1 gauge, the
// standard Prometheus idiom for detecting restarts and mixed-version fleets
// (join any series against it by instance). Idempotent.
void RegisterBuildInfo(MetricsRegistry& registry);

}  // namespace obiwan
