// Measurement primitives for the wall-clock benchmark: latency samples,
// registry deltas over a measured window, the span ledger, and the named
// metric set the run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time used so far by every thread of this process, in nanoseconds.
inline std::int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Durations in nanoseconds, kept as a log-linear histogram (values below
// 128 exact, then 128 buckets per power of two: under 0.8% error). Memory
// stays fixed whatever the op rate, since the benchmark's own buffers are
// part of peak_rss_mb.
class Samples {
 public:
  void Add(std::int64_t ns);
  void Append(const Samples& other);
  // Appends `other` with every duration multiplied by `factor`.
  void AppendScaled(const Samples& other, double factor);
  std::size_t size() const { return count_; }

  // p in [0, 1], interpolated inside the bucket; 0 when empty.
  double Percentile(double p) const;
  double Mean() const;

 private:
  std::vector<std::uint64_t> counts_;  // grown to the largest bucket seen
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

// Lock names the ledger reports (TrackedMutex names in src/).
const std::vector<std::string>& LedgerLocks();

// The registry series the ledger reads, captured at one instant. Counters
// are summed and histograms merged across every instance in the process
// (sites, transports), so a window delta covers client and server alike.
struct RegistrySnapshot {
  static RegistrySnapshot Take();

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obiwan::MergedHistogram> histograms;
};

// Change of the ledger's series between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after)
      : before_(before), after_(after) {}

  // Ledger keys, e.g. "transport.requests", "lock.site.contended".
  std::uint64_t Count(const std::string& key) const;
  // Observations, sum and percentile of a histogram key over the window,
  // e.g. "server.call", "client.notify", "lock.site.wait" (nanoseconds).
  std::uint64_t HistCount(const std::string& key) const;
  std::int64_t HistSum(const std::string& key) const;
  double HistPercentile(const std::string& key, double p) const;

 private:
  const RegistrySnapshot& before_;
  const RegistrySnapshot& after_;
};

// Span durations grouped by "category/name", from a tracer's span ring.
std::map<std::string, Samples> SpanDurations(const obiwan::Tracer& tracer);

// Ordered name -> (value, unit) list; printed as text and as the result
// line's "metrics" object.
class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit);
  void PrintText() const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Site id the benchmark's own spans record under (no Site uses it).
inline constexpr obiwan::SiteId kBenchSite = 250;

// Span around one call into a layer, recorded into `spans`; inert when
// `spans` is null. The outermost one opens a trace flow, so the sites' own
// spans for the same call share its TraceId.
class LayerSpan {
 public:
  LayerSpan(const obiwan::TraceSinks* spans, std::string_view layer,
            std::string_view name)
      : flow_(spans != nullptr ? obiwan::TraceContext::CurrentOrNew(kBenchSite)
                               : obiwan::TraceContext::Current()),
        span_(spans, obiwan::SystemClock::Instance(), kBenchSite, layer, name,
              obiwan::TraceContext::Current()) {}

 private:
  obiwan::TraceContext::Scope flow_;
  obiwan::SpanScope span_;
};

// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench
