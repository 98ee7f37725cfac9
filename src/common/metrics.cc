#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/log.h"
#include "common/trace.h"

namespace obiwan {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_.push_back(1);
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(std::int64_t v, std::uint64_t weight) {
  if (v < 0) v = 0;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(weight, std::memory_order_relaxed);
  count_.fetch_add(weight, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<std::int64_t>(weight),
                 std::memory_order_relaxed);
  std::int64_t prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
  const std::int64_t threshold =
      exemplar_threshold_.load(std::memory_order_relaxed);
  if (threshold >= 0 && v >= threshold) MaybeCaptureExemplar(v, idx);
}

void Histogram::SetExemplarThreshold(std::int64_t threshold) {
  exemplar_threshold_.store(threshold, std::memory_order_relaxed);
}

void Histogram::MaybeCaptureExemplar(std::int64_t v, std::size_t bucket) {
  const TraceId trace = TraceContext::Current();
  if (!trace.valid()) return;  // nothing to link the bucket back to
  std::unique_lock lock(exemplar_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // best-effort: never block the hot path
  Exemplar& slot = exemplar_ring_[exemplar_count_ % kExemplarSlots];
  slot.value = v;
  slot.bucket = bucket;
  slot.trace = trace;
  slot.span = SpanContext::Current();
  slot.seq = ++exemplar_count_;
}

std::vector<Histogram::Exemplar> Histogram::Exemplars() const {
  std::lock_guard lock(exemplar_mutex_);
  const std::uint64_t kept = std::min<std::uint64_t>(exemplar_count_,
                                                     kExemplarSlots);
  std::vector<Exemplar> out;
  out.reserve(kept);
  // Oldest retained first: the ring writes slot (seq - 1) % kExemplarSlots.
  for (std::uint64_t i = exemplar_count_ - kept; i < exemplar_count_; ++i) {
    out.push_back(exemplar_ring_[i % kExemplarSlots]);
  }
  return out;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// Shared percentile math for a live histogram and for merged bucket arrays
// (SummarizeHistograms, windowed deltas). `counts` has bounds.size() + 1
// entries.
double PercentileFromBucketCounts(const std::vector<std::int64_t>& bounds,
                                  const std::vector<std::uint64_t>& counts,
                                  std::uint64_t total, std::int64_t max,
                                  double p) {
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(total);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= rank) {
      if (i == bounds.size()) {
        // Overflow bucket has no upper bound; the exact max is tracked.
        return static_cast<double>(max);
      }
      const double lower = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double upper = static_cast<double>(bounds[i]);
      const double fraction =
          std::clamp((rank - cumulative) / in_bucket, 0.0, 1.0);
      const double value = lower + fraction * (upper - lower);
      // Never report beyond the largest real observation.
      return std::min(value, static_cast<double>(max));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max);
}

double Histogram::Percentile(double p) const {
  return PercentileFromBucketCounts(bounds_, BucketCounts(), Count(), Max(), p);
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  std::lock_guard lock(exemplar_mutex_);
  exemplar_ring_.fill(Exemplar{});
  exemplar_count_ = 0;
}

std::vector<std::int64_t> ExponentialBuckets(std::int64_t start, double factor,
                                             int count) {
  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(std::max(count, 1)));
  double v = static_cast<double>(std::max<std::int64_t>(start, 1));
  std::int64_t last = 0;
  for (int i = 0; i < count; ++i) {
    auto bound = static_cast<std::int64_t>(std::llround(v));
    if (bound <= last) bound = last + 1;  // keep strictly ascending
    bounds.push_back(bound);
    last = bound;
    v *= factor;
  }
  return bounds;
}

const std::vector<std::int64_t>& DefaultLatencyBuckets() {
  // 1 µs, 2 µs, ... ×2 up to ~8.6 s; RPC latencies on the paper's simulated
  // LAN (2.8 ms round trip) land mid-range.
  static const std::vector<std::int64_t> kBuckets =
      ExponentialBuckets(1'000, 2.0, 24);
  return kBuckets;
}

#ifndef OBIWAN_VERSION
#define OBIWAN_VERSION "unknown"
#endif
#ifndef OBIWAN_BUILD_FLAGS
#define OBIWAN_BUILD_FLAGS "unknown"
#endif

std::string_view BuildVersion() { return OBIWAN_VERSION; }
std::string_view BuildFlags() { return OBIWAN_BUILD_FLAGS; }

void RegisterBuildInfo(MetricsRegistry& registry) {
  registry
      .GetGauge("obiwan_build_info",
                {{"version", std::string(BuildVersion())},
                 {"flags", std::string(BuildFlags())}},
                "Constant 1; version/flags labels identify this build")
      .Set(1);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

std::string CanonicalLabelString(MetricLabels& labels) {
  std::sort(labels.begin(), labels.end());
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

namespace {
// Published by Default() before it binds the registry's own mutex, so code
// running inside that bind (BindLockStats) can identify the default registry
// without re-entering the still-initializing magic static.
std::atomic<MetricsRegistry*> g_default_live{nullptr};
}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    g_default_live.store(r, std::memory_order_release);
    // Instrument the registry's own lock — after construction, directly on
    // *r: the registrations go through the still-unbound mutex (plain
    // passthrough) and never re-enter Default(), so the magic static cannot
    // deadlock on itself. Once bound, lock telemetry is pure atomic updates
    // on the resolved handles — no registry lock taken, no self-recursion.
    r->mutex_.BindTo(*r, "metrics_registry");
    return r;
  }();
  return *registry;
}

MetricsRegistry* MetricsRegistry::DefaultIfLive() {
  return g_default_live.load(std::memory_order_acquire);
}

std::uint64_t MetricsRegistry::NextInstance() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry::Entry* MetricsRegistry::Find(std::string_view name,
                                              const std::string& label_str) {
  for (auto& entry : entries_) {
    if (entry->name == name && entry->label_str == label_str) {
      return entry.get();
    }
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::Register(std::string_view name,
                                                  MetricLabels labels,
                                                  Type type,
                                                  std::string_view help) {
  auto entry = std::make_unique<Entry>();
  entry->name.assign(name);
  entry->label_str = CanonicalLabelString(labels);
  entry->labels = std::move(labels);
  entry->type = type;
  entry->help.assign(help);
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

// The type-mismatch error in the getters below is logged only after the
// registry lock is released: OBIWAN_LOG(kWarning|kError) feeds the
// obiwan_log_messages_total counters back through GetCounter, and logging
// under mutex_ would re-enter it.

Counter& MetricsRegistry::GetCounter(std::string_view name, MetricLabels labels,
                                     std::string_view help) {
  std::string label_str = CanonicalLabelString(labels);
  {
    std::lock_guard lock(mutex_);
    if (Entry* existing = Find(name, label_str)) {
      if (existing->type == Type::kCounter) return *existing->counter;
    } else {
      Entry& entry = Register(name, std::move(labels), Type::kCounter, help);
      entry.counter = std::make_unique<Counter>();
      return *entry.counter;
    }
  }
  OBIWAN_LOG(kError) << "metric '" << std::string(name)
                     << "' re-registered with a different type";
  static Counter* dummy = new Counter();
  return *dummy;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels,
                                 std::string_view help) {
  std::string label_str = CanonicalLabelString(labels);
  {
    std::lock_guard lock(mutex_);
    if (Entry* existing = Find(name, label_str)) {
      if (existing->type == Type::kGauge) return *existing->gauge;
    } else {
      Entry& entry = Register(name, std::move(labels), Type::kGauge, help);
      entry.gauge = std::make_unique<Gauge>();
      return *entry.gauge;
    }
  }
  OBIWAN_LOG(kError) << "metric '" << std::string(name)
                     << "' re-registered with a different type";
  static Gauge* dummy = new Gauge();
  return *dummy;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         MetricLabels labels,
                                         const std::vector<std::int64_t>& bounds,
                                         std::string_view help) {
  std::string label_str = CanonicalLabelString(labels);
  {
    std::lock_guard lock(mutex_);
    if (Entry* existing = Find(name, label_str)) {
      if (existing->type == Type::kHistogram) return *existing->histogram;
    } else {
      Entry& entry = Register(name, std::move(labels), Type::kHistogram, help);
      entry.histogram = std::make_unique<Histogram>(bounds);
      return *entry.histogram;
    }
  }
  OBIWAN_LOG(kError) << "metric '" << std::string(name)
                     << "' re-registered with a different type";
  static Histogram* dummy = new Histogram({1});
  return *dummy;
}

void MetricsRegistry::Reset() {
  std::lock_guard lock(mutex_);
  for (auto& entry : entries_) {
    switch (entry->type) {
      case Type::kCounter: entry->counter->Reset(); break;
      case Type::kGauge: entry->gauge->Reset(); break;
      case Type::kHistogram: entry->histogram->Reset(); break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::string MetricsRegistry::DumpText() const {
  std::lock_guard lock(mutex_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& entry : entries_) sorted.push_back(entry.get());
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return std::tie(a->name, a->label_str) < std::tie(b->name, b->label_str);
  });

  std::string out;
  for (const Entry* e : sorted) {
    switch (e->type) {
      case Type::kCounter:
        out += "counter " + e->name + e->label_str + " " +
               std::to_string(e->counter->Value()) + "\n";
        break;
      case Type::kGauge:
        out += "gauge " + e->name + e->label_str + " " +
               std::to_string(e->gauge->Value()) + "\n";
        break;
      case Type::kHistogram: {
        const Histogram& h = *e->histogram;
        out += "histogram " + e->name + e->label_str +
               " count=" + std::to_string(h.Count()) +
               " sum=" + std::to_string(h.Sum()) +
               " p50=" + FormatDouble(h.P50()) +
               " p95=" + FormatDouble(h.P95()) +
               " p99=" + FormatDouble(h.P99()) +
               " max=" + std::to_string(h.Max()) + "\n";
        break;
      }
    }
  }
  return out;
}

namespace {

// name{existing,le="bound"} — splices a le label into a (possibly empty)
// canonical label string.
std::string WithLe(const std::string& name, const std::string& label_str,
                   const std::string& le) {
  if (label_str.empty()) return name + "{le=\"" + le + "\"}";
  std::string out = name + label_str;
  out.insert(out.size() - 1, ",le=\"" + le + "\"");
  return out;
}

// Prometheus text exposition escaping. Label values escape backslash, double
// quote, and newline; HELP text escapes backslash and newline only (the
// canonical label_str stays raw — it is the registry-internal identity key
// and feeds DumpText).
std::string PromEscape(const std::string& v, bool escape_quote) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"':
        if (escape_quote) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default: out += c;
    }
  }
  return out;
}

// Exposition name of a counter: Prometheus convention requires the _total
// suffix on counters, so names registered without one are normalized here
// (the registry-internal name — and DumpText/DumpJson — keep the raw name).
std::string PromCounterName(const std::string& name) {
  constexpr std::string_view kSuffix = "_total";
  if (name.size() >= kSuffix.size() &&
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
    return name;
  }
  return name + "_total";
}

// OpenMetrics exemplar suffix for one bucket line:
// ` # {trace_id="trace(1:7)",span_id="42"} <value>`. Appended to the
// `_bucket` series whose range the exemplar observation landed in, so a
// scraper (or a human) can jump from a fat tail bucket straight to the
// flight-recorder span with that trace id.
std::string PromExemplarSuffix(const Histogram::Exemplar& e) {
  std::string out = " # {trace_id=\"" +
                    PromEscape(ToString(e.trace), /*escape_quote=*/true) + "\"";
  if (e.span != 0) out += ",span_id=\"" + std::to_string(e.span) + "\"";
  out += "} " + std::to_string(e.value);
  return out;
}

// Most recent exemplar per bucket index, or empty when the histogram has
// captured none.
std::vector<const Histogram::Exemplar*> ExemplarPerBucket(
    const std::vector<Histogram::Exemplar>& exemplars, std::size_t buckets) {
  std::vector<const Histogram::Exemplar*> best(buckets, nullptr);
  for (const Histogram::Exemplar& e : exemplars) {
    if (e.bucket >= buckets) continue;
    if (best[e.bucket] == nullptr || e.seq > best[e.bucket]->seq) {
      best[e.bucket] = &e;
    }
  }
  return best;
}

// The entry's labels re-rendered with escaped values (labels are already in
// canonical sorted order from registration).
std::string PromLabelString(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += PromEscape(labels[i].second, /*escape_quote=*/true);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::DumpPrometheus() const {
  std::lock_guard lock(mutex_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& entry : entries_) sorted.push_back(entry.get());
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return std::tie(a->name, a->label_str) < std::tie(b->name, b->label_str);
  });

  std::string out;
  std::string last_name;
  for (const Entry* e : sorted) {
    const bool first_of_name = e->name != last_name;
    last_name = e->name;
    const std::string labels = PromLabelString(e->labels);
    switch (e->type) {
      case Type::kCounter: {
        const std::string prom_name = PromCounterName(e->name);
        if (first_of_name) {
          if (!e->help.empty()) {
            out += "# HELP " + prom_name + " " +
                   PromEscape(e->help, /*escape_quote=*/false) + "\n";
          }
          out += "# TYPE " + prom_name + " counter\n";
        }
        out += prom_name + labels + " " +
               std::to_string(e->counter->Value()) + "\n";
        break;
      }
      case Type::kGauge: {
        if (first_of_name) {
          if (!e->help.empty()) {
            out += "# HELP " + e->name + " " +
                   PromEscape(e->help, /*escape_quote=*/false) + "\n";
          }
          out += "# TYPE " + e->name + " gauge\n";
        }
        out += e->name + labels + " " +
               std::to_string(e->gauge->Value()) + "\n";
        break;
      }
      case Type::kHistogram: {
        if (first_of_name) {
          if (!e->help.empty()) {
            out += "# HELP " + e->name + " " +
                   PromEscape(e->help, /*escape_quote=*/false) + "\n";
          }
          out += "# TYPE " + e->name + " histogram\n";
        }
        const Histogram& h = *e->histogram;
        const auto counts = h.BucketCounts();
        const auto exemplars = h.Exemplars();
        const auto per_bucket = ExemplarPerBucket(exemplars, counts.size());
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += counts[i];
          out += WithLe(e->name + "_bucket", labels,
                        std::to_string(h.bounds()[i])) +
                 " " + std::to_string(cumulative);
          if (per_bucket[i] != nullptr) out += PromExemplarSuffix(*per_bucket[i]);
          out += "\n";
        }
        out += WithLe(e->name + "_bucket", labels, "+Inf") + " " +
               std::to_string(h.Count());
        if (per_bucket.back() != nullptr) {
          out += PromExemplarSuffix(*per_bucket.back());
        }
        out += "\n";
        out += e->name + "_sum" + labels + " " +
               std::to_string(h.Sum()) + "\n";
        out += e->name + "_count" + labels + " " +
               std::to_string(h.Count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string JsonLabels(const MetricLabels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonString(labels[i].first) + ":" + JsonString(labels[i].second);
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& e : entries_) {
    const std::string head = "{\"name\":" + JsonString(e->name) +
                             ",\"labels\":" + JsonLabels(e->labels);
    switch (e->type) {
      case Type::kCounter: {
        if (!counters.empty()) counters += ',';
        counters += head + ",\"value\":" +
                    std::to_string(e->counter->Value()) + "}";
        break;
      }
      case Type::kGauge: {
        if (!gauges.empty()) gauges += ',';
        gauges += head + ",\"value\":" + std::to_string(e->gauge->Value()) + "}";
        break;
      }
      case Type::kHistogram: {
        const Histogram& h = *e->histogram;
        if (!histograms.empty()) histograms += ',';
        histograms += head + ",\"count\":" + std::to_string(h.Count()) +
                      ",\"sum\":" + std::to_string(h.Sum()) +
                      ",\"max\":" + std::to_string(h.Max()) +
                      ",\"p50\":" + FormatDouble(h.P50()) +
                      ",\"p95\":" + FormatDouble(h.P95()) +
                      ",\"p99\":" + FormatDouble(h.P99()) + ",\"buckets\":[";
        const auto counts = h.BucketCounts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
          if (i != 0) histograms += ',';
          const std::string le = i < h.bounds().size()
                                     ? std::to_string(h.bounds()[i])
                                     : "\"+Inf\"";
          histograms += "{\"le\":" + le +
                        ",\"count\":" + std::to_string(counts[i]) + "}";
        }
        histograms += "],\"tail_exemplars\":[";
        const auto exemplars = h.Exemplars();
        for (std::size_t i = 0; i < exemplars.size(); ++i) {
          if (i != 0) histograms += ',';
          histograms += "{\"value\":" + std::to_string(exemplars[i].value) +
                        ",\"bucket\":" + std::to_string(exemplars[i].bucket) +
                        ",\"trace_id\":" + JsonString(ToString(exemplars[i].trace)) +
                        ",\"span_id\":" + std::to_string(exemplars[i].span) + "}";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

namespace {

bool LabelsContain(const MetricLabels& labels, const MetricLabels& having) {
  for (const auto& want : having) {
    bool found = false;
    for (const auto& have : labels) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

HistogramSummary MetricsRegistry::SummarizeHistograms(
    std::string_view name, const MetricLabels& having) const {
  std::lock_guard lock(mutex_);
  HistogramSummary summary;
  const std::vector<std::int64_t>* bounds = nullptr;
  std::vector<std::uint64_t> merged;
  for (const auto& e : entries_) {
    if (e->type != Type::kHistogram || e->name != name) continue;
    if (!LabelsContain(e->labels, having)) continue;
    const Histogram& h = *e->histogram;
    if (bounds == nullptr) {
      bounds = &h.bounds();
      merged.assign(bounds->size() + 1, 0);
    } else if (h.bounds() != *bounds) {
      continue;  // incompatible series; skip rather than mis-merge
    }
    const auto counts = h.BucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) merged[i] += counts[i];
    summary.count += h.Count();
    summary.sum += h.Sum();
    summary.max = std::max(summary.max, h.Max());
  }
  if (bounds != nullptr) {
    summary.p50 =
        PercentileFromBucketCounts(*bounds, merged, summary.count, summary.max, 0.50);
    summary.p95 =
        PercentileFromBucketCounts(*bounds, merged, summary.count, summary.max, 0.95);
    summary.p99 =
        PercentileFromBucketCounts(*bounds, merged, summary.count, summary.max, 0.99);
  }
  return summary;
}

std::uint64_t MetricsRegistry::SumCounters(std::string_view name,
                                           const MetricLabels& having) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e->type != Type::kCounter || e->name != name) continue;
    if (!LabelsContain(e->labels, having)) continue;
    total += e->counter->Value();
  }
  return total;
}

std::int64_t MetricsRegistry::SumGauges(std::string_view name,
                                        const MetricLabels& having) const {
  std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const auto& e : entries_) {
    if (e->type != Type::kGauge || e->name != name) continue;
    if (!LabelsContain(e->labels, having)) continue;
    total += e->gauge->Value();
  }
  return total;
}

MergedHistogram MetricsRegistry::MergeHistograms(
    std::string_view name, const MetricLabels& having) const {
  std::lock_guard lock(mutex_);
  MergedHistogram merged;
  for (const auto& e : entries_) {
    if (e->type != Type::kHistogram || e->name != name) continue;
    if (!LabelsContain(e->labels, having)) continue;
    const Histogram& h = *e->histogram;
    if (merged.bounds.empty()) {
      merged.bounds = h.bounds();
      merged.counts.assign(merged.bounds.size() + 1, 0);
    } else if (h.bounds() != merged.bounds) {
      continue;  // incompatible series; skip rather than mis-merge
    }
    const auto counts = h.BucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) merged.counts[i] += counts[i];
    merged.count += h.Count();
    merged.sum += h.Sum();
    merged.max = std::max(merged.max, h.Max());
  }
  return merged;
}

std::vector<std::string> MetricsRegistry::LabelValues(
    std::string_view name, std::string_view key) const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const auto& e : entries_) {
    if (e->name != name) continue;
    for (const auto& [k, v] : e->labels) {
      if (k != key) continue;
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  return out;
}

}  // namespace obiwan
