#include "ledger.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

using obiwan::MergedHistogram;
using obiwan::MetricLabels;
using obiwan::MetricsRegistry;

namespace {

constexpr int kSubBits = 7;
constexpr std::int64_t kSub = std::int64_t{1} << kSubBits;

std::size_t BucketOf(std::int64_t v) {
  if (v < kSub) return static_cast<std::size_t>(std::max<std::int64_t>(v, 0));
  const int shift = std::bit_width(static_cast<std::uint64_t>(v)) - 1 - kSubBits;
  return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
}

// [lower, lower + width) of bucket `b`.
std::pair<double, double> BucketRange(std::size_t b) {
  const auto i = static_cast<std::int64_t>(b);
  if (i < kSub) return {static_cast<double>(i), 1.0};
  const std::int64_t shift = i / kSub - 1;
  const std::int64_t lower = (kSub + i % kSub) << shift;
  return {static_cast<double>(lower), static_cast<double>(std::int64_t{1} << shift)};
}

}  // namespace

void Samples::Add(std::int64_t ns) {
  const std::size_t b = BucketOf(ns);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++count_;
  sum_ += static_cast<double>(ns);
}

void Samples::Append(const Samples& other) {
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t b = 0; b < other.counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

void Samples::AppendScaled(const Samples& other, double factor) {
  for (std::size_t b = 0; b < other.counts_.size(); ++b) {
    if (other.counts_[b] == 0) continue;
    const auto [lower, width] = BucketRange(b);
    const std::size_t to =
        BucketOf(std::llround((lower + width / 2) * factor));
    if (to >= counts_.size()) counts_.resize(to + 1, 0);
    counts_[to] += other.counts_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_ * factor;
}

double Samples::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p * static_cast<double>(count_);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    if (static_cast<double>(below + counts_[b]) >= rank) {
      const auto [lower, width] = BucketRange(b);
      const double frac = (rank - static_cast<double>(below)) /
                          static_cast<double>(counts_[b]);
      return lower + width * std::clamp(frac, 0.0, 1.0);
    }
    below += counts_[b];
  }
  return BucketRange(counts_.size() - 1).first;
}

double Samples::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

const std::vector<std::string>& LedgerLocks() {
  static const std::vector<std::string> locks = {
      "site.shard", "site.ptr", "site", "site.pins",
      "fanout",     "tcp_pool", "tracer_ring"};
  return locks;
}

namespace {

struct Series {
  std::string key;
  const char* metric;
  MetricLabels having;
};

const std::vector<Series>& CounterSeries() {
  static const std::vector<Series> series = [] {
    std::vector<Series> s = {
        {"transport.requests", "obiwan_transport_requests_total", {}},
        {"transport.request_bytes", "obiwan_transport_request_bytes_total", {}},
        {"transport.reply_bytes", "obiwan_transport_reply_bytes_total", {}},
        {"transport.connects", "obiwan_transport_connects_total", {}},
        {"site.gets_sent", "obiwan_site_gets_sent_total", {}},
        {"site.replicas_created", "obiwan_site_replicas_created_total", {}},
        {"site.proxy_outs_created", "obiwan_site_proxy_outs_created_total", {}},
        {"site.proxy_ins_created", "obiwan_site_proxy_ins_created_total", {}},
        {"site.notify_retries", "obiwan_notify_retries_total", {}},
    };
    for (const std::string& lock : LedgerLocks()) {
      s.push_back({"lock." + lock + ".contended", "obiwan_lock_contended_total",
                   {{"name", lock}}});
      s.push_back({"lock." + lock + ".acquisitions",
                   "obiwan_lock_acquisitions_total", {{"name", lock}}});
    }
    return s;
  }();
  return series;
}

const std::vector<Series>& HistogramSeries() {
  static const std::vector<Series> series = [] {
    std::vector<Series> s;
    for (const char* kind : {"call", "get", "put", "push"}) {
      s.push_back({std::string("server.") + kind, "obiwan_rmi_server_latency_ns",
                   {{"kind", kind}}});
    }
    s.push_back({"client.notify", "obiwan_rmi_client_latency_ns",
                 {{"op", "notify"}}});
    for (const std::string& lock : LedgerLocks()) {
      s.push_back({"lock." + lock + ".wait", "obiwan_lock_wait_ns",
                   {{"name", lock}}});
    }
    return s;
  }();
  return series;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  const MetricsRegistry& reg = MetricsRegistry::Default();
  RegistrySnapshot snap;
  for (const Series& s : CounterSeries()) {
    snap.counters[s.key] = reg.SumCounters(s.metric, s.having);
  }
  for (const Series& s : HistogramSeries()) {
    snap.histograms[s.key] = reg.MergeHistograms(s.metric, s.having);
  }
  return snap;
}

std::uint64_t RegistryDelta::Count(const std::string& key) const {
  const std::uint64_t a = after_.counters.at(key);
  const std::uint64_t b = before_.counters.at(key);
  return a > b ? a - b : 0;
}

std::uint64_t RegistryDelta::HistCount(const std::string& key) const {
  const std::uint64_t a = after_.histograms.at(key).count;
  const std::uint64_t b = before_.histograms.at(key).count;
  return a > b ? a - b : 0;
}

std::int64_t RegistryDelta::HistSum(const std::string& key) const {
  return after_.histograms.at(key).sum - before_.histograms.at(key).sum;
}

double RegistryDelta::HistPercentile(const std::string& key, double p) const {
  const MergedHistogram& a = after_.histograms.at(key);
  const MergedHistogram& b = before_.histograms.at(key);
  if (a.counts.empty()) return 0.0;
  std::vector<std::uint64_t> counts = a.counts;
  if (b.counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = counts[i] > b.counts[i] ? counts[i] - b.counts[i] : 0;
    }
  }
  const std::uint64_t total = HistCount(key);
  if (total == 0) return 0.0;
  return obiwan::PercentileFromBucketCounts(a.bounds, counts, total, a.max, p);
}

std::map<std::string, Samples> SpanDurations(const obiwan::Tracer& tracer) {
  std::map<std::string, Samples> out;
  for (const obiwan::Span& span : tracer.SnapshotSpans()) {
    out[span.category + "/" + span.name].Add(span.duration());
  }
  return out;
}

void MetricSet::Add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

void MetricSet::PrintText() const {
  for (const Entry& e : entries_) {
    std::printf("  %-36s %16.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i != 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
