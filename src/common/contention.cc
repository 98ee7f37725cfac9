#include "common/contention.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>
#include <utility>

#include "common/metrics.h"

namespace obiwan {

const std::vector<std::int64_t>& LockLatencyBuckets() {
  static const std::vector<std::int64_t> kBuckets =
      ExponentialBuckets(100, 2.0, 26);
  return kBuckets;
}

namespace {

// Lock waits this long while a trace is active capture an exemplar: long
// enough to skip scheduler noise, short enough that any genuine pile-up on
// the site mutex links back to the flight recorder.
constexpr Nanos kLockWaitExemplarThreshold = 100 * kMicro;

// One outermost hold in this many, per instance, is timed; the others read
// no clock. A timed hold is observed with the weight of the holds it stands
// for, so obiwan_lock_hold_ns's count and sum still estimate every hold.
constexpr std::uint64_t kHoldSampleEvery = 64;

struct BoundStats {
  const MetricsRegistry* registry;
  std::string name;
  LockStats* stats;
};

// All LockStats ever bound, for (a) handle reuse on the process-default
// registry and (b) keeping the allocations reachable (no leak reports).
// Non-default registries get fresh handles per bind instead of cache hits: a
// test-local registry's address can be reused after it dies, and a stale
// cache entry would hand out dangling handles.
std::mutex g_bind_mutex;
std::vector<BoundStats>* g_bound = nullptr;

}  // namespace

LockStats* BindLockStats(MetricsRegistry& registry, const char* name) {
  // DefaultIfLive, not Default(): this very function runs inside Default()'s
  // initializer when the default registry binds its own mutex, and the magic
  // static must not be re-entered there.
  const bool cacheable = &registry == MetricsRegistry::DefaultIfLive();
  {
    std::lock_guard lock(g_bind_mutex);
    if (g_bound == nullptr) g_bound = new std::vector<BoundStats>();
    if (cacheable) {
      for (const BoundStats& b : *g_bound) {
        if (b.registry == &registry && b.name == name) return b.stats;
      }
    }
  }

  // Registrations run outside g_bind_mutex: GetHistogram takes the registry
  // lock, and for the default registry that lock's own binding goes through
  // here — same-thread re-entry on g_bind_mutex would deadlock. (It cannot
  // actually recurse — the registry binds itself exactly once, pre-bind —
  // but the lock ordering stays trivially clean this way.)
  auto* stats = new LockStats();
  const MetricLabels labels{{"name", name}};
  stats->wait = &registry.GetHistogram(
      "obiwan_lock_wait_ns", labels, LockLatencyBuckets(),
      "Time threads spent blocked acquiring this lock");
  stats->wait->SetExemplarThreshold(kLockWaitExemplarThreshold);
  stats->hold = &registry.GetHistogram(
      "obiwan_lock_hold_ns", labels, LockLatencyBuckets(),
      "Lock hold time, outermost acquisition to final release; 1 in 64 "
      "holds timed, each weighted by the holds it stands for");
  stats->contended = &registry.GetCounter(
      "obiwan_lock_contended_total", labels,
      "Acquisitions that found the lock held and had to block");
  stats->acquisitions = &registry.GetCounter(
      "obiwan_lock_acquisitions_total", labels, "All lock acquisitions");
  stats->waiters = &registry.GetGauge(
      "obiwan_lock_waiters", labels, "Threads currently blocked on this lock");

  std::lock_guard lock(g_bind_mutex);
  if (cacheable) {
    // Another thread may have bound the same name while we registered;
    // reuse its handles (GetHistogram interning made ours identical anyway).
    for (const BoundStats& b : *g_bound) {
      if (b.registry == &registry && b.name == name) {
        delete stats;
        return b.stats;
      }
    }
  }
  g_bound->push_back(BoundStats{&registry, name, stats});
  return stats;
}

template <typename MutexT>
void TrackedMutexImpl<MutexT>::Configure(const char* name, Clock& clock) {
  BindTo(MetricsRegistry::Default(), name, clock);
}

template <typename MutexT>
void TrackedMutexImpl<MutexT>::BindTo(MetricsRegistry& registry,
                                      const char* name, Clock& clock) {
  clock_ = &clock;
  stats_.store(BindLockStats(registry, name), std::memory_order_release);
}

template <typename MutexT>
void TrackedMutexImpl<MutexT>::Acquired(const LockStats* stats) {
  ++depth_;
  if (stats == nullptr) return;
  stats->acquisitions->Inc();
  if (depth_ != 1) return;
  // Time outermost holds 0, 64, 128, ...: the first stands for itself, each
  // later one for the kHoldSampleEvery holds since the previous timed one.
  const std::uint64_t k = holds_++;
  if (k % kHoldSampleEvery != 0) return;
  hold_weight_ = k == 0 ? 1 : kHoldSampleEvery;
  held_since_ = clock_->Now();
}

template <typename MutexT>
void TrackedMutexImpl<MutexT>::lock() {
  const LockStats* stats = stats_.load(std::memory_order_acquire);
  if (stats == nullptr) {
    mutex_.lock();
  } else if (!mutex_.try_lock()) {
    stats->contended->Inc();
    // The wait timestamp is read *before* announcing the waiter, so a test
    // that observes obiwan_lock_waiters == 1 knows the blocked thread is
    // done reading the clock and may advance a virtual one deterministically.
    const Nanos wait_start = clock_->Now();
    stats->waiters->Add(1);
    mutex_.lock();
    stats->waiters->Add(-1);
    stats->wait->Observe(clock_->Now() - wait_start);
  }
  Acquired(stats);
}

template <typename MutexT>
bool TrackedMutexImpl<MutexT>::try_lock() {
  if (!mutex_.try_lock()) return false;
  Acquired(stats_.load(std::memory_order_acquire));
  return true;
}

template <typename MutexT>
void TrackedMutexImpl<MutexT>::unlock() {
  const std::uint64_t weight =
      --depth_ == 0 ? std::exchange(hold_weight_, 0) : 0;
  const Nanos held = weight != 0 ? clock_->Now() - held_since_ : 0;
  // Observe only after releasing: the histogram update must not stretch the
  // measured hold time or the critical section itself.
  mutex_.unlock();
  if (weight != 0) {
    stats_.load(std::memory_order_acquire)->hold->Observe(held, weight);
  }
}

template class TrackedMutexImpl<std::mutex>;
template class TrackedMutexImpl<std::recursive_mutex>;

std::vector<LockSiteReport> LockHotness(const MetricsRegistry& registry,
                                        std::size_t top_k) {
  std::vector<LockSiteReport> rows;
  for (const std::string& name :
       registry.LabelValues("obiwan_lock_wait_ns", "name")) {
    const MetricLabels having{{"name", name}};
    LockSiteReport row;
    row.name = name;
    const HistogramSummary wait =
        registry.SummarizeHistograms("obiwan_lock_wait_ns", having);
    row.wait_total_ns = wait.sum;
    row.wait_max_ns = wait.max;
    row.wait_p99_ns = wait.p99;
    row.hold_total_ns =
        registry.SummarizeHistograms("obiwan_lock_hold_ns", having).sum;
    row.acquisitions =
        registry.SumCounters("obiwan_lock_acquisitions_total", having);
    row.contended = registry.SumCounters("obiwan_lock_contended_total", having);
    row.waiters = registry.SumGauges("obiwan_lock_waiters", having);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const LockSiteReport& a, const LockSiteReport& b) {
              return std::tie(b.wait_total_ns, a.name) <
                     std::tie(a.wait_total_ns, b.name);
            });
  if (rows.size() > top_k) rows.resize(top_k);
  return rows;
}

std::string LockHotnessText(const std::vector<LockSiteReport>& report) {
  std::string out =
      "lock hotness (by total wait):\n"
      "  name                 acquisitions  contended      wait_ms   "
      "p99_wait_us      hold_ms  waiters\n";
  for (const LockSiteReport& row : report) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-20s %12" PRIu64 " %10" PRIu64 " %12.3f %13.1f %12.3f %8" PRId64
                  "\n",
                  row.name.c_str(), row.acquisitions, row.contended,
                  static_cast<double>(row.wait_total_ns) / kMilli,
                  row.wait_p99_ns / kMicro,
                  static_cast<double>(row.hold_total_ns) / kMilli, row.waiters);
    out += line;
  }
  if (report.empty()) out += "  (no tracked locks bound)\n";
  return out;
}

double LockWaitWindow::WindowP99() {
  const MergedHistogram merged =
      registry_.MergeHistograms("obiwan_lock_wait_ns");
  if (merged.bounds.empty()) return 0;

  std::lock_guard lock(mutex_);
  if (bounds_ != merged.bounds || last_counts_.size() != merged.counts.size()) {
    // First call (or the bucket layout changed): baseline, report quiet.
    bounds_ = merged.bounds;
    last_counts_ = merged.counts;
    return 0;
  }
  std::vector<std::uint64_t> delta(merged.counts.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    // Saturating: Reset() between windows must not underflow.
    delta[i] = merged.counts[i] >= last_counts_[i]
                   ? merged.counts[i] - last_counts_[i]
                   : 0;
    total += delta[i];
  }
  last_counts_ = merged.counts;
  // merged.max is all-time, not windowed; the percentile walk only uses it
  // for ranks landing in the overflow bucket, where it is the right bound.
  return PercentileFromBucketCounts(bounds_, delta, total, merged.max, 0.99);
}

}  // namespace obiwan
