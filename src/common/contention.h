// Instrumented mutexes: the measurement half of the lock-contention story.
//
// The ROADMAP's sharded-object-table refactor needs evidence before surgery:
// which lock is hot, how long do threads wait on it, how long is it held, and
// how does that scale with concurrency. TrackedMutex / TrackedRecursiveMutex
// are drop-in std::mutex / std::recursive_mutex replacements (same
// lock/try_lock/unlock surface, so std::lock_guard and std::unique_lock call
// sites are untouched) that record per-lock-name telemetry into the metrics
// registry:
//
//   obiwan_lock_wait_ns{name}            histogram of time threads blocked
//                                        acquiring the lock (contended
//                                        acquisitions only; uncontended ones
//                                        wait 0 by definition)
//   obiwan_lock_hold_ns{name}            histogram of outermost-acquisition-
//                                        to-final-release hold times; 1 in
//                                        64 holds per instance is timed and
//                                        weighted by the holds it stands for
//   obiwan_lock_contended_total{name}    acquisitions that had to block
//   obiwan_lock_acquisitions_total{name} all acquisitions
//   obiwan_lock_waiters{name}            threads blocked right now
//
// Handles are resolved once at bind time (the only moment the registry lock
// is taken). Only contended acquisitions and the sampled holds read the
// clock. Metrics are shared per (registry, name): every Site's "site" mutex
// feeds one obiwan_lock_wait_ns{name="site"} family, which keeps cardinality
// flat no matter how many sites a bench spins up.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace obiwan {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

// Per-lock-name metric handles, shared by every tracked mutex bound to the
// same (registry, name) pair.
struct LockStats {
  Histogram* wait = nullptr;        // obiwan_lock_wait_ns{name}
  Histogram* hold = nullptr;        // obiwan_lock_hold_ns{name}
  Counter* contended = nullptr;     // obiwan_lock_contended_total{name}
  Counter* acquisitions = nullptr;  // obiwan_lock_acquisitions_total{name}
  Gauge* waiters = nullptr;         // obiwan_lock_waiters{name}
};

// Bucket bounds for the wait/hold histograms: 100 ns .. ~3.4 s, ×2 steps —
// finer at the bottom than the RPC buckets because uncontended handoffs live
// in the sub-microsecond range.
const std::vector<std::int64_t>& LockLatencyBuckets();

// Resolve (and cache, for the process-default registry) the shared handles
// for lock name `name` in `registry`. The returned pointer lives for the
// process; handles into a non-default registry are valid only while that
// registry is.
LockStats* BindLockStats(MetricsRegistry& registry, const char* name);

// One row of the lock-hotness report: a lock name's aggregate telemetry.
struct LockSiteReport {
  std::string name;
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  std::int64_t wait_total_ns = 0;  // total time threads spent blocked
  std::int64_t hold_total_ns = 0;
  std::int64_t wait_max_ns = 0;
  double wait_p99_ns = 0;
  std::int64_t waiters = 0;  // blocked right now
};

// Top-`top_k` lock names by total wait time, descending (ties broken by name
// ascending so repeated reports don't flap). Enumerates lock sites straight
// from the registry's obiwan_lock_wait_ns label values — no side table.
std::vector<LockSiteReport> LockHotness(const MetricsRegistry& registry,
                                        std::size_t top_k = 10);
std::string LockHotnessText(const std::vector<LockSiteReport>& report);

// Windowed lock-wait percentile: each call diffs the merged
// obiwan_lock_wait_ns buckets against the previous call's snapshot and
// returns the p99 over just that window — what the /healthz lock-starvation
// budget compares against (an all-time p99 would never recover from one bad
// burst). The first call establishes the baseline and returns 0.
class LockWaitWindow {
 public:
  explicit LockWaitWindow(const MetricsRegistry& registry)
      : registry_(registry) {}

  double WindowP99();

 private:
  const MetricsRegistry& registry_;
  std::mutex mutex_;
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> last_counts_;
};

// The instrumented wrapper. Three binding shapes:
//   TrackedMutex m{"site"};              bind into MetricsRegistry::Default()
//   TrackedMutex m; m.Configure("x");    deferred (array members)
//   m.BindTo(registry, "x");             explicit registry (tests; the
//                                        registry's own lock)
// An unbound instance is a plain passthrough, which is what lets the metrics
// registry instrument its own mutex without a bootstrap cycle.
template <typename MutexT>
class TrackedMutexImpl {
 public:
  TrackedMutexImpl() = default;
  explicit TrackedMutexImpl(const char* name,
                            Clock& clock = SystemClock::Instance()) {
    Configure(name, clock);
  }

  TrackedMutexImpl(const TrackedMutexImpl&) = delete;
  TrackedMutexImpl& operator=(const TrackedMutexImpl&) = delete;

  // Bind into the process-default registry. Call before the mutex is shared
  // across threads (constructors); not thread-safe against concurrent locks.
  void Configure(const char* name, Clock& clock = SystemClock::Instance());
  void BindTo(MetricsRegistry& registry, const char* name,
              Clock& clock = SystemClock::Instance());

  void lock();
  bool try_lock();
  void unlock();

 private:
  // Common post-acquisition bookkeeping; runs with the mutex held.
  void Acquired(const LockStats* stats);

  MutexT mutex_;
  std::atomic<const LockStats*> stats_{nullptr};
  Clock* clock_ = nullptr;
  // Touched only while mutex_ is held: recursion depth, the count of
  // outermost holds (which picks the timed ones), and the current hold's
  // weight (0 = untimed) and start. Binding can race an in-flight critical
  // section, so unlock trusts hold_weight_, not stats_.
  int depth_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t hold_weight_ = 0;
  Nanos held_since_ = 0;
};

extern template class TrackedMutexImpl<std::mutex>;
extern template class TrackedMutexImpl<std::recursive_mutex>;

using TrackedMutex = TrackedMutexImpl<std::mutex>;
using TrackedRecursiveMutex = TrackedMutexImpl<std::recursive_mutex>;

}  // namespace obiwan
