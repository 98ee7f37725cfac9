// Queue-depth sampler + process self-telemetry: the "where is work piling
// up" half of the contention observatory (common/contention.h is the "which
// lock is hot" half).
//
// Counters say how much work happened; queue depths say how much is *waiting*
// — the leading indicator of saturation. The Profiler snapshots the queues a
// site owns that no other series reports into gauges (instantaneous depth
// for dashboards) and histograms (depth distribution across samples, so "the
// stale set spends 10% of samples above 100" survives scrape aliasing):
//
//   obiwan_queue_depth{queue,...}          last sampled depth
//   obiwan_queue_depth_samples{queue,...}  histogram of sampled depths
//
// Sampled queues: stale_replicas (invalidated replicas awaiting resync),
// fanout_inflight (holder notifications executing right now) and
// tcp_pool_idle / tcp_connections (client pool occupancy and live server
// handler threads, TCP transports only). The retry queue's depth is
// obiwan_notify_retry_depth and the admin plane's in-flight connections are
// obiwan_admin_http_active; each has its own writer.
//
// Sampling is on demand: the /profile.json route and the shell's `profile`
// command call SampleOnce(), so a virtual-time simulation samples
// deterministically.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/contention.h"
#include "common/metrics.h"
#include "core/site.h"

namespace obiwan::obs {

// One sampled queue: its label value and the depth observed.
struct QueueSample {
  std::string queue;
  std::int64_t depth = 0;
};

// A full sample: every queue depth plus the current lock-hotness ranking
// (top lock names by total wait — the on-demand contention report).
struct ProfileReport {
  Nanos at = 0;  // site clock
  std::vector<QueueSample> queues;
  std::vector<LockSiteReport> locks;

  std::string ToJson() const;
  std::string ToText() const;
};

class Profiler {
 public:
  explicit Profiler(core::Site& site,
                    MetricsRegistry& registry = MetricsRegistry::Default());

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // One deterministic sweep: read every queue, feed the gauges/histograms,
  // rank the locks (LockHotness's default top 10), remember and return the
  // report.
  ProfileReport SampleOnce();

  // The most recent report (empty before the first sample).
  ProfileReport last() const;

 private:
  struct QueueSeries {
    Gauge* depth = nullptr;
    Histogram* samples = nullptr;
  };

  QueueSeries MakeSeries(const char* queue);
  void Record(const QueueSeries& series, const char* queue, std::int64_t depth,
              std::vector<QueueSample>& out);

  core::Site& site_;
  MetricsRegistry& registry_;

  QueueSeries stale_replicas_;
  QueueSeries fanout_inflight_;
  QueueSeries tcp_pool_idle_;
  QueueSeries tcp_connections_;

  mutable std::mutex mutex_;
  ProfileReport last_;
};

// Refresh obiwan_process_rss_bytes / obiwan_process_open_fds /
// obiwan_process_threads from /proc/self. Process-wide (no labels), cheap
// enough to run per scrape; a no-op on platforms without procfs.
void RefreshProcessGauges(MetricsRegistry& registry = MetricsRegistry::Default());

}  // namespace obiwan::obs
