#include "obs/profiler.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "net/tcp.h"

#ifdef __linux__
#include <dirent.h>
#include <unistd.h>
#endif

namespace obiwan::obs {

namespace {

// Depth buckets 1..32768, ×2: queue depths are small integers and the
// interesting signal is order of magnitude, not fine grain.
const std::vector<std::int64_t>& DepthBuckets() {
  static const std::vector<std::int64_t> buckets =
      ExponentialBuckets(1, 2.0, 16);
  return buckets;
}

void AppendJsonQueue(std::string& out, const QueueSample& q, bool first) {
  out += first ? "{\"queue\":" : ",{\"queue\":";
  out += JsonString(q.queue) + ",\"depth\":" + std::to_string(q.depth) + "}";
}

void AppendJsonLock(std::string& out, const LockSiteReport& l, bool first) {
  out += first ? "{\"name\":" : ",{\"name\":";
  out += JsonString(l.name);
  // Only numbers go through the fixed buffer.
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      ",\"acquisitions\":%" PRIu64 ",\"contended\":%" PRIu64
      ",\"wait_total_ns\":%" PRId64 ",\"hold_total_ns\":%" PRId64
      ",\"wait_max_ns\":%" PRId64 ",\"wait_p99_ns\":%.0f,\"waiters\":%" PRId64
      "}",
      l.acquisitions, l.contended, l.wait_total_ns, l.hold_total_ns,
      l.wait_max_ns, l.wait_p99_ns, l.waiters);
  out += buf;
}

}  // namespace

std::string ProfileReport::ToJson() const {
  std::string out = "{\"at\":" + std::to_string(at) + ",\"queues\":[";
  for (std::size_t i = 0; i < queues.size(); ++i) {
    AppendJsonQueue(out, queues[i], i == 0);
  }
  out += "],\"locks\":[";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    AppendJsonLock(out, locks[i], i == 0);
  }
  out += "]}";
  return out;
}

std::string ProfileReport::ToText() const {
  std::string out = "queues:\n";
  for (const QueueSample& q : queues) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-16s %" PRId64 "\n", q.queue.c_str(),
                  q.depth);
    out += buf;
  }
  out += LockHotnessText(locks);
  return out;
}

Profiler::Profiler(core::Site& site, ProfilerOptions options,
                   MetricsRegistry& registry)
    : site_(site), options_(std::move(options)), registry_(registry) {
  notify_retries_ = MakeSeries("notify_retries");
  stale_replicas_ = MakeSeries("stale_replicas");
  fanout_inflight_ = MakeSeries("fanout_inflight");
  if (dynamic_cast<net::TcpTransport*>(&site_.transport()) != nullptr) {
    tcp_pool_idle_ = MakeSeries("tcp_pool_idle");
    tcp_connections_ = MakeSeries("tcp_connections");
  }
  admin_http_ = MakeSeries("admin_http");
}

Profiler::~Profiler() { Stop(); }

Profiler::QueueSeries Profiler::MakeSeries(const char* queue) {
  const MetricLabels labels{{"site", std::to_string(site_.id())},
                            {"queue", queue}};
  QueueSeries series;
  series.depth = &registry_.GetGauge("obiwan_queue_depth", labels,
                                     "Last sampled queue depth");
  series.samples = &registry_.GetHistogram(
      "obiwan_queue_depth_samples", labels, DepthBuckets(),
      "Distribution of sampled queue depths");
  return series;
}

void Profiler::Record(const QueueSeries& series, const char* queue,
                      std::int64_t depth, std::vector<QueueSample>& out) {
  series.depth->Set(depth);
  series.samples->Observe(depth);
  out.push_back(QueueSample{queue, depth});
}

ProfileReport Profiler::SampleOnce() {
  ProfileReport report;
  report.at = site_.clock().Now();

  Record(notify_retries_, "notify_retries",
         static_cast<std::int64_t>(site_.pending_notify_retries()),
         report.queues);
  Record(stale_replicas_, "stale_replicas",
         static_cast<std::int64_t>(site_.StaleReplicaIds().size()),
         report.queues);
  Record(fanout_inflight_, "fanout_inflight",
         static_cast<std::int64_t>(site_.notify_inflight()), report.queues);
  if (auto* tcp = dynamic_cast<net::TcpTransport*>(&site_.transport())) {
    Record(tcp_pool_idle_, "tcp_pool_idle",
           static_cast<std::int64_t>(tcp->idle_pooled_connections()),
           report.queues);
    Record(tcp_connections_, "tcp_connections",
           static_cast<std::int64_t>(tcp->active_connections()),
           report.queues);
  }
  // Process-wide: admin connections in flight across every served site.
  Record(admin_http_, "admin_http",
         registry_.SumGauges("obiwan_admin_http_active"), report.queues);

  report.locks = LockHotness(registry_, options_.top_k_locks);

  std::lock_guard lock(mutex_);
  last_ = report;
  return report;
}

void Profiler::Start() {
  {
    std::lock_guard lock(mutex_);
    if (running_) return;
    running_ = true;
  }
  worker_ = std::thread([this] { RunLoop(); });
}

void Profiler::Stop() {
  {
    std::lock_guard lock(mutex_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

ProfileReport Profiler::last() const {
  std::lock_guard lock(mutex_);
  return last_;
}

void Profiler::RunLoop() {
  std::unique_lock lock(mutex_);
  while (running_) {
    lock.unlock();
    SampleOnce();
    lock.lock();
    if (!running_) break;
    cv_.wait_for(lock, std::chrono::nanoseconds(options_.interval));
  }
}

// ---------------------------------------------------------------------------
// Process self-telemetry
// ---------------------------------------------------------------------------

void RefreshProcessGauges(MetricsRegistry& registry) {
#ifdef __linux__
  Gauge& rss = registry.GetGauge("obiwan_process_rss_bytes", {},
                                 "Resident set size of this process");
  Gauge& fds = registry.GetGauge("obiwan_process_open_fds", {},
                                 "Open file descriptors in this process");
  Gauge& threads = registry.GetGauge("obiwan_process_threads", {},
                                     "OS threads in this process");

  // RSS: /proc/self/statm field 2 (pages).
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size = 0, resident = 0;
    if (std::fscanf(f, "%lld %lld", &size, &resident) == 2) {
      rss.Set(static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE));
    }
    std::fclose(f);
  }

  // Open fds: entries in /proc/self/fd (minus ".", ".." and the dirfd the
  // scan itself holds open).
  if (DIR* dir = opendir("/proc/self/fd")) {
    std::int64_t count = 0;
    while (readdir(dir) != nullptr) ++count;
    closedir(dir);
    fds.Set(count > 3 ? count - 3 : 0);
  }

  // Threads: /proc/self/status "Threads:" line.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long long n = 0;
      if (std::sscanf(line, "Threads: %lld", &n) == 1) {
        threads.Set(static_cast<std::int64_t>(n));
        break;
      }
    }
    std::fclose(f);
  }
#else
  (void)registry;  // no procfs: gauges are simply absent
#endif
}

}  // namespace obiwan::obs
