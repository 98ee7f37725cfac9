// Contention observatory: tracked-mutex wait/hold math on virtual clocks,
// histogram tail exemplars, the queue-depth profiler's deterministic sweep,
// lock-hotness ranking, the windowed lock-wait budget behind /healthz, and a
// concurrent scrape-vs-lock-traffic soak (the TSan target).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/contention.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "obiwan.h"
#include "obs/profiler.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

// ---------------------------------------------------------------------------
// Minimal HTTP client (same shape as obs_test.cc): one request per
// connection against Site::admin_address().
// ---------------------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply HttpGet(const std::string& address, const std::string& path) {
  HttpReply reply;
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) return reply;
  const std::string host = address.substr(0, colon);
  const int port = std::stoi(address.substr(colon + 1));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) raw.append(buf, n);
  ::close(fd);

  const auto space = raw.find(' ');
  if (space != std::string::npos) reply.status = std::atoi(raw.c_str() + space);
  const auto blank = raw.find("\r\n\r\n");
  if (blank != std::string::npos) reply.body = raw.substr(blank + 4);
  return reply;
}

MetricLabels Named(const char* name) { return MetricLabels{{"name", name}}; }

// ---------------------------------------------------------------------------
// TrackedMutex wait/hold math, deterministic on explicit clocks.
// ---------------------------------------------------------------------------

TEST(ContentionLock, UncontendedHoldMathOnVirtualClock) {
  MetricsRegistry reg;
  VirtualClock clock;
  TrackedMutex mutex;
  mutex.BindTo(reg, "t_hold", clock);

  mutex.lock();
  clock.Sleep(5 * kMilli);
  mutex.unlock();

  const auto hold = reg.SummarizeHistograms("obiwan_lock_hold_ns",
                                            Named("t_hold"));
  EXPECT_EQ(hold.count, 1u);
  EXPECT_EQ(hold.sum, 5 * kMilli);
  EXPECT_EQ(reg.SumCounters("obiwan_lock_acquisitions_total", Named("t_hold")),
            1u);
  EXPECT_EQ(reg.SumCounters("obiwan_lock_contended_total", Named("t_hold")),
            0u);
  // Uncontended acquisitions record no wait sample at all (their wait is 0
  // by definition; an empty series keeps the wait histogram pure signal).
  EXPECT_EQ(
      reg.SummarizeHistograms("obiwan_lock_wait_ns", Named("t_hold")).count,
      0u);
}

// A virtual clock that counts its reads.
class CountingClock final : public Clock {
 public:
  Nanos Now() const override {
    ++reads_;
    return now_;
  }
  void Sleep(Nanos d) override { now_ += d; }
  int reads() const { return reads_; }

 private:
  Nanos now_ = 0;
  mutable int reads_ = 0;
};

TEST(ContentionLock, UncontendedAcquisitionsReadTheClockOnlyForSampledHolds) {
  MetricsRegistry reg;
  CountingClock clock;
  TrackedMutex mutex;
  mutex.BindTo(reg, "t_sampled", clock);

  for (int i = 0; i < 1000; ++i) {
    mutex.lock();
    clock.Sleep(kMicro);
    mutex.unlock();
  }

  // Holds 0, 64, ..., 960 are timed, with two reads each. Hold 0 stands for
  // itself and each later one for 64, so the histogram counts 1 + 15 * 64.
  EXPECT_EQ(clock.reads(), 32);
  const auto hold = reg.SummarizeHistograms("obiwan_lock_hold_ns",
                                            Named("t_sampled"));
  EXPECT_EQ(hold.count, 961u);
  EXPECT_EQ(hold.sum, 961 * kMicro);
  EXPECT_EQ(
      reg.SumCounters("obiwan_lock_acquisitions_total", Named("t_sampled")),
      1000u);
}

// Thread-safe explicit clock for cross-thread determinism (VirtualClock is
// single-threaded by design).
class AtomicTestClock final : public Clock {
 public:
  Nanos Now() const override { return now_.load(std::memory_order_acquire); }
  void Sleep(Nanos d) override {
    if (d > 0) now_.fetch_add(d, std::memory_order_acq_rel);
  }

 private:
  std::atomic<Nanos> now_{0};
};

TEST(ContentionLock, ContendedWaitMeasuredDeterministically) {
  MetricsRegistry reg;
  AtomicTestClock clock;
  TrackedMutex mutex;
  mutex.BindTo(reg, "t_wait", clock);

  mutex.lock();  // holder: the waiter must take the contended path
  std::thread waiter([&] {
    mutex.lock();
    mutex.unlock();
  });
  // The contended path reads its wait timestamp *before* announcing the
  // waiter (see contention.cc), so once the gauge reads 1 the blocked thread
  // has sampled t=0 and the clock may be advanced without racing it.
  while (reg.SumGauges("obiwan_lock_waiters", Named("t_wait")) != 1) {
    std::this_thread::yield();
  }
  clock.Sleep(5 * kMilli);
  mutex.unlock();
  waiter.join();

  const auto wait = reg.SummarizeHistograms("obiwan_lock_wait_ns",
                                            Named("t_wait"));
  EXPECT_EQ(wait.count, 1u);
  EXPECT_EQ(wait.sum, 5 * kMilli);
  EXPECT_EQ(reg.SumCounters("obiwan_lock_contended_total", Named("t_wait")),
            1u);
  EXPECT_EQ(reg.SumCounters("obiwan_lock_acquisitions_total", Named("t_wait")),
            2u);
  EXPECT_EQ(reg.SumGauges("obiwan_lock_waiters", Named("t_wait")), 0);
}

// ---------------------------------------------------------------------------
// Histogram tail exemplars.
// ---------------------------------------------------------------------------

TEST(ContentionExemplar, CapturesActiveTraceAboveThreshold) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test_tail_ns", {},
                                  ExponentialBuckets(100, 2.0, 10));
  h.SetExemplarThreshold(500);
  {
    TraceContext::Scope scope(TraceId{1, 7});
    h.Observe(800);
  }

  const auto exemplars = h.Exemplars();
  ASSERT_EQ(exemplars.size(), 1u);
  EXPECT_EQ(exemplars[0].value, 800);
  EXPECT_EQ(exemplars[0].trace, (TraceId{1, 7}));

  // OpenMetrics rendering: the owning _bucket line carries the exemplar.
  const std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find(" # {trace_id=\"trace(1:7)\"} 800"), std::string::npos)
      << prom;
  // JSON rendering for the bench harness.
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"tail_exemplars\":[{\"value\":800"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"trace(1:7)\""), std::string::npos);
}

TEST(ContentionExemplar, SkipsWithoutTraceBelowThresholdOrWhenDisabled) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test_tail_ns", {},
                                  ExponentialBuckets(100, 2.0, 10));

  {
    // Disabled by default (threshold < 0): even a traced observation passes.
    TraceContext::Scope scope(TraceId{1, 8});
    h.Observe(900);
  }
  EXPECT_TRUE(h.Exemplars().empty());

  h.SetExemplarThreshold(500);
  h.Observe(900);  // no active trace: nothing to link back to
  {
    TraceContext::Scope scope(TraceId{1, 9});
    h.Observe(100);  // traced but below the tail threshold
  }
  EXPECT_TRUE(h.Exemplars().empty());
  EXPECT_EQ(reg.DumpPrometheus().find(" # {"), std::string::npos);
}

TEST(ContentionExemplar, RingKeepsMostRecentCaptures) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("test_tail_ns", {},
                                  ExponentialBuckets(100, 2.0, 10));
  h.SetExemplarThreshold(0);
  TraceContext::Scope scope(TraceId{2, 1});
  const int observations = static_cast<int>(Histogram::kExemplarSlots) + 4;
  for (int i = 0; i < observations; ++i) h.Observe(1000 + i);

  const auto exemplars = h.Exemplars();
  ASSERT_EQ(exemplars.size(), Histogram::kExemplarSlots);
  // Oldest retained first; the first 4 captures were evicted.
  EXPECT_EQ(exemplars.front().value, 1004);
  EXPECT_EQ(exemplars.back().value, 1000 + observations - 1);
}

// ---------------------------------------------------------------------------
// Profiler: deterministic queue-depth sweep.
// ---------------------------------------------------------------------------

TEST(ContentionProfiler, SampleOnceReadsQueuesDeterministically) {
  net::LoopbackNetwork network;
  core::Site provider(85, network.CreateEndpoint("prov"));
  core::Site demander(86, network.CreateEndpoint("dem"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("prov");
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());

  auto doc = std::make_shared<Node>();
  ASSERT_TRUE(provider.Bind("doc", doc).ok());
  const ObjectId oid = provider.Export(doc);
  auto remote = demander.Lookup<Node>("doc");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  MetricsRegistry reg;
  obs::Profiler profiler(demander, reg);

  // Quiet site: everything empty.
  obs::ProfileReport before = profiler.SampleOnce();
  auto depth_of = [](const obs::ProfileReport& r, const std::string& queue) {
    for (const obs::QueueSample& q : r.queues) {
      if (q.queue == queue) return q.depth;
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(depth_of(before, "stale_replicas"), 0);
  EXPECT_EQ(depth_of(before, "fanout_inflight"), 0);
  // Loopback transport: no TCP pool series at all.
  EXPECT_EQ(depth_of(before, "tcp_pool_idle"), -1);

  // Invalidate the replica; the next sweep must see the backlog.
  doc->SetValue(42);
  ASSERT_TRUE(provider.MarkMasterUpdated(oid).ok());
  obs::ProfileReport after = profiler.SampleOnce();
  EXPECT_EQ(depth_of(after, "stale_replicas"), 1);

  // The sweep fed the gauge and remembered the report.
  EXPECT_EQ(reg.SumGauges("obiwan_queue_depth",
                          {{"site", "86"}, {"queue", "stale_replicas"}}),
            1);
  EXPECT_EQ(
      reg.SummarizeHistograms("obiwan_queue_depth_samples",
                              {{"queue", "stale_replicas"}})
          .count,
      2u);
  EXPECT_NE(profiler.last().ToJson().find(
                "{\"queue\":\"stale_replicas\",\"depth\":1}"),
            std::string::npos);
  EXPECT_NE(after.ToText().find("stale_replicas"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lock-hotness ranking and the windowed wait budget.
// ---------------------------------------------------------------------------

TEST(ContentionHotness, RanksByTotalWaitWithStableTies) {
  MetricsRegistry reg;
  BindLockStats(reg, "alpha")->wait->Observe(50);
  BindLockStats(reg, "beta")->wait->Observe(100);
  BindLockStats(reg, "gamma")->wait->Observe(50);

  const auto rows = LockHotness(reg);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "beta");
  // Equal wait totals: name ascending, so repeated reports don't flap.
  EXPECT_EQ(rows[1].name, "alpha");
  EXPECT_EQ(rows[2].name, "gamma");
  EXPECT_EQ(rows[0].wait_total_ns, 100);

  const auto top2 = LockHotness(reg, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[1].name, "alpha");

  const std::string text = LockHotnessText(rows);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(LockHotnessText({}).find("no tracked locks"), std::string::npos);
}

TEST(ContentionWindow, BaselinesThenReportsPerWindowP99) {
  MetricsRegistry reg;
  LockWaitWindow window(reg);
  EXPECT_EQ(window.WindowP99(), 0);  // no lock series registered yet

  LockStats* stats = BindLockStats(reg, "w");
  stats->wait->Observe(2 * kMilli);
  EXPECT_EQ(window.WindowP99(), 0);  // first sight of the series: baseline

  stats->wait->Observe(8 * kMilli);
  const double p99 = window.WindowP99();
  EXPECT_GT(p99, static_cast<double>(4 * kMilli));  // only the 8ms is in-window

  EXPECT_EQ(window.WindowP99(), 0);  // quiet window: all-time history ignored
}

// ---------------------------------------------------------------------------
// /healthz lock-starvation budget (opt-in via AdminOptions).
// ---------------------------------------------------------------------------

TEST(ContentionHealthz, LockWaitBudgetFlipsReadiness) {
  auto transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(transport.ok());
  core::Site site(87, std::move(*transport));
  ASSERT_TRUE(site.Start().ok());
  site.HostRegistry();

  core::Site::AdminOptions options;
  options.lock_wait_budget = 1 * kMilli;
  ASSERT_TRUE(site.ServeAdmin("0", options).ok());

  // First probe baselines the window.
  EXPECT_EQ(HttpGet(site.admin_address(), "/healthz").status, 200);

  // Inject a wait an order of magnitude over budget into the default
  // registry through a real contended tracked mutex.
  TrackedMutex slow{"healthz_inject"};
  slow.lock();
  std::thread blocked([&] {
    slow.lock();
    slow.unlock();
  });
  while (MetricsRegistry::Default().SumGauges("obiwan_lock_waiters",
                                              Named("healthz_inject")) != 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  slow.unlock();
  blocked.join();

  const HttpReply starved = HttpGet(site.admin_address(), "/healthz");
  EXPECT_EQ(starved.status, 503);
  EXPECT_NE(starved.body.find("\"status\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(starved.body.find("lock_wait_p99_ns"), std::string::npos);
  EXPECT_NE(starved.body.find("\"lock_wait_budget\":1000000"),
            std::string::npos);

  // Quiet windows recover; other suites' background lock traffic may leak a
  // small wait into a window, so poll briefly rather than assert one-shot.
  int status = 0;
  for (int i = 0; i < 50 && status != 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = HttpGet(site.admin_address(), "/healthz").status;
  }
  EXPECT_EQ(status, 200);
}

// ---------------------------------------------------------------------------
// Admin surface: /profile.json and /contention.
// ---------------------------------------------------------------------------

TEST(ContentionAdmin, ServesProfileAndContentionReports) {
  auto transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(transport.ok());
  core::Site site(88, std::move(*transport));
  ASSERT_TRUE(site.Start().ok());
  site.HostRegistry();
  ASSERT_TRUE(site.Bind("doc", test::MakeChain(2, 16)).ok());
  ASSERT_TRUE(site.ServeAdmin("0").ok());

  const HttpReply profile = HttpGet(site.admin_address(), "/profile.json");
  EXPECT_EQ(profile.status, 200);
  EXPECT_NE(profile.body.find("\"queues\":["), std::string::npos);
  EXPECT_NE(profile.body.find("\"queue\":\"stale_replicas\""),
            std::string::npos);
  // TCP transport: the pool series exists for this site.
  EXPECT_NE(profile.body.find("\"queue\":\"tcp_pool_idle\""),
            std::string::npos);
  EXPECT_NE(profile.body.find("\"locks\":["), std::string::npos);

  const HttpReply contention = HttpGet(site.admin_address(), "/contention");
  EXPECT_EQ(contention.status, 200);
  EXPECT_NE(contention.body.find("lock hotness"), std::string::npos);
  // The site mutex is tracked process-wide, so it must appear in the report.
  EXPECT_NE(contention.body.find("site"), std::string::npos);

  // A scrape exposes the lock families and the process self-telemetry.
  const HttpReply metrics = HttpGet(site.admin_address(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE obiwan_lock_wait_ns histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("obiwan_lock_acquisitions_total{"),
            std::string::npos);
#ifdef __linux__
  EXPECT_NE(metrics.body.find("obiwan_process_rss_bytes"), std::string::npos);
  EXPECT_NE(metrics.body.find("obiwan_process_threads"), std::string::npos);
#endif
}

// ---------------------------------------------------------------------------
// Soak: scrapes racing contended lock traffic and exemplar captures (TSan).
// ---------------------------------------------------------------------------

TEST(ContentionSoak, ScrapesRaceContendedLocksAndExemplars) {
  auto& reg = MetricsRegistry::Default();
  Histogram& tail = reg.GetHistogram("obiwan_soak_tail_ns", {},
                                     ExponentialBuckets(100, 2.0, 10));
  tail.SetExemplarThreshold(0);
  TrackedMutex mutex{"soak"};

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        TraceContext::Scope scope(TraceId{static_cast<SiteId>(t + 1),
                                          static_cast<std::uint64_t>(i + 1)});
        mutex.lock();
        tail.Observe(1000 + i);
        mutex.unlock();
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.DumpPrometheus();
      (void)reg.DumpJson();
      (void)LockHotness(reg);
      (void)tail.Exemplars();
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GE(reg.SumCounters("obiwan_lock_acquisitions_total", Named("soak")),
            1600u);
  EXPECT_FALSE(tail.Exemplars().empty());
}

}  // namespace
}  // namespace obiwan
