// Contention baseline — lock-wait share under concurrent site traffic.
//
// The ROADMAP's sharded-object-table refactor claims the single site mutex
// is the scalability ceiling; this bench produces the evidence and the
// baseline to beat. T demander threads hammer one TCP site pair (refresh
// round trips, with a put every 4th op so holder fanout and invalidations
// run too) and the tracked locks (common/contention.h) record how long
// threads actually waited. The headline number is the wait share:
//
//   wait_share = Δ obiwan_lock_wait_ns.sum / (T × wall time)
//
// — the fraction of the run's total thread-time spent blocked on locks.
// It should sit near 0 single-threaded and grow with T while the site
// mutex serializes everything; the sharded-table refactor succeeds when
// this curve flattens. The JSON's "contention" section records the curve
// for CI to gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "common/contention.h"
#include "harness.h"
#include "net/tcp.h"

namespace obiwan::bench {
namespace {

const std::vector<long> kThreadCounts = {1, 2, 4, 8};
constexpr int kOpsPerThread = 12;
constexpr int kLocalBurst = 48;  // chain walks under the site lock per op
// Long chains and fat bursts keep threads inside the site lock for most of
// their runtime, so contention shows up even on a single-core box (a waiter
// only finds the lock held there when the holder was preempted
// mid-critical-section, which needs the hold share to dominate).
constexpr int kChainLength = 192;

struct RunResult {
  double wall_ms = 0;
  double wait_share = 0;        // blocked time / (threads × wall)
  double contended = 0;         // acquisitions that blocked, this run
  double site_wait_p99_ns = 0;  // "site" lock wait p99 over the whole run
};

// One measured run: T threads, each with its own master chain and replica,
// looping refresh round trips with a put (and its invalidation fanout)
// every 4th op. Sites are fresh per run; deltas against the process-wide
// registry isolate this run's lock traffic.
RunResult RunWorkload(long threads) {
  RunResult result;
  auto& reg = MetricsRegistry::Default();

  auto provider_tcp = net::TcpTransport::Create(0);
  auto demander_tcp = net::TcpTransport::Create(0);
  if (!provider_tcp.ok() || !demander_tcp.ok()) return result;
  core::Site provider(2, std::move(*provider_tcp));
  core::Site demander(1, std::move(*demander_tcp));
  if (!provider.Start().ok() || !demander.Start().ok()) return result;
  provider.HostRegistry();
  demander.UseRegistry(provider.address());

  std::vector<core::Ref<test::Node>> refs;
  for (long t = 0; t < threads; ++t) {
    const std::string name = "chain" + std::to_string(t);
    if (!provider.Rebind(name, test::MakeChain(kChainLength, 64, name)).ok()) {
      return result;
    }
    auto remote = demander.Lookup<test::Node>(name);
    if (!remote.ok()) return result;
    auto ref = remote->Replicate(core::ReplicationMode::Incremental(kChainLength));
    if (!ref.ok()) return result;
    refs.push_back(*ref);
  }

  const MergedHistogram wait_before = reg.MergeHistograms("obiwan_lock_wait_ns");
  const std::uint64_t contended_before =
      reg.SumCounters("obiwan_lock_contended_total");

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (long t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      core::Ref<test::Node>& ref = refs[t];
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Local burst: every thread walks its chain under its own object's
        // shard guard — the post-shard idiom for protecting application
        // reads against concurrent push/invalidate application. Before the
        // sharded table every thread serialized on one site mutex here; now
        // only threads whose chains hash to the same shard ever contend.
        // The whole burst is one critical section, so each hold spans
        // several scheduler preemption points and waiters pile up behind it
        // whenever the lock is actually shared.
        demander.WithObjectLock(ref, [&] {
          std::int64_t sum = 0;
          for (int j = 0; j < kLocalBurst; ++j) {
            for (core::Ref<test::Node>* cursor = &ref;
                 !cursor->IsEmpty() && !cursor->IsProxy();
                 cursor = &cursor->get()->next) {
              sum += cursor->get()->Touch();
            }
          }
          return sum;
        });
        if (i % 4 == 3) {
          // Reintegrate: the put fans invalidations back to this site.
          (void)demander.Put(ref);
        } else {
          (void)demander.Refresh(ref);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  const MergedHistogram wait_after = reg.MergeHistograms("obiwan_lock_wait_ns");
  result.wall_ms = wall_ns / static_cast<double>(kMilli);
  const double waited =
      static_cast<double>(wait_after.sum - wait_before.sum);
  result.wait_share =
      wall_ns > 0 ? waited / (static_cast<double>(threads) * wall_ns) : 0.0;
  result.contended = static_cast<double>(
      reg.SumCounters("obiwan_lock_contended_total") - contended_before);
  for (const LockSiteReport& lock : LockHotness(reg)) {
    if (lock.name == "site") result.site_wait_p99_ns = lock.wait_p99_ns;
  }
  return result;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

void PaperSeries() {
  std::vector<Series> series = {{"wait_share", {}},
                                {"wall_ms", {}},
                                {"contended", {}},
                                {"site_p99_us", {}}};
  for (long threads : kThreadCounts) {
    const RunResult r = RunWorkload(threads);
    series[0].values.push_back(r.wait_share);
    series[1].values.push_back(r.wall_ms);
    series[2].values.push_back(r.contended);
    series[3].values.push_back(r.site_wait_p99_ns / 1000.0);
  }
  PrintTable(
      "Lock contention: wait share of total thread-time (real TCP site pair)",
      "threads", kThreadCounts, series);
  std::printf("\n%s", LockHotnessText(
                          LockHotness(MetricsRegistry::Default())).c_str());

  const std::string contention_section =
      "\"contention\":{\"threads\":[1,2,4,8]"
      ",\"wait_share\":" + JsonArray(series[0].values) +
      ",\"wall_ms\":" + JsonArray(series[1].values) +
      ",\"contended\":" + JsonArray(series[2].values) +
      ",\"site_p99_us\":" + JsonArray(series[3].values) + "}";
  WriteBenchJson("contention", "threads", kThreadCounts, series,
                 {contention_section});
}

// Wrapper overhead on the uncontended fast path: one tracked lock/unlock
// round vs the bare mutex it wraps. This is the cost every critical section
// in the tree pays for the telemetry.
void BM_TrackedMutexLockUnlock(benchmark::State& state) {
  TrackedMutex mutex{"bench_overhead"};
  for (auto _ : state) {
    mutex.lock();
    mutex.unlock();
  }
}
BENCHMARK(BM_TrackedMutexLockUnlock);

void BM_PlainMutexLockUnlock(benchmark::State& state) {
  std::mutex mutex;
  for (auto _ : state) {
    mutex.lock();
    mutex.unlock();
  }
}
BENCHMARK(BM_PlainMutexLockUnlock);

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
