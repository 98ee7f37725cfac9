// Scale curves for the sharded object table — throughput vs cores and
// throughput vs resident object count.
//
// bench_contention measures how long threads *wait*; this bench measures
// what they *get done*. Two series, both over a real TCP site pair:
//
//   threads  : T demander threads on disjoint replicated chains, each op a
//              shard-guarded chain walk plus version/staleness probes, with
//              a Refresh round trip every 16th op. Under the old single
//              site mutex every local op serialized against every other
//              thread and against the protocol paths; with the sharded
//              table, disjoint chains touch disjoint shards and the only
//              shared state is the TCP pair. Throughput must not fall as
//              threads are added (CI gates thr_kops). Refresh round trips
//              overlap across threads, so the curve rises even on one core.
//
//   objects  : one thread over N resident replicas (N/128 chains of 128),
//              random version/staleness probes with a head Refresh every
//              16th op. The table's O(1) sharded lookups, and replication
//              gauges that are computed only when scraped, keep the per-op
//              cost independent of N; no protocol path rescans the table.
//
// The JSON's "scale" section records both curves for CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/contention.h"
#include "harness.h"
#include "net/tcp.h"

namespace obiwan::bench {
namespace {

const std::vector<long> kThreadCounts = {1, 2, 4, 8};
const std::vector<long> kObjectCounts = {256, 1024, 4096, 16384};
constexpr int kThreadChainLength = 64;   // objects per thread, threads series
constexpr int kObjectChainLength = 128;  // objects per chain, objects series
constexpr int kOpsPerThread = 256;
constexpr int kRefreshEvery = 16;

// One TCP provider/demander pair, fresh per measured run.
struct SitePair {
  SitePair() {
    auto provider_tcp = net::TcpTransport::Create(0);
    auto demander_tcp = net::TcpTransport::Create(0);
    if (!provider_tcp.ok() || !demander_tcp.ok()) return;
    provider = std::make_unique<core::Site>(2, std::move(*provider_tcp));
    demander = std::make_unique<core::Site>(1, std::move(*demander_tcp));
    if (!provider->Start().ok() || !demander->Start().ok()) return;
    provider->HostRegistry();
    demander->UseRegistry(provider->address());
    ok = true;
  }

  // Replicate a fresh chain of `length` nodes and return a ref per node.
  std::vector<core::Ref<test::Node>> ReplicateChain(int length,
                                                    const std::string& name) {
    std::vector<core::Ref<test::Node>> nodes;
    if (!provider->Rebind(name, test::MakeChain(length, 32, name)).ok()) {
      return nodes;
    }
    auto remote = demander->Lookup<test::Node>(name);
    if (!remote.ok()) return nodes;
    auto head = remote->Replicate(core::ReplicationMode::Incremental(length));
    if (!head.ok()) return nodes;
    for (core::Ref<test::Node>* cursor = &*head;
         !cursor->IsEmpty() && !cursor->IsProxy();
         cursor = &cursor->get()->next) {
      nodes.push_back(*cursor);
    }
    return nodes;
  }

  bool ok = false;
  std::unique_ptr<core::Site> provider;
  std::unique_ptr<core::Site> demander;
};

// Throughput in kops/s: T threads on disjoint chains, mostly-local op mix.
double RunThreadSeries(long threads) {
  SitePair pair;
  if (!pair.ok) return 0;

  std::vector<std::vector<core::Ref<test::Node>>> chains;
  for (long t = 0; t < threads; ++t) {
    chains.push_back(pair.ReplicateChain(kThreadChainLength,
                                         "chain" + std::to_string(t)));
    if (chains.back().empty()) return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (long t = 0; t < threads; ++t) {
    workers.emplace_back([&pair, &chains, t] {
      std::vector<core::Ref<test::Node>>& chain = chains[t];
      core::Ref<test::Node>& head = chain.front();
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % kRefreshEvery == kRefreshEvery - 1) {
          (void)pair.demander->Refresh(head);
          continue;
        }
        // Shard-guarded local work: walk the chain, then probe the
        // version/staleness of one node — the kind of read mix an
        // application thread issues between synchronisations.
        pair.demander->WithObjectLock(head, [&chain] {
          std::int64_t sum = 0;
          for (core::Ref<test::Node>& node : chain) sum += node.get()->value;
          return sum;
        });
        const core::Ref<test::Node>& probe = chain[i % chain.size()];
        (void)pair.demander->ReplicaVersion(probe);
        (void)pair.demander->IsStale(probe);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double ops = static_cast<double>(threads) * kOpsPerThread;
  return wall_s > 0 ? ops / wall_s / 1000.0 : 0;
}

// Throughput in kops/s: one thread probing N resident replicas.
double RunObjectSeries(long objects) {
  SitePair pair;
  if (!pair.ok) return 0;

  std::vector<core::Ref<test::Node>> all;
  std::vector<core::Ref<test::Node>> heads;
  for (long n = 0; n < objects; n += kObjectChainLength) {
    std::vector<core::Ref<test::Node>> chain = pair.ReplicateChain(
        kObjectChainLength,
        std::string("c").append(std::to_string(n / kObjectChainLength)));
    if (chain.empty()) return 0;
    heads.push_back(chain.front());
    all.insert(all.end(), chain.begin(), chain.end());
  }

  const long ops = 2 * objects;
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < ops; ++i) {
    if (i % kRefreshEvery == kRefreshEvery - 1) {
      (void)pair.demander->Refresh(heads[(i / kRefreshEvery) % heads.size()]);
      continue;
    }
    // Fixed multiplicative stride: deterministic, shard-hostile access order.
    const std::size_t idx =
        (static_cast<std::size_t>(i) * 2654435761u) % all.size();
    (void)pair.demander->ReplicaVersion(all[idx]);
    (void)pair.demander->IsStale(all[idx]);
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return wall_s > 0 ? static_cast<double>(ops) / wall_s / 1000.0 : 0;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonLongArray(const std::vector<long>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

void PaperSeries() {
  std::vector<Series> thread_series = {{"thr_kops", {}}};
  for (long threads : kThreadCounts) {
    thread_series[0].values.push_back(RunThreadSeries(threads));
  }
  PrintTable("Scale: throughput vs demander threads (disjoint chains, TCP)",
             "threads", kThreadCounts, thread_series);

  std::vector<Series> object_series = {{"obj_thr_kops", {}}};
  for (long objects : kObjectCounts) {
    object_series[0].values.push_back(RunObjectSeries(objects));
  }
  PrintTable("Scale: throughput vs resident replicas (one thread, TCP)",
             "objects", kObjectCounts, object_series);
  std::printf("\n%s", LockHotnessText(
                          LockHotness(MetricsRegistry::Default())).c_str());

  const std::string scale_section =
      "\"scale\":{\"threads\":" + JsonLongArray(kThreadCounts) +
      ",\"thr_kops\":" + JsonArray(thread_series[0].values) +
      ",\"objects\":" + JsonLongArray(kObjectCounts) +
      ",\"obj_thr_kops\":" + JsonArray(object_series[0].values) + "}";
  WriteBenchJson("scale", "threads", kThreadCounts, thread_series,
                 {scale_section});
}

// The table's uncontended fast path: one ShardGuard acquire/release plus a
// record lookup, the unit cost every protocol step now pays instead of the
// global mutex.
void BM_ShardGuardLookup(benchmark::State& state) {
  core::ObjectTable table;
  auto obj = std::make_shared<test::Node>();
  const ObjectId id{1, 42};
  {
    core::ObjectTable::ShardGuard guard(table, id);
    core::MasterEntry record;
    record.obj = obj;
    table.EmplaceMaster(id, std::move(record));
  }
  for (auto _ : state) {
    core::ObjectTable::ShardGuard guard(table, id);
    benchmark::DoNotOptimize(table.Master(id));
  }
}
BENCHMARK(BM_ShardGuardLookup);

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
