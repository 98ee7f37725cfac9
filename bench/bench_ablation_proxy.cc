// A1 — ablation: the proxy-pair overhead.
//
// §4.2 attributes incremental replication's cost to "the creation and
// transference of replicas along with the corresponding proxy-out/proxy-in
// pairs", and §4.3's whole improvement comes from collapsing N pairs into
// one. This ablation isolates that factor: identical workload (500-object
// list, full traversal), identical batch size, with per-object pairs
// (incremental) vs a single pair per batch (cluster) — reporting time,
// proxy-ins created, and bytes on the wire.
#include <benchmark/benchmark.h>

#include "harness.h"

namespace obiwan::bench {
namespace {

constexpr int kListLength = 500;

struct RunResult {
  double ms;
  std::uint64_t proxy_ins;
  std::uint64_t wire_bytes;
};

RunResult Run(core::ReplicationMode mode, std::size_t object_size) {
  PaperEnv env;
  auto head = test::MakeChain(kListLength, object_size, "n");
  (void)env.provider->Bind("list", head);
  auto remote = env.demander->Lookup<test::Node>("list");
  const std::uint64_t bytes_before = WireBytes(env.network.telemetry());
  const std::uint64_t pins_before =
      env.provider->telemetry().proxy_ins_created->Value();

  Stopwatch sw(env.clock);
  auto ref = remote->Replicate(mode);
  core::Ref<test::Node>* cursor = &*ref;
  while (!cursor->IsEmpty()) {
    benchmark::DoNotOptimize((*cursor)->Touch());
    cursor = &cursor->get()->next;
  }
  return RunResult{
      sw.ElapsedMs(),
      env.provider->telemetry().proxy_ins_created->Value() - pins_before,
      WireBytes(env.network.telemetry()) - bytes_before};
}

void PaperSeries() {
  std::printf("=== Ablation A1: per-object proxy pairs vs one pair per batch ===\n");
  std::printf("(500-object list, full traversal, 64 B objects)\n");
  std::printf("%10s %14s %14s %12s %12s %14s %14s\n", "batch", "incr ms",
              "cluster ms", "incr pins", "clus pins", "incr bytes", "clus bytes");
  for (std::uint32_t batch : {1u, 10u, 50u, 100u, 500u}) {
    RunResult incr = Run(core::ReplicationMode::Incremental(batch), 64);
    RunResult clus = Run(core::ReplicationMode::Cluster(batch), 64);
    std::printf("%10u %14.3f %14.3f %12llu %12llu %14llu %14llu\n", batch, incr.ms,
                clus.ms, static_cast<unsigned long long>(incr.proxy_ins),
                static_cast<unsigned long long>(clus.proxy_ins),
                static_cast<unsigned long long>(incr.wire_bytes),
                static_cast<unsigned long long>(clus.wire_bytes));
  }
  std::printf("\nExpected: incremental creates ~500 pins at every batch size "
              "(one per object);\ncluster creates ~(500/batch)*2; the time and "
              "byte gaps are the §4.2 vs §4.3 difference.\n");
}

// Real CPU cost of provider-side batch serialization, with and without
// per-object provider descriptors.
void BM_ServeGetBatch(benchmark::State& state) {
  net::LoopbackNetwork network;
  core::Site provider(2, network.CreateEndpoint("s2"));
  core::Site demander(1, network.CreateEndpoint("s1"));
  (void)provider.Start();
  (void)demander.Start();
  provider.HostRegistry();
  demander.UseRegistry("s2");
  const bool cluster = state.range(1) != 0;
  auto mode = cluster
                  ? core::ReplicationMode::Cluster(static_cast<std::uint32_t>(state.range(0)))
                  : core::ReplicationMode::Incremental(static_cast<std::uint32_t>(state.range(0)));
  auto head = test::MakeChain(static_cast<int>(state.range(0)), 64, "n");
  (void)provider.Bind("list", head);
  auto remote = demander.Lookup<test::Node>("list");
  for (auto _ : state) {
    benchmark::DoNotOptimize(remote->Replicate(mode));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServeGetBatch)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({100, 0})
    ->Args({100, 1});

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
