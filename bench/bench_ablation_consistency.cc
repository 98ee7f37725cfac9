// A3 — ablation: consistency-policy overhead and behaviour.
//
// The paper leaves consistency to pluggable protocols (§2.1). This bench
// quantifies what each ready-made policy costs on the put/get path (extra
// policy payload, invalidation traffic) and how many concurrent writes each
// one admits — the correctness/overhead trade-off an application buys into.
#include <benchmark/benchmark.h>

#include "harness.h"

namespace obiwan::bench {
namespace {

struct PolicyRun {
  double ms;
  std::uint64_t wire_bytes;
  std::uint64_t invalidations;
  int conflicts;
};

// Three sites; two demanders alternately edit and put the same object, each
// refreshing after a rejection (the offline-sync loop).
PolicyRun Run(const std::string& policy_name) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site master(1, network.CreateEndpoint("pc"), clock);
  core::Site laptop(2, network.CreateEndpoint("laptop"), clock);
  core::Site pda(3, network.CreateEndpoint("pda"), clock);
  (void)master.Start();
  (void)laptop.Start();
  (void)pda.Start();
  master.HostRegistry();
  laptop.UseRegistry("pc");
  pda.UseRegistry("pc");

  auto install = [&](core::Site& site, SiteId id) {
    if (policy_name == "lww") {
      site.SetConsistencyPolicy(std::make_unique<consistency::LastWriterWins>());
    } else if (policy_name == "version-vector") {
      site.SetConsistencyPolicy(std::make_unique<consistency::VersionVectorPolicy>(id));
    } else if (policy_name == "write-invalidate") {
      site.SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
    }
  };
  install(master, 1);
  install(laptop, 2);
  install(pda, 3);

  auto obj = test::MakeChain(1, 256, "o");
  (void)master.Bind("obj", obj);
  auto on_laptop = *laptop.Lookup<test::Node>("obj")->Replicate(
      core::ReplicationMode::Incremental(1));
  auto on_pda =
      *pda.Lookup<test::Node>("obj")->Replicate(core::ReplicationMode::Incremental(1));

  const std::uint64_t bytes_before = WireBytes(network.telemetry());
  int conflicts = 0;
  Stopwatch sw(clock);
  for (int round = 0; round < 50; ++round) {
    core::Site& writer = (round % 2 == 0) ? laptop : pda;
    core::Ref<test::Node>& ref = (round % 2 == 0) ? on_laptop : on_pda;
    ref->SetValue(round);
    clock.Sleep(kMilli);
    Status s = writer.Put(ref);
    if (!s.ok()) {
      ++conflicts;
      (void)writer.Refresh(ref);
      ref->SetValue(round);
      clock.Sleep(kMilli);
      (void)writer.Put(ref);
    }
  }
  return PolicyRun{sw.ElapsedMs(),
                   WireBytes(network.telemetry()) - bytes_before,
                   master.telemetry().invalidations_sent->Value(), conflicts};
}

void PaperSeries() {
  std::printf("=== Ablation A3: consistency policies on the put path ===\n");
  std::printf("(two writers alternating 50 puts on one 256 B object, "
              "refresh-and-retry on conflict)\n");
  std::printf("%18s %12s %12s %14s %12s\n", "policy", "time ms", "conflicts",
              "wire bytes", "invalidates");
  for (const char* policy : {"none", "lww", "version-vector", "write-invalidate"}) {
    PolicyRun r = Run(policy);
    std::printf("%18s %12.3f %12d %14llu %12llu\n", policy, r.ms, r.conflicts,
                static_cast<unsigned long long>(r.wire_bytes),
                static_cast<unsigned long long>(r.invalidations));
  }
  std::printf("\nExpected: 'none' is cheapest and admits every write; the "
              "checking policies add\npolicy payload and (for "
              "write-invalidate) invalidation messages, and turn\nstale "
              "writes into conflicts + refresh round trips.\n");
}

void BM_PutWithPolicy(benchmark::State& state) {
  net::LoopbackNetwork network;
  core::Site master(1, network.CreateEndpoint("pc"));
  core::Site client(2, network.CreateEndpoint("client"));
  (void)master.Start();
  (void)client.Start();
  master.HostRegistry();
  client.UseRegistry("pc");
  if (state.range(0) == 1) {
    master.SetConsistencyPolicy(std::make_unique<consistency::LastWriterWins>());
  } else if (state.range(0) == 2) {
    master.SetConsistencyPolicy(std::make_unique<consistency::VersionVectorPolicy>(1));
    client.SetConsistencyPolicy(std::make_unique<consistency::VersionVectorPolicy>(2));
  }
  auto obj = test::MakeChain(1, 256, "o");
  (void)master.Bind("obj", obj);
  auto ref =
      *client.Lookup<test::Node>("obj")->Replicate(core::ReplicationMode::Incremental(1));
  for (auto _ : state) {
    ref->SetValue(1);
    benchmark::DoNotOptimize(client.Put(ref));
  }
}
BENCHMARK(BM_PutWithPolicy)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
