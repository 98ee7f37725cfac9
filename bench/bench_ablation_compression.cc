// A7 — ablation: payload compression on narrow links.
//
// "OBIWAN attempts to minimize bandwidth and connection time" (§5). This
// ablation replays the Figure 6 workload (cluster replication of a 200-object
// list) on the wireless profile, with and without the CompressedTransport
// decorator, for payloads of varying compressibility — quantifying when the
// decorator pays for itself on a 50 kbit/s link.
#include <benchmark/benchmark.h>

#include <random>

#include "harness.h"
#include "net/compressed.h"

namespace obiwan::bench {
namespace {

constexpr int kListLength = 200;
constexpr std::size_t kPayload = 1024;

enum class PayloadKind { kZero, kText, kRandom };

std::shared_ptr<test::Node> MakeList(PayloadKind kind) {
  auto head = test::MakeChain(kListLength, kPayload, "n");
  std::mt19937_64 rng(17);
  const char* words = "replica proxy cluster demand provider obiwan mobile ";
  std::size_t wlen = std::char_traits<char>::length(words);
  for (test::Node* node = head.get(); node != nullptr;
       node = static_cast<test::Node*>(node->next.local_raw())) {
    switch (kind) {
      case PayloadKind::kZero:
        break;  // MakeChain already fills with a repeated byte
      case PayloadKind::kText:
        for (std::size_t i = 0; i < node->payload.size(); ++i) {
          node->payload[i] = static_cast<std::uint8_t>(words[i % wlen]);
        }
        break;
      case PayloadKind::kRandom:
        for (auto& b : node->payload) b = static_cast<std::uint8_t>(rng());
        break;
    }
  }
  return head;
}

struct RunResult {
  double ms;
  std::uint64_t wire_bytes;
};

RunResult Run(PayloadKind kind, bool compressed) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperWireless);
  auto endpoint = [&](const char* name) -> std::unique_ptr<net::Transport> {
    if (compressed) {
      return std::make_unique<net::CompressedTransport>(network.CreateEndpoint(name));
    }
    return network.CreateEndpoint(name);
  };
  core::Site provider(1, endpoint("p"), clock);
  core::Site demander(2, endpoint("d"), clock);
  (void)provider.Start();
  (void)demander.Start();
  provider.HostRegistry();
  demander.UseRegistry("p");

  (void)provider.Bind("list", MakeList(kind));
  auto remote = demander.Lookup<test::Node>("list");
  const std::uint64_t bytes_before = WireBytes(network.telemetry());

  Stopwatch sw(clock);
  auto ref = remote->Replicate(core::ReplicationMode::Cluster(kListLength));
  benchmark::DoNotOptimize(ref);
  return RunResult{sw.ElapsedMs(),
                   WireBytes(network.telemetry()) - bytes_before};
}

void PaperSeries() {
  std::printf("=== Ablation A7: compression on the wireless link ===\n");
  std::printf("(cluster replication of %d x %zu B objects at 50 kbit/s)\n",
              kListLength, kPayload);
  std::printf("%10s %14s %14s %14s %14s %8s\n", "payload", "raw ms", "comp ms",
              "raw bytes", "comp bytes", "ratio");
  struct Row {
    const char* name;
    PayloadKind kind;
  };
  for (Row row : {Row{"zeros", PayloadKind::kZero}, Row{"text", PayloadKind::kText},
                  Row{"random", PayloadKind::kRandom}}) {
    RunResult raw = Run(row.kind, false);
    RunResult comp = Run(row.kind, true);
    std::printf("%10s %14.1f %14.1f %14llu %14llu %7.1fx\n", row.name, raw.ms,
                comp.ms, static_cast<unsigned long long>(raw.wire_bytes),
                static_cast<unsigned long long>(comp.wire_bytes),
                static_cast<double>(raw.wire_bytes) /
                    static_cast<double>(comp.wire_bytes));
  }
  std::printf("\nExpected: compressible payloads transfer many times faster; "
              "random payloads\nbreak even (the raw-frame fallback costs one "
              "tag byte per message).\n");
}

void BM_CompressBatch(benchmark::State& state) {
  Bytes input(static_cast<std::size_t>(state.range(0)));
  const char* words = "replica proxy cluster demand provider ";
  std::size_t wlen = std::char_traits<char>::length(words);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>(words[i % wlen]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::Compress(AsView(input)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressBatch)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_DecompressBatch(benchmark::State& state) {
  Bytes input(static_cast<std::size_t>(state.range(0)));
  const char* words = "replica proxy cluster demand provider ";
  std::size_t wlen = std::char_traits<char>::length(words);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>(words[i % wlen]);
  }
  Bytes compressed = wire::Compress(AsView(input));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::Decompress(AsView(compressed)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecompressBatch)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

}  // namespace
}  // namespace obiwan::bench

int main(int argc, char** argv) {
  obiwan::bench::PaperSeries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
