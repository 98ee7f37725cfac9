// Shared benchmark harness.
//
// Every figure bench runs on the calibrated simulated network (net::kPaperLan:
// empty RMI round trip = 2.8 ms, 10 Mbit/s payload bandwidth — the paper's
// testbed constants) with a virtual clock, so the *network* component of each
// experiment is deterministic. Local CPU work (marshalling, proxy creation,
// local method invocation) is measured for real and added in, mirroring how
// the paper's wall-clock numbers combine the two. Each binary prints the
// paper-style series first, then runs its google-benchmark micro-benchmarks.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "common/trace_collector.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan::bench {

// Two sites on the paper's LAN: "s2" masters objects, "s1" demands them.
struct PaperEnv {
  explicit PaperEnv(net::LinkParams link = net::kPaperLan)
      : network(clock, link) {
    provider = std::make_unique<core::Site>(2, network.CreateEndpoint("s2"), clock);
    demander = std::make_unique<core::Site>(1, network.CreateEndpoint("s1"), clock);
    (void)provider->Start();
    (void)demander->Start();
    provider->HostRegistry();
    demander->UseRegistry("s2");
    // Calibrated per-proxy-pair export cost of the 2002 Java substrate
    // (UnicastRemoteObject export + stub bookkeeping) — the per-object
    // overhead §4.2 measures and clustering eliminates.
    provider->SetProxyExportCost(kProxyExportCost);
  }

  // Route both sites and the network into one tracer so WriteChromeTrace can
  // export the run as a single timeline. Off by default: the paper-series
  // numbers are measured untraced.
  void EnableTracing() {
    provider->SetTracer(&tracer);
    demander->SetTracer(&tracer);
    network.SetTracer(&tracer);
    phase_sinks.SetAttached(&tracer);
  }

  // Export everything recorded since EnableTracing() as Chrome trace JSON
  // (load in Perfetto / chrome://tracing).
  void WriteChromeTrace(const std::string& name) {
    TraceCollector collector;
    collector.Attach(&tracer);
    const std::string path = "BENCH_" + name + ".trace.json";
    Status s = collector.WriteChromeTrace(path);
    if (s.ok()) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
    }
  }

  static constexpr Nanos kProxyExportCost = 500 * kMicro;

  VirtualClock clock;
  net::SimNetwork network;
  std::unique_ptr<core::Site> provider;
  std::unique_ptr<core::Site> demander;
  Tracer tracer{8192};
  TraceSinks phase_sinks;  // records at SiteId 0 ("network/harness")
};

// Request plus reply payload bytes a network has carried so far. The
// counters are monotonic, so one phase's traffic is the difference of two
// reads.
inline std::uint64_t WireBytes(const net::TrafficTelemetry& traffic) {
  return traffic.request_bytes->Value() + traffic.reply_bytes->Value();
}

// Wraps one benchmark phase in a span at pid 0, so a traced run shows which
// protocol activity belongs to which phase of the experiment.
class PhaseSpan {
 public:
  PhaseSpan(PaperEnv& env, const std::string& name)
      : flow_(TraceContext::CurrentOrNew(0)),
        span_(&env.phase_sinks, env.clock, kInvalidSite, "phase", name,
              TraceContext::Current()) {}

 private:
  TraceContext::Scope flow_;
  SpanScope span_;
};

// Combined stopwatch: virtual network time + real CPU time.
class Stopwatch {
 public:
  explicit Stopwatch(VirtualClock& clock)
      : clock_(clock),
        sim_start_(clock.Now()),
        real_start_(std::chrono::steady_clock::now()) {}

  double ElapsedMs() const {
    double sim = static_cast<double>(clock_.Now() - sim_start_) / kMilli;
    double real = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - real_start_)
                      .count();
    return sim + real;
  }

 private:
  VirtualClock& clock_;
  Nanos sim_start_;
  std::chrono::steady_clock::time_point real_start_;
};

// Print a paper-style series table: one row per x value, one column per
// series.
struct Series {
  std::string name;
  std::vector<double> values;  // aligned with the x axis
};

inline void PrintTable(const std::string& title, const std::string& x_label,
                       const std::vector<long>& xs,
                       const std::vector<Series>& series) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%14s", x_label.c_str());
  for (const Series& s : series) std::printf("%16s", s.name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%14ld", xs[i]);
    for (const Series& s : series) {
      std::printf("%16.3f", i < s.values.size() ? s.values[i] : 0.0);
    }
    std::printf("\n");
  }
}

// Client-side RPC ops instrumented by core::Site (histogram label "op").
inline const std::vector<std::string>& RpcOps() {
  static const std::vector<std::string> ops = {
      "call", "get", "put", "commit", "ping", "release", "renew", "notify"};
  return ops;
}

// Per-op latency percentiles, aggregated across every site the benchmark
// created (subset label match over the per-instance series).
inline void PrintRpcLatency() {
  auto& reg = MetricsRegistry::Default();
  std::printf(
      "\n=== Client RPC latency on the site clock "
      "(obiwan_rmi_client_latency_ns) ===\n");
  std::printf("%10s%12s%14s%14s%14s%14s\n", "op", "count", "p50 (ns)",
              "p95 (ns)", "p99 (ns)", "max (ns)");
  for (const std::string& op : RpcOps()) {
    HistogramSummary s =
        reg.SummarizeHistograms("obiwan_rmi_client_latency_ns", {{"op", op}});
    if (s.count == 0) continue;
    std::printf("%10s%12llu%14.0f%14.0f%14.0f%14lld\n", op.c_str(),
                static_cast<unsigned long long>(s.count), s.p50, s.p95, s.p99,
                static_cast<long long>(s.max));
  }
}

// Transport-level connection behaviour, aggregated across every transport
// instance the benchmark created. connects_per_call is the bench-visible
// measure of what connection pooling buys: 1.0 means a fresh connection per
// request, ~0 means one persistent connection amortized over the run.
struct TransportSummary {
  std::uint64_t requests = 0;
  std::uint64_t connects = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t timeouts = 0;
  double connects_per_call = 0.0;
};

inline TransportSummary SummarizeTransports() {
  auto& reg = MetricsRegistry::Default();
  TransportSummary s;
  s.requests = reg.SumCounters("obiwan_transport_requests_total");
  s.connects = reg.SumCounters("obiwan_transport_connects_total");
  s.pool_hits = reg.SumCounters("obiwan_transport_pool_hits_total");
  s.timeouts = reg.SumCounters("obiwan_transport_timeouts_total");
  s.connects_per_call =
      s.requests > 0
          ? static_cast<double>(s.connects) / static_cast<double>(s.requests)
          : 0.0;
  return s;
}

inline void PrintTransportStats() {
  TransportSummary s = SummarizeTransports();
  if (s.requests == 0) return;
  std::printf("\n=== Transport connections ===\n");
  std::printf("%14s%14s%14s%14s%20s\n", "requests", "connects", "pool hits",
              "timeouts", "connects per call");
  std::printf("%14llu%14llu%14llu%14llu%20.4f\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.connects),
              static_cast<unsigned long long>(s.pool_hits),
              static_cast<unsigned long long>(s.timeouts),
              s.connects_per_call);
}

inline std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline std::string JsonHistogramSummary(const HistogramSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"sum\":%lld,\"max\":%lld,\"p50\":%.6g,"
                "\"p95\":%.6g,\"p99\":%.6g}",
                static_cast<unsigned long long>(s.count),
                static_cast<long long>(s.sum), static_cast<long long>(s.max),
                s.p50, s.p95, s.p99);
  return buf;
}

// Emit BENCH_<name>.json into the working directory: the paper-style series
// table, per-op latency summaries, and the full metrics registry dump. The
// schema is stable so CI can parse the file:
//   {"bench":..., "x_label":..., "xs":[...],
//    "series":[{"name":...,"values":[...]}],
//    "rpc_latency_ns":{"call":{"count":...,"p50":...},...},
//    "transport":{"requests":...,"connects":...,"pool_hits":...,
//                 "timeouts":...,"connects_per_call":...},
//    "metrics":{"counters":[...],"gauges":[...],"histograms":[...]}}
// `extra_sections` is spliced verbatim before "metrics" — each entry must be
// a complete `"key":value` fragment (e.g. the mobility bench's
// "reconvergence" experiment summary).
inline void WriteBenchJson(const std::string& name, const std::string& x_label,
                           const std::vector<long>& xs,
                           const std::vector<Series>& series,
                           const std::vector<std::string>& extra_sections = {}) {
  auto& reg = MetricsRegistry::Default();
  std::string out = "{\"bench\":\"" + name + "\",\"x_label\":\"" + x_label +
                    "\",\"xs\":[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(xs[i]);
  }
  out += "],\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":\"" + series[i].name + "\",\"values\":[";
    for (std::size_t j = 0; j < series[i].values.size(); ++j) {
      if (j != 0) out += ',';
      out += JsonNumber(series[i].values[j]);
    }
    out += "]}";
  }
  out += "],\"rpc_latency_ns\":{";
  bool first = true;
  for (const std::string& op : RpcOps()) {
    HistogramSummary s =
        reg.SummarizeHistograms("obiwan_rmi_client_latency_ns", {{"op", op}});
    if (s.count == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + op + "\":" + JsonHistogramSummary(s);
  }
  const TransportSummary transport = SummarizeTransports();
  out += "},\"transport\":{\"requests\":" + std::to_string(transport.requests) +
         ",\"connects\":" + std::to_string(transport.connects) +
         ",\"pool_hits\":" + std::to_string(transport.pool_hits) +
         ",\"timeouts\":" + std::to_string(transport.timeouts) +
         ",\"connects_per_call\":" + JsonNumber(transport.connects_per_call);
  out += "}";
  for (const std::string& section : extra_sections) {
    out += "," + section;
  }
  out += ",\"metrics\":" + reg.DumpJson() + "}\n";

  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s (%zu bytes)\n", path.c_str(), out.size());
}

}  // namespace obiwan::bench
