// OBIWAN wall-clock benchmark: one workload per process, closed loop, real
// core::Site instances over TCP on 127.0.0.1. perfbench/run.py builds this
// binary and forwards its arguments:
//
//   perfbench --workload <rmi_invoke|fault_walk|put_push> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures for the whole duration and reports the end-to-end
// metrics. --trace 1 measures an untraced half (registry deltas, the
// overhead baseline) and a traced half (spans around every call into a
// layer), runs the calibration probes, and reports the per-layer ledger.
// Reported times are at nominal host speed (reference.h); the wall-clock
// figures are printed too. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when a correctness check fails.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "common/metrics.h"
#include "common/trace_collector.h"
#include "ledger.h"
#include "probes.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 11;
constexpr std::size_t kSpanCapacity = 1 << 16;
constexpr int kProbeRequests = 2000;
constexpr double kSliceSeconds = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  return argc % 2 == 1 &&
         std::find(names.begin(), names.end(), args.workload) != names.end() &&
         args.seconds > 0 && args.seconds <= 120 &&
         (args.trace == 0 || args.trace == 1);
}

// VmHWM: the process's peak resident set, in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// vCPU time the hypervisor gave to other guests (steal), summed over all
// vCPUs, from /proc/stat, in seconds.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t ticks[8] = {};
  stat >> cpu;
  for (std::uint64_t& t : ticks) stat >> t;
  return static_cast<double>(ticks[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Idle ticks (idle + iowait) of each vCPU, from /proc/stat, by CPU number.
std::map<int, std::uint64_t> IdleTicks() {
  std::ifstream stat("/proc/stat");
  std::map<int, std::uint64_t> idle;
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || !std::isdigit(line[3])) {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    std::uint64_t ticks[5] = {};
    fields >> cpu;
    for (std::uint64_t& t : ticks) fields >> t;
    idle[cpu] = ticks[3] + ticks[4];
  }
  return idle;
}

// Restricts this process, and every thread it starts later, to the one
// allowed vCPU that was idle the longest over `sample`. On one vCPU a
// request hands over to the serving thread without waking an idle vCPU,
// whose wake-up cost on this VM swings with neighbour load and would
// otherwise dominate small calls. Returns that CPU, or -1 when the affinity
// could not be read or set.
int PinToIdlestCpu(std::chrono::milliseconds sample) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  const std::map<int, std::uint64_t> before = IdleTicks();
  std::this_thread::sleep_for(sample);
  const std::map<int, std::uint64_t> after = IdleTicks();
  int best = -1;
  std::uint64_t best_idle = 0;
  for (const auto& [cpu, ticks] : after) {
    const auto it = before.find(cpu);
    if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed) || it == before.end()) {
      continue;
    }
    const std::uint64_t idle = ticks - it->second;
    if (best < 0 || idle > best_idle) {
      best = cpu;
      best_idle = idle;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? best : -1;
}

// A measured phase, run as consecutive slices of about kSliceSeconds with
// the host reference task timed between them. Each slice's times are scaled
// by the mean of the task times around it; the raw figures keep the wall
// clock. Rates and sessions count process CPU time, which leaves out the
// time a neighbour's process held the benchmark's vCPU. Samples are
// histograms, so the benchmark's own memory (part of peak_rss_mb) does not
// grow with the program's throughput.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  double scaled_cpu_s = 0;
  Samples op_ns;
  Samples scaled_op_ns;
  Samples scaled_session_cpu_ns;
  Samples task_ns;  // the reference task, once per slice boundary
  double steal_s = 0;

  double completed() const { return static_cast<double>(attempted - failed); }
};

Phase Measure(Workload& workload, HostReference& reference, double seconds,
              const obiwan::TraceSinks* spans) {
  const int slices =
      std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
  const auto each = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds / slices));
  Phase phase;
  const double steal = StealSeconds();
  double before_us = reference.TaskUs();
  phase.task_ns.Add(std::llround(before_us * 1e3));
  for (int i = 0; i < slices; ++i) {
    const std::int64_t cpu0 = CpuNowNs();
    const PhaseResult r = workload.Run(each, spans);
    const double cpu_s = static_cast<double>(CpuNowNs() - cpu0) / 1e9;
    const double after_us = reference.TaskUs();
    const double scale = kNominalTaskUs / ((before_us + after_us) / 2);
    phase.attempted += r.attempted;
    phase.failed += r.failed;
    phase.elapsed_s += r.elapsed_s;
    phase.cpu_s += cpu_s;
    phase.scaled_cpu_s += cpu_s * scale;
    phase.op_ns.Append(r.op_ns);
    phase.scaled_op_ns.AppendScaled(r.op_ns, scale);
    phase.scaled_session_cpu_ns.AppendScaled(r.session_cpu_ns, scale);
    phase.task_ns.Add(std::llround(after_us * 1e3));
    before_us = after_us;
  }
  phase.steal_s = StealSeconds() - steal;
  return phase;
}

void EndToEnd(const Samples& setup, const Phase& run, const RegistryDelta& delta,
              MetricSet& m) {
  const double wire_bytes =
      static_cast<double>(delta.Count("transport.request_bytes") +
                          delta.Count("transport.reply_bytes"));
  m.Add("setup_s", setup.Percentile(0.5) / 1e9, "s");
  m.Add("ops_per_s", Ratio(run.completed(), run.scaled_cpu_s), "ops/s");
  m.Add("op_p50_us", run.scaled_op_ns.Percentile(0.50) / 1e3, "us");
  m.Add("wire_bytes_per_op", Ratio(wire_bytes, run.completed()), "B");
  m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  m.Add("walk_ms_p50", run.scaled_session_cpu_ns.Percentile(0.5) / 1e6, "ms");
}

// Registry-delta metrics come from the untraced half (the bench's own
// tracer would otherwise show up in the lock ledger); span metrics and the
// probes from the traced half.
void LayerLedger(Workload& workload, const Phase& untraced,
                 const RegistryDelta& delta, const Phase& traced,
                 const obiwan::Tracer& tracer, const obiwan::TraceSinks* spans,
                 MetricSet& m) {
  const double ops = untraced.completed();
  const auto count = [&](const char* key) {
    return static_cast<double>(delta.Count(key));
  };

  // The tail and the unscaled clock, which no bound could hold on a shared
  // host, and the host's speed while measuring.
  m.Add("op_p99_us", untraced.scaled_op_ns.Percentile(0.99) / 1e3, "us");
  m.Add("wall.op_p50_us", untraced.op_ns.Percentile(0.50) / 1e3, "us");
  m.Add("host.task_us.p50", untraced.task_ns.Percentile(0.5) / 1e3, "us");

  // net: echoes at the frame sizes of rmi_invoke, put_push and fault_walk.
  const std::pair<std::size_t, const char*> frames[] = {
      {64, "64B"}, {4096, "4KiB"}, {16384, "16KiB"}};
  for (const auto& [bytes, label] : frames) {
    m.Add(std::string("net.echo_rtt_us.p50.") + label,
          EchoRttUs(bytes, kProbeRequests, spans), "us");
  }
  const double requests = count("transport.requests");
  m.Add("net.requests_per_op", Ratio(requests, ops), "req/op");
  m.Add("net.connects_per_request", Ratio(count("transport.connects"), requests),
        "conn/req");

  // rmi
  m.Add("rmi.ping_rtt_us.p50",
        PingRttUs(workload.client(), workload.provider_address(), kProbeRequests,
                  spans),
        "us");
  for (const char* kind : {"call", "get", "put", "push"}) {
    m.Add(std::string("rmi.server_us.p50.") + kind,
          delta.HistPercentile(std::string("server.") + kind, 0.5) / 1e3, "us");
  }

  // wire
  const WireCost get_reply = GetReplyCost(spans);
  const WireCost record = PushRecordCost(spans);
  m.Add("wire.encode_ns_per_byte.get_reply", get_reply.encode_ns_per_byte, "ns/B");
  m.Add("wire.decode_ns_per_byte.get_reply", get_reply.decode_ns_per_byte, "ns/B");
  m.Add("wire.encode_ns_per_byte.record", record.encode_ns_per_byte, "ns/B");
  m.Add("wire.decode_ns_per_byte.record", record.decode_ns_per_byte, "ns/B");

  // core (site + object table)
  Samples table_probe;
  workload.ProbeTable(4096, spans, table_probe);
  std::map<std::string, Samples> by_span = SpanDurations(tracer);
  const double gets = count("site.gets_sent");
  m.Add("core.demand_us.p50", by_span["core/demand"].Percentile(0.5) / 1e3, "us");
  m.Add("core.objects_per_fault", Ratio(count("site.replicas_created"), gets),
        "obj/get");
  m.Add("core.proxy_outs_per_fault",
        Ratio(count("site.proxy_outs_created"), gets), "proxy/get");
  m.Add("core.proxy_ins_per_op", Ratio(count("site.proxy_ins_created"), ops),
        "proxy/op");
  m.Add("core.table_probe_ns", table_probe.Percentile(0.5), "ns");
  m.Add("core.evict_us_per_session", by_span["core/evict"].Mean() / 1e3, "us");

  // core fanout
  m.Add("fanout.notify_us.p50", delta.HistPercentile("client.notify", 0.50) / 1e3,
        "us");
  m.Add("fanout.notify_us.p99", delta.HistPercentile("client.notify", 0.99) / 1e3,
        "us");
  m.Add("fanout.notifies_per_put",
        Ratio(static_cast<double>(delta.HistCount("client.notify")), ops),
        "notify/op");
  m.Add("fanout.retries", count("site.notify_retries"), "count");

  // common (locks, telemetry)
  for (const std::string& lock : LedgerLocks()) {
    const std::string key = "lock." + lock;
    m.Add(key + ".contended_ratio",
          Ratio(static_cast<double>(delta.Count(key + ".contended")),
                static_cast<double>(delta.Count(key + ".acquisitions"))),
          "ratio");
    m.Add(key + ".wait_us_per_op",
          Ratio(static_cast<double>(delta.HistSum(key + ".wait")) / 1e3, ops),
          "us/op");
  }
  m.Add("trace.overhead_ratio",
        Ratio(traced.scaled_op_ns.Percentile(0.5),
              untraced.scaled_op_ns.Percentile(0.5)),
        "ratio");
}

void PrintPhase(const char* name, const Phase& p) {
  std::printf(
      "%s: %llu ops attempted, %llu failed in %.1f s (%.1f s of process "
      "CPU); wall clock: %.0f ops/s, op p50 %.1f us, p99 %.1f us; at nominal "
      "host speed: %.0f ops per CPU-second, op p50 %.1f us, p99 %.1f us, "
      "session p50 %.2f ms of CPU\n",
      name, static_cast<unsigned long long>(p.attempted),
      static_cast<unsigned long long>(p.failed), p.elapsed_s, p.cpu_s,
      Ratio(p.completed(), p.elapsed_s), p.op_ns.Percentile(0.5) / 1e3,
      p.op_ns.Percentile(0.99) / 1e3, Ratio(p.completed(), p.scaled_cpu_s),
      p.scaled_op_ns.Percentile(0.5) / 1e3, p.scaled_op_ns.Percentile(0.99) / 1e3,
      p.scaled_session_cpu_ns.Percentile(0.5) / 1e6);
  std::printf(
      "%s host: reference task p10 %.1f / p50 %.1f / p90 %.1f us (nominal "
      "%.0f us), %.2f s of vCPU time stolen by the hypervisor\n",
      name, p.task_ns.Percentile(0.1) / 1e3, p.task_ns.Percentile(0.5) / 1e3,
      p.task_ns.Percentile(0.9) / 1e3, kNominalTaskUs, p.steal_s);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <rmi_invoke|fault_walk|put_push> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }

  // Before any thread starts, so that every site thread inherits the pin.
  const int cpu = PinToIdlestCpu(std::chrono::milliseconds(300));
  std::unique_ptr<HostReference> reference = HostReference::Create();
  if (reference == nullptr) {
    std::fprintf(stderr, "cannot open the reference task's loopback connection\n");
    return 1;
  }

  // Set up several times and keep the last environment: setup_s is the
  // median, so one slow set-up does not decide it.
  Samples setup;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    workload.reset();
    std::unique_ptr<Workload> candidate = MakeWorkload(args.workload, args.seed);
    const double before_us = reference->TaskUs();
    const std::int64_t t0 = NowNs();
    obiwan::Status s = candidate->Setup();
    const std::int64_t elapsed = NowNs() - t0;
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const double after_us = reference->TaskUs();
    setup.Add(std::llround(static_cast<double>(elapsed) * kNominalTaskUs /
                           ((before_us + after_us) / 2)));
    workload = std::move(candidate);
  }

  std::printf(
      "run: workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s "
      "transport=tcp/127.0.0.1 (loopback, not a real link) clients=%d "
      "connections=%d closed-loop, all threads on cpu %d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, std::thread::hardware_concurrency(),
      std::string(obiwan::BuildFlags()).c_str(), workload->clients(),
      workload->connections(), cpu);

  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Phase untraced = Measure(*workload, *reference, phase_s, nullptr);
  const RegistrySnapshot after = RegistrySnapshot::Take();
  const RegistryDelta delta(before, after);
  PrintPhase("untraced", untraced);

  MetricSet metrics;
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  if (args.trace == 0) {
    EndToEnd(setup, untraced, delta, metrics);
  } else {
    obiwan::Tracer tracer(kSpanCapacity);
    obiwan::TraceSinks spans;
    spans.SetAttached(&tracer);
    const Phase traced = Measure(*workload, *reference, phase_s, &spans);
    PrintPhase("traced", traced);
    attempted += traced.attempted;
    failed += traced.failed;
    LayerLedger(*workload, untraced, delta, traced, tracer, &spans, metrics);
    std::printf("spans: %llu recorded, %llu dropped from the ring\n",
                static_cast<unsigned long long>(tracer.spans_recorded()),
                static_cast<unsigned long long>(tracer.spans_dropped()));
    if (!args.trace_out.empty()) {
      obiwan::TraceCollector collector;
      collector.Attach(&tracer);
      obiwan::Status s = collector.WriteChromeTrace(args.trace_out);
      std::printf("trace: %s\n",
                  s.ok() ? args.trace_out.c_str() : s.ToString().c_str());
    }
  }

  const obiwan::Status check = workload->Check();
  std::printf("ops: %llu attempted, %llu failed, failed_ratio %.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  if (args.trace == 0) {
    std::printf("op_p99_us %.3f us at nominal host speed, over %zu ops\n",
                untraced.scaled_op_ns.Percentile(0.99) / 1e3,
                untraced.scaled_op_ns.size());
  }
  std::printf("check: %s\n", check.ok() ? "ok" : check.ToString().c_str());
  metrics.PrintText();
  workload.reset();

  const bool correct = check.ok() && failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
