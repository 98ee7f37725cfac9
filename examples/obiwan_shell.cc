// obiwan_shell — interactive driver over real TCP, for humans.
//
// Run two shells in two terminals and share objects between them:
//
//   $ obiwan_shell --site 1 --port 7000
//   obiwan> host-registry
//   obiwan> bind todo "ship the ICDCS artifact"
//
//   $ obiwan_shell --site 2 --port 7001 --registry 127.0.0.1:7000
//   obiwan> lookup todo
//   obiwan> invoke todo              # RMI on site 1's master
//   obiwan> replicate todo 5         # incremental LMI replica
//   obiwan> show todo                # walk the local replica
//   obiwan> set todo "edited on site 2"
//   obiwan> put todo                 # reintegrate
//
// Commands: host-registry | bind <name> <text> [n] | lookup <name> |
//           invoke <name> | replicate <name> [batch] | cluster <name> <n> |
//           show <name> | set <name> <text> | append <name> <text> |
//           put <name> | putcluster <name> | refresh <name> | stats |
//           inspect [addr] | frontier [path] | top [addr] [frames] |
//           fleet [watch] <addr...> [frames] | metrics [prom] | trace |
//           profile [json] | contend [k] | journeys | help | quit
//
// `--stats` dumps the process-wide metrics registry (plain text) on exit, so
// scripted runs (`echo ... | obiwan_shell --stats`) get a machine-grepable
// summary without typing `metrics`.
//
// `--inspect [addr]` is the one-shot observatory: pull the replication-state
// report (this site's, or a remote site's over the kInspect RMI method),
// print it as JSON and exit — `obiwan_shell --site 2 --inspect host:port`
// shows what any running site holds without touching it.
//
// `--frontier <path>` writes the replication-frontier graph (Graphviz DOT)
// on exit; combined with `--inspect` it snapshots graph + report in one run.
//
// `--flight-dump <path>` arms the flight recorder: the first failed request
// writes the always-on per-site span buffers to <path> as Chrome trace JSON,
// and a clean exit writes them too — every session leaves a timeline.
//
// `--admin <port>` serves the HTTP observability plane on that port:
// curl http://127.0.0.1:<port>/metrics (Prometheus/OpenMetrics), /healthz,
// /inspect.json, /frontier.json|.dot, /updates.json, /alerts.json, /flight.
//
// `fleet <addr...>` polls the listed sites over the kInspect plane and prints
// the merged convergence view; `fleet watch <addr...> [frames]` redraws it
// every second like top(1).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/contention.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "net/tcp.h"
#include "obiwan.h"
#include "obs/journey.h"
#include "obs/profiler.h"

namespace {

using namespace obiwan;

class Note : public core::Shareable {
 public:
  OBIWAN_SHAREABLE(Note)

  std::string text;
  std::int64_t edits = 0;
  core::Ref<Note> next;

  std::string Describe() {
    ++edits;
    return text + " (read " + std::to_string(edits) + "x)";
  }
  void SetText(std::string t) {
    text = std::move(t);
    ++edits;
  }

  static void ObiwanDefine(core::ClassDef<Note>& def) {
    def.Field("text", &Note::text)
        .Field("edits", &Note::edits)
        .Ref("next", &Note::next)
        .Method("Describe", &Note::Describe)
        .Method("SetText", &Note::SetText);
  }
};
OBIWAN_REGISTER_CLASS(Note);

struct Shell {
  explicit Shell(std::unique_ptr<core::Site> s) : site(std::move(s)) {
    site->SetTracer(&tracer);
  }
  ~Shell() {
    site->SetTracer(nullptr);
    if (journeys && site->journey_sink() == journeys.get()) {
      site->SetJourneySink(nullptr);
    }
  }

  Tracer tracer;
  std::unique_ptr<core::Site> site;
  std::unique_ptr<obs::Profiler> profiler;  // lazily built by `profile`
  std::unique_ptr<obs::JourneyTracker> journeys;  // lazily built by `journeys`
  std::map<std::string, core::RemoteRef<Note>> remotes;
  std::map<std::string, core::Ref<Note>> locals;

  core::Ref<Note>* Local(const std::string& name) {
    auto it = locals.find(name);
    if (it == locals.end()) {
      std::printf("no local replica '%s' (use: replicate %s)\n", name.c_str(),
                  name.c_str());
      return nullptr;
    }
    return &it->second;
  }

  // Local report, or a remote site's when `addr` is non-empty.
  std::optional<core::InspectReport> Report(const std::string& addr) {
    if (addr.empty()) return site->Inspect();
    auto report = site->InspectRemote(addr);
    if (!report.ok()) {
      std::printf("inspect %s failed: %s\n", addr.c_str(),
                  report.status().ToString().c_str());
      return std::nullopt;
    }
    return *report;
  }

  static bool WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    out << content;
    out.flush();
    if (!out) {
      std::printf("cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  }

  core::RemoteRef<Note>* Remote(const std::string& name) {
    auto it = remotes.find(name);
    if (it == remotes.end()) {
      auto looked = site->Lookup<Note>(name);
      if (!looked.ok()) {
        std::printf("lookup failed: %s\n", looked.status().ToString().c_str());
        return nullptr;
      }
      it = remotes.emplace(name, *looked).first;
    }
    return &it->second;
  }

  void Run() {
    std::string line;
    std::printf("obiwan shell on %s — type 'help'\n", site->address().c_str());
    while (std::printf("obiwan> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd, name;
    in >> cmd;
    if (cmd.empty()) return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "host-registry | bind <name> <text> [n] | lookup <name> | "
          "invoke <name> |\nreplicate <name> [batch] | cluster <name> <n> | "
          "show <name> | set <name> <text> |\nappend <name> <text> | "
          "put <name> | putcluster <name> | refresh <name> | stats |\n"
          "inspect [addr] | frontier [path] | top [addr] [frames] |\n"
          "fleet [watch] <addr...> [frames] | metrics [prom] | trace |\n"
          "profile [json] | contend [k] | journeys | quit\n");
      return true;
    }
    if (cmd == "profile") {
      // One queue-depth + lock-hotness sample of this site (json for
      // machines, the default text for humans).
      std::string format;
      in >> format;
      if (!profiler) profiler = std::make_unique<obs::Profiler>(*site);
      const obs::ProfileReport report = profiler->SampleOnce();
      std::string out = format == "json" ? report.ToJson() + "\n"
                                         : report.ToText();
      std::fputs(out.c_str(), stdout);
      return true;
    }
    if (cmd == "contend") {
      // Just the lock table: which locks threads wait on, ranked.
      std::size_t top_k = 10;
      in >> top_k;
      std::fputs(LockHotnessText(
                     LockHotness(MetricsRegistry::Default(),
                                 std::max<std::size_t>(top_k, 1)))
                     .c_str(),
                 stdout);
      return true;
    }
    if (cmd == "journeys") {
      // Per-update dissemination report: ttfr/convergence/hop percentiles,
      // burn-rate alert state, recent journeys. `--admin` already installs a
      // tracker; without one, install our own on first use (it only sees
      // updates from that point on).
      auto* tracker = dynamic_cast<obs::JourneyTracker*>(site->journey_sink());
      if (tracker == nullptr) {
        if (!journeys) {
          journeys =
              std::make_unique<obs::JourneyTracker>(site->clock(), site->id());
          site->SetJourneySink(journeys.get());
          std::printf("journey tracking enabled (tracks updates from now on)\n");
        }
        tracker = journeys.get();
      }
      std::fputs(tracker->ToText().c_str(), stdout);
      return true;
    }
    if (cmd == "host-registry") {
      site->HostRegistry();
      std::printf("name server hosted at %s\n", site->address().c_str());
      return true;
    }
    if (cmd == "stats") {
      const core::SiteStats s = site->stats();
      std::printf("masters %zu, replicas %zu, proxy-ins %zu\n",
                  site->master_count(), site->replica_count(),
                  site->proxy_in_count());
      std::printf("faults %llu, gets %llu/%llu, puts %llu/%llu, calls %llu/%llu\n",
                  static_cast<unsigned long long>(s.object_faults),
                  static_cast<unsigned long long>(s.gets_sent),
                  static_cast<unsigned long long>(s.gets_served),
                  static_cast<unsigned long long>(s.puts_sent),
                  static_cast<unsigned long long>(s.puts_served),
                  static_cast<unsigned long long>(s.calls_sent),
                  static_cast<unsigned long long>(s.calls_served));
      std::printf("replication bytes in %llu, out %llu\n",
                  static_cast<unsigned long long>(s.replication_bytes_in),
                  static_cast<unsigned long long>(s.replication_bytes_out));
      return true;
    }
    if (cmd == "metrics") {
      std::string format;
      in >> format;
      site->RefreshTelemetry();  // pull-time gauges, as /metrics does
      auto& reg = obiwan::MetricsRegistry::Default();
      std::fputs(
          (format == "prom" ? reg.DumpPrometheus() : reg.DumpText()).c_str(),
          stdout);
      return true;
    }
    if (cmd == "trace") {
      std::fputs(tracer.Dump().c_str(), stdout);
      if (tracer.spans_dropped() > 0) {
        std::printf("  (%llu older spans dropped)\n",
                    static_cast<unsigned long long>(tracer.spans_dropped()));
      }
      return true;
    }
    if (cmd == "inspect") {
      // No argument: this site's own replica tables. With an address:
      // pull a remote site's report through the kInspect method.
      std::string addr;
      in >> addr;
      if (auto report = Report(addr)) {
        std::fputs(core::ToText(*report).c_str(), stdout);
      }
      return true;
    }
    if (cmd == "frontier") {
      std::string path;
      in >> path;
      const std::string dot = core::FrontierDot(site->Inspect());
      if (path.empty()) {
        std::fputs(dot.c_str(), stdout);
      } else if (WriteFile(path, dot)) {
        std::printf("frontier graph written to %s\n", path.c_str());
      }
      return true;
    }
    if (cmd == "top") {
      // Live watch: redraw the report every second. `top <addr>` watches a
      // remote site; a trailing number bounds the frames (default 5).
      std::string addr;
      int frames = 5;
      std::string word;
      while (in >> word) {
        // All-digits = frame count; anything else (host:port — which stoi
        // would happily misparse by its leading octet) is the address.
        if (word.find_first_not_of("0123456789") == std::string::npos) {
          frames = std::max(1, std::stoi(word));
        } else {
          addr = word;
        }
      }
      for (int frame = 0; frame < frames; ++frame) {
        auto report = Report(addr);
        if (!report) break;
        std::printf("\033[2J\033[H");  // clear + home, like top(1)
        std::printf("obiwan top — frame %d/%d\n", frame + 1, frames);
        std::fputs(core::ToText(*report).c_str(), stdout);
        std::fflush(stdout);
        if (frame + 1 < frames) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
        }
      }
      std::printf("\n");
      return true;
    }
    if (cmd == "fleet") {
      // fleet <addr...>          one merged convergence report
      // fleet watch <addr...> [frames]   redraw every second
      bool watch = false;
      int frames = 5;
      std::vector<net::Address> targets;
      std::string word;
      while (in >> word) {
        if (word == "watch" && targets.empty()) {
          watch = true;
        } else if (word.find_first_not_of("0123456789") == std::string::npos) {
          frames = std::max(1, std::stoi(word));
        } else {
          targets.push_back(word);
        }
      }
      if (targets.empty()) {
        std::printf("usage: fleet [watch] <addr...> [frames]\n");
        return true;
      }
      obs::FleetMonitor monitor(*site, targets);
      if (!watch) frames = 1;
      for (int frame = 0; frame < frames; ++frame) {
        const obs::FleetReport report = monitor.PollOnce();
        if (watch) {
          std::printf("\033[2J\033[H");  // clear + home, like top(1)
          std::printf("obiwan fleet — frame %d/%d\n", frame + 1, frames);
        }
        std::fputs(obs::ToText(report).c_str(), stdout);
        std::fflush(stdout);
        if (frame + 1 < frames) {
          std::this_thread::sleep_for(std::chrono::seconds(1));
        }
      }
      return true;
    }

    in >> name;
    if (name.empty()) {
      std::printf("usage: %s <name> ...\n", cmd.c_str());
      return true;
    }

    if (cmd == "bind") {
      std::string text;
      std::getline(in, text);
      int count = 1;
      // Trailing integer = chain length.
      auto last_space = text.find_last_of(' ');
      if (last_space != std::string::npos) {
        try {
          count = std::max(1, std::stoi(text.substr(last_space + 1)));
          text = text.substr(0, last_space);
        } catch (...) {
        }
      }
      while (!text.empty() && text.front() == ' ') text.erase(0, 1);
      std::shared_ptr<Note> head, tail;
      for (int i = 0; i < count; ++i) {
        auto note = std::make_shared<Note>();
        note->text = count == 1 ? text : text + " #" + std::to_string(i);
        if (tail) {
          tail->next = note;
        } else {
          head = note;
        }
        tail = note;
      }
      Status s = site->Rebind(name, head);
      std::printf("%s\n", s.ok() ? "bound" : s.ToString().c_str());
      if (s.ok()) locals[name] = core::Ref<Note>(head);
      return true;
    }
    if (cmd == "lookup") {
      if (auto* remote = Remote(name)) {
        std::printf("%s -> %s at %s (class %s)\n", name.c_str(),
                    ToString(remote->id()).c_str(), remote->provider().c_str(),
                    remote->info().class_name.c_str());
      }
      return true;
    }
    if (cmd == "invoke") {
      if (auto* remote = Remote(name)) {
        auto r = remote->Invoke(&Note::Describe);
        std::printf("%s\n", r.ok() ? r->c_str() : r.status().ToString().c_str());
      }
      return true;
    }
    if (cmd == "replicate" || cmd == "cluster") {
      int batch = 1;
      in >> batch;
      if (auto* remote = Remote(name)) {
        auto mode = cmd == "cluster"
                        ? core::ReplicationMode::Cluster(
                              static_cast<std::uint32_t>(std::max(batch, 1)))
                        : core::ReplicationMode::Incremental(
                              static_cast<std::uint32_t>(std::max(batch, 1)));
        auto ref = remote->Replicate(mode);
        if (!ref.ok()) {
          std::printf("replicate failed: %s\n", ref.status().ToString().c_str());
          return true;
        }
        locals[name] = *ref;
        std::printf("replicated; %zu replicas on this site\n",
                    site->replica_count());
      }
      return true;
    }
    if (cmd == "show") {
      if (auto* ref = Local(name)) {
        int i = 0;
        core::Ref<Note>* cursor = ref;
        while (!cursor->IsEmpty()) {
          if (cursor->IsProxy()) {
            std::printf("  [%d] <not yet replicated — touch to fault in>\n", i);
            break;
          }
          std::printf("  [%d] %s\n", i, cursor->get()->text.c_str());
          cursor = &cursor->get()->next;
          ++i;
        }
      }
      return true;
    }
    if (cmd == "set" || cmd == "append") {
      std::string text;
      std::getline(in, text);
      while (!text.empty() && text.front() == ' ') text.erase(0, 1);
      if (auto* ref = Local(name)) {
        try {
          if (cmd == "set") {
            (*ref)->SetText(text);
          } else {
            (*ref)->SetText((*ref)->text + text);
          }
          std::printf("ok (local)\n");
        } catch (const core::ObjectFaultError& e) {
          std::printf("%s\n", e.what());
        }
      }
      return true;
    }
    if (cmd == "put" || cmd == "putcluster" || cmd == "refresh") {
      if (auto* ref = Local(name)) {
        Status s = cmd == "put"          ? site->Put(*ref)
                   : cmd == "putcluster" ? site->PutCluster(*ref)
                                         : site->Refresh(*ref);
        std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
      }
      return true;
    }
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  SiteId site_id = 1;
  std::uint16_t port = 0;
  std::string admin;
  std::string registry;
  std::string flight_dump;
  std::string frontier_path;
  std::string inspect_addr;
  bool do_inspect = false;
  bool dump_stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--site" && i + 1 < argc) {
      site_id = static_cast<SiteId>(std::stoul(argv[++i]));
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::stoul(argv[++i]));
    } else if (arg == "--admin" && i + 1 < argc) {
      admin = argv[++i];
    } else if (arg == "--registry" && i + 1 < argc) {
      registry = argv[++i];
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg == "--inspect") {
      // One-shot: print the replication-state report as JSON and exit. An
      // optional following address (not another flag) selects a remote site.
      do_inspect = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') inspect_addr = argv[++i];
    } else if (arg == "--frontier" && i + 1 < argc) {
      frontier_path = argv[++i];
    } else if (arg == "--flight-dump" && i + 1 < argc) {
      // Arm the post-mortem hook (first failed request dumps) and also write
      // the flight buffers on clean exit, so every session leaves a timeline.
      flight_dump = argv[++i];
      obiwan::FlightRecorder::Global().ArmDumpOnFailure(flight_dump);
    } else {
      std::fprintf(stderr,
                   "usage: obiwan_shell [--site N] [--port P] "
                   "[--admin P] [--registry host:port] [--stats]\n"
                   "                    [--inspect [host:port]] "
                   "[--frontier out.dot] [--flight-dump trace.json]\n");
      return 2;
    }
  }

  auto transport = net::TcpTransport::Create(port);
  if (!transport.ok()) {
    std::fprintf(stderr, "cannot open port: %s\n",
                 transport.status().ToString().c_str());
    return 1;
  }
  auto site = std::make_unique<core::Site>(site_id, std::move(*transport));
  if (!site->Start().ok()) return 1;
  site->UseRegistry(registry.empty() ? site->address() : registry);
  if (!admin.empty()) {
    Status served = site->ServeAdmin(admin);
    if (!served.ok()) {
      std::fprintf(stderr, "cannot serve admin endpoint: %s\n",
                   served.ToString().c_str());
      return 1;
    }
    std::printf("admin endpoint on http://%s/\n", site->admin_address().c_str());
  }

  if (do_inspect) {
    core::InspectReport report;
    if (inspect_addr.empty()) {
      report = site->Inspect();
    } else {
      auto remote = site->InspectRemote(inspect_addr);
      if (!remote.ok()) {
        std::fprintf(stderr, "inspect %s failed: %s\n", inspect_addr.c_str(),
                     remote.status().ToString().c_str());
        return 1;
      }
      report = *remote;
    }
    std::printf("%s\n", core::ToJson(report).c_str());
    if (!frontier_path.empty() &&
        !Shell::WriteFile(frontier_path, core::FrontierDot(report))) {
      return 1;
    }
    return 0;
  }

  Shell shell(std::move(site));
  shell.Run();
  if (!frontier_path.empty() &&
      Shell::WriteFile(frontier_path, core::FrontierDot(shell.site->Inspect()))) {
    std::printf("frontier graph written to %s\n", frontier_path.c_str());
  }
  if (dump_stats) {
    std::printf("\n--- metrics ---\n");
    shell.site->RefreshTelemetry();
    std::fputs(obiwan::MetricsRegistry::Default().DumpText().c_str(), stdout);
  }
  if (!flight_dump.empty()) {
    Status s = obiwan::FlightRecorder::Global().WriteDump(flight_dump);
    std::printf("%s\n", s.ok() ? ("flight dump written to " + flight_dump).c_str()
                               : s.ToString().c_str());
  }
  return 0;
}
