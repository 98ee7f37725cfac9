#include "common/trace_collector.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"

namespace obiwan {

namespace {

// Chrome trace timestamps are microseconds; keep sub-microsecond precision so
// virtual-clock spans a few ns apart stay ordered in the viewer.
std::string Micros(Nanos ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

struct FlowKey {
  SiteId site;
  int tid;
  friend bool operator<(const FlowKey& a, const FlowKey& b) {
    return a.site != b.site ? a.site < b.site : a.tid < b.tid;
  }
};

class ChromeWriter {
 public:
  void Append(std::string event) { events_.push_back(std::move(event)); }

  void Duration(char ph, const Span& s, Nanos at, int tid) {
    std::string out = "{\"name\":";
    out += JsonString(s.name.empty() ? s.category : s.name);
    out += ",\"cat\":" + JsonString(s.category);
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":" + std::to_string(s.site);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"ts\":" + Micros(at);
    if (ph == 'B') {
      out += ",\"args\":{\"span\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent);
      if (s.failed) out += ",\"failed\":true";
      if (s.trace.valid()) {
        out += ",\"trace\":" + JsonString(ToString(s.trace));
      }
      out += "}";
    }
    out += "}";
    Append(std::move(out));
  }

  void Metadata(SiteId pid, int tid, std::string_view what,
                std::string_view name) {
    std::string out = "{\"name\":\"";
    out += what;
    out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    out += ",\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"name\":" + JsonString(name) + "}}";
    Append(std::move(out));
  }

  std::string Finish(
      const std::vector<std::pair<std::string, std::string>>& other_data)
      const {
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (i != 0) out += ",\n";
      out += events_[i];
    }
    out += "]";
    if (!other_data.empty()) {
      out += ",\"otherData\":{";
      for (std::size_t i = 0; i < other_data.size(); ++i) {
        if (i != 0) out += ",";
        out += JsonString(other_data[i].first) + ":" + other_data[i].second;
      }
      out += "}";
    }
    out += ",\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  std::vector<std::string> events_;
};

}  // namespace

void TraceCollector::Attach(const Tracer* tracer) {
  if (tracer != nullptr) tracers_.push_back(tracer);
}

std::vector<Span> TraceCollector::MergedSpans() const {
  std::vector<Span> out;
  for (const Tracer* t : tracers_) {
    std::vector<Span> spans = t->SnapshotSpans();
    out.insert(out.end(), std::make_move_iterator(spans.begin()),
               std::make_move_iterator(spans.end()));
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.id < b.id;
  });
  return out;
}

std::string TraceCollector::DumpText() const {
  std::string out;
  for (const Span& span : MergedSpans()) {
    out += span.ToString();
    out += '\n';
  }
  return out;
}

std::string TraceCollector::ChromeTraceJson() const {
  return obiwan::ChromeTraceJson(MergedSpans());
}

Status TraceCollector::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot open trace file: " + path);
  out << ChromeTraceJson();
  out.flush();
  if (!out) return InternalError("failed writing trace file: " + path);
  return Status::Ok();
}

std::string ChromeTraceJson(
    std::vector<Span> spans,
    const std::vector<std::pair<std::string, std::string>>& other_data) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.id < b.id;
  });

  // One tid per distributed flow, numbered in order of first appearance;
  // tid 0 holds everything recorded outside any flow.
  std::map<TraceId, int> flow_tids;
  auto tid_of = [&flow_tids](const TraceId& trace) {
    if (!trace.valid()) return 0;
    auto [it, inserted] =
        flow_tids.emplace(trace, static_cast<int>(flow_tids.size()) + 1);
    (void)inserted;
    return it->second;
  };

  // Group spans by (site, flow) and rebuild each group's parent tree; a
  // span whose parent completed out of ring range (or lives in another
  // group) becomes a root of its group.
  std::map<FlowKey, std::vector<const Span*>> groups;
  for (const Span& s : spans) {
    groups[FlowKey{s.site, tid_of(s.trace)}].push_back(&s);
  }

  ChromeWriter writer;
  for (const auto& [key, members] : groups) {
    std::unordered_map<std::uint64_t, const Span*> by_id;
    for (const Span* s : members) by_id[s->id] = s;
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    std::vector<const Span*> roots;
    for (const Span* s : members) {
      if (s->parent != 0 && by_id.count(s->parent) != 0 &&
          s->parent != s->id) {
        children[s->parent].push_back(s);
      } else {
        roots.push_back(s);
      }
    }
    // Emit depth-first; clamp children into their parent's interval so the
    // B/E stream is well-nested even if clocks or ring eviction produced
    // slightly inconsistent endpoints.
    auto emit = [&](auto&& self, const Span* s, Nanos lo, Nanos hi) -> void {
      const Nanos b = std::clamp(s->begin, lo, hi);
      const Nanos e = std::clamp(s->end < b ? b : s->end, b, hi);
      writer.Duration('B', *s, b, key.tid);
      for (const Span* child : children[s->id]) self(self, child, b, e);
      writer.Duration('E', *s, e, key.tid);
    };
    for (const Span* root : roots) {
      emit(emit, root, std::numeric_limits<Nanos>::min(),
           std::numeric_limits<Nanos>::max());
    }
  }

  // Name every process and flow the trace references.
  std::map<SiteId, bool> pids;
  std::map<FlowKey, TraceId> flows;
  for (const Span& s : spans) {
    pids[s.site] = true;
    flows[FlowKey{s.site, tid_of(s.trace)}] = s.trace;
  }
  for (const auto& [pid, used] : pids) {
    (void)used;
    writer.Metadata(pid, 0, "process_name",
                    pid == kInvalidSite ? "network/harness"
                                        : "site " + std::to_string(pid));
  }
  for (const auto& [key, trace] : flows) {
    writer.Metadata(key.site, key.tid, "thread_name",
                    trace.valid() ? "flow " + std::to_string(trace.site) +
                                        ":" + std::to_string(trace.seq)
                                  : std::string("untraced"));
  }

  return writer.Finish(other_data);
}

}  // namespace obiwan
