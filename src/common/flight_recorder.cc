#include "common/flight_recorder.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/log.h"
#include "common/trace_collector.h"

namespace obiwan {

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked singleton
  return *recorder;
}

FlightRecorder::FlightRecorder() {
  if (const char* path = std::getenv("OBIWAN_FLIGHT_DUMP");
      path != nullptr && path[0] != '\0') {
    dump_path_ = path;
  }
}

void FlightRecorder::Register(SiteId site, Tracer* tracer, StateProvider state) {
  if (tracer == nullptr) return;
  std::lock_guard lock(mutex_);
  tracers_.push_back(Entry{site, tracer, std::move(state)});
}

void FlightRecorder::Unregister(Tracer* tracer) {
  std::lock_guard lock(mutex_);
  tracers_.erase(std::remove_if(tracers_.begin(), tracers_.end(),
                                [&](const Entry& e) { return e.tracer == tracer; }),
                 tracers_.end());
}

std::string FlightRecorder::RenderLocked() const {
  TraceCollector collector;
  std::vector<std::pair<std::string, std::string>> other_data;
  for (const Entry& e : tracers_) {
    collector.Attach(e.tracer);
    if (e.state) {
      other_data.emplace_back("site " + std::to_string(e.site) + " state",
                              e.state());
    }
  }
  // Tracer snapshots take only the tracer's own stripe locks, and state
  // providers take their site's lock; holding the registry mutex across the
  // render keeps Unregister from racing us. (No site ever triggers a dump
  // while holding its own lock, so the FR-mutex -> site-lock order here
  // cannot invert.)
  return obiwan::ChromeTraceJson(collector.MergedSpans(), other_data);
}

std::string FlightRecorder::ChromeTraceJson() const {
  std::lock_guard lock(mutex_);
  return RenderLocked();
}

Status FlightRecorder::WriteDump(const std::string& path) const {
  std::string json;
  {
    std::lock_guard lock(mutex_);
    json = RenderLocked();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot open trace file: " + path);
  out << json;
  out.flush();
  if (!out) return InternalError("failed writing trace file: " + path);
  return Status::Ok();
}

void FlightRecorder::ArmDumpOnFailure(std::string path) {
  std::lock_guard lock(mutex_);
  dump_path_ = std::move(path);
}

bool FlightRecorder::armed() const {
  std::lock_guard lock(mutex_);
  return !dump_path_.empty();
}

void FlightRecorder::NotifyFailure(std::string_view reason) {
  failures_.fetch_add(1, std::memory_order_relaxed);
  std::string path;
  {
    std::lock_guard lock(mutex_);
    if (dump_path_.empty()) return;
    path.swap(dump_path_);  // disarm: one dump per arming
  }
  const Status status = WriteDump(path);
  if (status.ok()) {
    OBIWAN_LOG(kWarning) << "flight recorder: dumped last spans to " << path
                         << " after failure: " << std::string(reason);
  } else {
    OBIWAN_LOG(kError) << "flight recorder: dump to " << path
                       << " failed: " << status.ToString();
  }
}

}  // namespace obiwan
