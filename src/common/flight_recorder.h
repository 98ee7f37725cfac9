// FlightRecorder: the process-wide registry of always-on per-site span
// buffers, and the dump-on-failure hook.
//
// Every core::Site owns a small bounded Tracer that records its spans whether
// or not a user tracer is attached — a black box holding the last N steps of
// every site in the process. The recorder tracks those
// buffers and can render them all, merged on the shared clock, as Chrome
// trace-event JSON at any moment:
//
//   - post-mortem: ArmDumpOnFailure(path) makes the *first* subsequent
//     NotifyFailure() (called by Site when a request's Status comes back
//     non-OK) write the dump and disarm — a failed test or a disconnection
//     window leaves a loadable timeline of what every site was doing;
//   - on demand: WriteDump(path) from a test fixture's failure handler or
//     `obiwan_shell --flight-dump <path>`;
//   - hands-off: setting OBIWAN_FLIGHT_DUMP=<path> in the environment arms
//     the recorder at first use, so any run can be re-executed with a
//     flight dump without touching code.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/trace.h"

namespace obiwan {

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  // Optional per-site state summary, rendered into every dump's "otherData"
  // next to the spans, so a post-mortem shows *what the site held* at failure
  // time, not just what it was doing. Must return valid JSON; runs at dump
  // time on the dumping thread (so it may take the site's own lock, but the
  // site must never trigger a dump while holding that lock).
  using StateProvider = std::function<std::string()>;

  // Sites register their flight tracer for their lifetime; the tracer (and
  // the state provider's captures) must stay valid until Unregister.
  void Register(SiteId site, Tracer* tracer, StateProvider state = {});
  void Unregister(Tracer* tracer);

  // Merged Chrome trace JSON over every registered flight buffer.
  std::string ChromeTraceJson() const;
  Status WriteDump(const std::string& path) const;

  // Arm the post-mortem hook: the first NotifyFailure() after arming writes
  // a Chrome-trace dump to `path` and disarms (re-arm to capture another).
  // An empty path disarms without dumping.
  void ArmDumpOnFailure(std::string path);
  bool armed() const;

  // Called on the failure path (Site's outbound requests); cheap when
  // disarmed. `reason` is recorded in the dump's metadata.
  void NotifyFailure(std::string_view reason);

  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    SiteId site;
    Tracer* tracer;
    StateProvider state;
  };

  FlightRecorder();

  // Render spans + state summaries; call with mutex_ held.
  std::string RenderLocked() const;

  mutable std::mutex mutex_;
  std::vector<Entry> tracers_;
  std::string dump_path_;
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace obiwan
