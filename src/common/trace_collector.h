// TraceCollector: merge the per-site tracers of a topology into one timeline
// ordered on the (virtual) clock, and export it as Chrome trace-event JSON.
//
// Every site in a simulated or real topology records spans on its own clock
// into its own Tracer (or a shared one). The collector is a cheap view over
// any number of tracers: MergedSpans() snapshots them all and sorts on the
// begin timestamp, and ChromeTraceJson() renders the result in the
// trace-event format that chrome://tracing and Perfetto load directly:
//
//   - one "process" (pid) per site — pid 0 is the network / harness,
//   - one "thread" (tid) per distributed flow (TraceId), tid 0 for spans
//     recorded outside any flow,
//   - B/E duration events for spans (children clamped into their parent so
//     the viewer always sees a well-nested stack; an instant is a zero-length
//     pair), and
//   - metadata events naming each process and flow.
//
// Timestamps are exported in microseconds on whatever clock the sites share;
// under VirtualClock the timeline shows the modelled network time.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace obiwan {

class TraceCollector {
 public:
  // The tracer must outlive the collector. Attaching the same tracer twice
  // duplicates its records.
  void Attach(const Tracer* tracer);

  // All spans across the attached tracers, sorted by begin time (ties
  // broken by span id, which is allocation-ordered).
  std::vector<Span> MergedSpans() const;

  // Grep-friendly text timeline of the merged spans.
  std::string DumpText() const;

  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<const Tracer*> tracers_;
};

// Render an arbitrary span set as Chrome trace-event JSON (the collector and
// the flight recorder both go through this). `other_data` holds extra entries
// for the file's top-level "otherData" object — (key, raw JSON value) pairs,
// e.g. a site's replica-table summary embedded in a flight-recorder dump. The
// value strings must already be valid JSON.
std::string ChromeTraceJson(
    std::vector<Span> spans,
    const std::vector<std::pair<std::string, std::string>>& other_data = {});

}  // namespace obiwan
