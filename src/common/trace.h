// Span tracing: a fixed-capacity ring of causal spans, plus the cross-site
// correlation context.
//
// Distributed flows (a fault cascading through a replica chain, an
// invalidation fan-out) are hard to reconstruct from logs of interleaved
// sites. A Tracer can be attached to any number of sites; each records its
// protocol steps as spans with the site id and timestamps from its own clock,
// and SnapshotSpans() returns the merged view. A site without a tracer pays
// one pointer compare per span.
//
// The ring holds fixed-size, trivially copyable SpanRecords, so recording a
// span is one copy into a slot and never allocates. A record keeps its name
// in parts: the category and a name format are string literals, ids, counts
// and versions are integers, and the one piece of runtime text a span
// carries (a peer address, a method name) is a bounded inline copy.
// SnapshotSpans() formats those parts into Span strings, so readers see the
// same names a formatted string would have given; only the read pays for
// them.
//
// A Span is a begin/end interval with a process-unique id and the id of the
// span that was open on the same thread when it began. The paper's cascade —
// RMI → fault → get → put — therefore records as a parent/child tree. A
// point-in-time step (an error, a pushed update, a dropped holder) is a span
// that begins and ends at once (RecordInstant), so it lands in that tree under
// the step that caused it.
//
// Cross-site correlation: every span additionally carries the TraceId of the
// distributed flow it belongs to. The id is allocated at the call origin
// (TraceContext::NewId), travels in the RMI request envelope
// (rmi/protocol.h), and is re-installed by the receiving dispatcher for the
// duration of the handler — so a get served three sites down a replica chain
// still records under the id of the fault that started it.
// SnapshotTraceSpans(id) filters the timeline back down to one flow, and
// TraceCollector (trace_collector.h) merges spans from many tracers into one
// timeline and exports Chrome trace-event JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/contention.h"
#include "common/ids.h"
#include "common/literal.h"
#include "common/status.h"

namespace obiwan {

// A completed causal span: one timed step of a distributed cascade. `parent`
// is the span that was open on the same thread when this one began (0 = no
// enclosing span); with synchronous in-process delivery that links a server
// handler under its originating client call, and across real transports the
// shared TraceId still groups both sides into one flow.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  TraceId trace;  // the distributed flow, as carried by the envelope
  SiteId site = kInvalidSite;
  Nanos begin = 0;
  Nanos end = 0;
  std::string category;  // "rmi", "dispatch", "fault", "get", "error", ...
  std::string name;
  bool failed = false;

  Nanos duration() const { return end > begin ? end - begin : 0; }
  std::string ToString() const;
};

// The parts a span's name is formatted from when the ring is read. In
// `format`, "{k}" stands for `kind` (an op or message kind), "{o}" for
// `object`, "{n}" for `number` and "{t}" for `text`; e.g.
// {.format = "{o} via {t}", .object = id, .text = provider} reads
// "obj(1:17) via 127.0.0.1:40123". Only `text` is copied when the span is
// recorded, into the record's bounded buffer.
struct SpanName {
  Literal format;
  Literal kind = "";
  ObjectId object = {};
  std::uint64_t number = 0;
  std::string_view text = {};
};

// One span as a Tracer's ring stores it: fixed size and trivially copyable,
// so recording is a plain copy into a slot. SnapshotSpans() formats a Span
// from it.
struct SpanRecord {
  // Runtime text longer than this is cut, and the copy ends in "..." so a
  // reader can tell.
  static constexpr std::size_t kTextCapacity = 32;

  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_seq = 0;
  Nanos begin = 0;
  Nanos end = 0;
  std::uint64_t object_local = 0;
  std::uint64_t number = 0;
  // Literals. A null category means a span named at run time (the
  // string_view overloads below): `text` then holds the category's
  // `category_size` bytes followed by the name.
  const char* category = nullptr;
  const char* format = nullptr;
  const char* kind = nullptr;
  SiteId site = kInvalidSite;
  SiteId trace_site = kInvalidSite;
  SiteId object_site = kInvalidSite;
  std::uint8_t category_size = 0;
  std::uint8_t text_size = 0;
  bool failed = false;
  char text[kTextCapacity] = {};
};
static_assert(std::is_trivially_copyable_v<SpanRecord>,
              "a ring slot is written by a plain copy");
static_assert(sizeof(SpanRecord) == 128, "two cache lines per span");

// Per-thread correlation context. The dispatcher installs the envelope's id
// around each inbound handler; client-side operations install a fresh id when
// none is active. Scopes nest (synchronous loopback delivery re-enters sites
// on the same thread) and restore the previous id on destruction.
class TraceContext {
 public:
  // The id active on this thread; invalid when outside any flow.
  static TraceId Current();

  // Allocate a fresh id originating at `origin` (does not install it).
  static TraceId NewId(SiteId origin);

  // The active id, or a fresh one originating at `origin`.
  static TraceId CurrentOrNew(SiteId origin) {
    TraceId id = Current();
    return id.valid() ? id : NewId(origin);
  }

  class Scope {
   public:
    explicit Scope(TraceId id) : previous_(Exchange(id)) {}
    ~Scope() { Exchange(previous_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceId previous_;
  };

 private:
  static TraceId Exchange(TraceId id);
};

// Per-thread span parenting: the id of the innermost open span, maintained by
// SpanScope. Separate from TraceContext because a flow spans many spans.
class SpanContext {
 public:
  static std::uint64_t Current();  // 0 when no span is open on this thread
  static std::uint64_t NextId();   // process-unique, never 0

 private:
  friend class SpanScope;
  static std::uint64_t Exchange(std::uint64_t id);
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {
    span_ring_.resize(capacity_);
    // All tracers share one "tracer_ring" lock family: stripe contention is a
    // recording-throughput ceiling worth watching, but per-stripe series
    // would be cardinality noise.
    for (auto& stripe : stripes_) stripe.Configure("tracer_ring");
  }

  // Record a *completed* span (SpanScope does this from its destructor).
  void RecordSpan(const SpanRecord& record);
  // Record an already formatted span. Its category and name are stored as
  // runtime text, so they share the record's bounded text buffer.
  void RecordSpan(const Span& span);

  // Completed spans in completion order (oldest first); `spans_dropped`
  // tells how many older spans the ring already evicted.
  std::vector<Span> SnapshotSpans() const;
  // Only the spans of one distributed flow — the reconstruction of a single
  // end-to-end RMI/fault/reintegration cascade.
  std::vector<Span> SnapshotTraceSpans(TraceId trace) const;

  std::uint64_t spans_dropped() const {
    const std::uint64_t total = span_total_.load(std::memory_order_relaxed);
    return total > capacity_ ? total - capacity_ : 0;
  }
  std::uint64_t spans_recorded() const {
    return span_total_.load(std::memory_order_relaxed);
  }

  void Clear();

  // Render the snapshot as text, one completed span per line.
  std::string Dump() const;

 private:
  // Slot reservation is a relaxed atomic increment; only the write into the
  // reserved slot is serialized, and only against writers hashing to the same
  // lock stripe — concurrent recorders on different slots no longer contend
  // on one global mutex. A snapshot taken while a writer sits between
  // reservation and write may transiently see the slot's previous content;
  // the flight-recorder use case (post-mortem dumps of quiesced rings) never
  // observes this. A snapshot copies the records under the stripe locks and
  // formats them after releasing them.
  static constexpr std::size_t kStripes = 16;
  TrackedMutex& StripeFor(std::size_t slot) const {
    return stripes_[slot % kStripes];
  }
  void LockAll() const;
  void UnlockAll() const;

  const std::size_t capacity_;
  mutable std::array<TrackedMutex, kStripes> stripes_;
  std::vector<SpanRecord> span_ring_;
  std::atomic<std::uint64_t> span_total_{0};  // spans ever recorded
};

// Fan-out handle: a site records through one of these so its always-on
// flight-recorder ring and an optionally attached shared tracer both see
// every span. Copyable view semantics; the tracers must outlive any
// recording through the sinks.
class TraceSinks {
 public:
  void SetFlight(Tracer* tracer) { flight_ = tracer; }
  void SetAttached(Tracer* tracer) { attached_ = tracer; }
  bool active() const { return flight_ != nullptr || attached_ != nullptr; }

  void RecordSpan(const SpanRecord& record) const {
    if (flight_ != nullptr) flight_->RecordSpan(record);
    if (attached_ != nullptr) attached_->RecordSpan(record);
  }

 private:
  Tracer* flight_ = nullptr;
  Tracer* attached_ = nullptr;
};

// RAII span: begins on construction, completes (and records into `sinks`) on
// destruction. Maintains the thread's parent chain via SpanContext. A null or
// inactive sinks makes the scope a no-op — no id is allocated, the clock is
// not read and the parent chain is left untouched, so children attach to the
// enclosing span.
//
// Given a `parent`, the span records under it and does not become the
// thread's innermost span: for spans that overlap on one thread instead of
// nesting (the exchanges of one Transport::RequestAll), and their children.
//
// A span named by a SpanName builds no string; the string_view overload
// copies both views into the record's text buffer, cut at its capacity.
class SpanScope {
 public:
  SpanScope(const TraceSinks* sinks, Clock& clock, SiteId site,
            Literal category, const SpanName& name, TraceId trace,
            std::optional<std::uint64_t> parent = std::nullopt);
  // As above, but the span begins at `begin`: a reading of `clock` that a
  // caller timing the same interval already took. It then ends the span
  // with its own reading too (EndAt), so each boundary reads the clock once.
  SpanScope(const TraceSinks* sinks, Clock& clock, Nanos begin, SiteId site,
            Literal category, const SpanName& name, TraceId trace,
            std::optional<std::uint64_t> parent = std::nullopt);
  SpanScope(const TraceSinks* sinks, Clock& clock, SiteId site,
            std::string_view category, std::string_view name,
            TraceId trace, std::optional<std::uint64_t> parent = std::nullopt);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void MarkFailed() { record_.failed = true; }
  std::uint64_t id() const { return record_.id; }
  // The span ends at `end` (a reading of its clock), not at destruction.
  void EndAt(Nanos end) {
    record_.end = end;
    ended_ = true;
  }

 private:
  // Allocates the id and links the span into the parent chain.
  void Open(SiteId site, TraceId trace, std::optional<std::uint64_t> parent);

  const TraceSinks* sinks_ = nullptr;  // null when inactive
  Clock* clock_ = nullptr;
  bool installed_ = false;
  bool ended_ = false;
  SpanRecord record_;
};

// A point-in-time step: a span that begins and ends at one clock reading,
// parented under `parent` or else whatever span is open on this thread.
void RecordInstant(const TraceSinks* sinks, Clock& clock, SiteId site,
                   Literal category, const SpanName& name, TraceId trace,
                   std::optional<std::uint64_t> parent = std::nullopt);
void RecordInstant(const TraceSinks* sinks, Clock& clock, SiteId site,
                   std::string_view category, std::string_view name,
                   TraceId trace);

}  // namespace obiwan
