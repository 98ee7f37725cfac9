#include "common/trace.h"

#include <algorithm>
#include <cstring>

namespace obiwan {

// ---------------------------------------------------------------------------
// TraceContext / SpanContext
// ---------------------------------------------------------------------------

namespace {
thread_local TraceId g_current_trace;
thread_local std::uint64_t g_current_span = 0;
}  // namespace

TraceId TraceContext::Current() { return g_current_trace; }

TraceId TraceContext::NewId(SiteId origin) {
  static std::atomic<std::uint64_t> next{1};
  return TraceId{origin, next.fetch_add(1, std::memory_order_relaxed)};
}

TraceId TraceContext::Exchange(TraceId id) {
  TraceId previous = g_current_trace;
  g_current_trace = id;
  return previous;
}

std::uint64_t SpanContext::Current() { return g_current_span; }

std::uint64_t SpanContext::NextId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SpanContext::Exchange(std::uint64_t id) {
  std::uint64_t previous = g_current_span;
  g_current_span = id;
  return previous;
}

// ---------------------------------------------------------------------------
// SpanRecord
// ---------------------------------------------------------------------------

namespace {

// Copies `more` into the record's text after what it holds, cut at the
// capacity so that "..." ends the buffer, and never inside a UTF-8 sequence.
void AppendText(SpanRecord& record, std::string_view more) {
  constexpr std::size_t kCapacity = SpanRecord::kTextCapacity;
  if (more.empty()) return;  // its data() may be null, which memcpy forbids
  if (more.size() <= kCapacity - record.text_size) {
    std::memcpy(record.text + record.text_size, more.data(), more.size());
    record.text_size = static_cast<std::uint8_t>(record.text_size + more.size());
    return;
  }
  constexpr std::string_view kMark = "...";
  auto byte_at = [&](std::size_t i) {
    return i < record.text_size ? record.text[i] : more[i - record.text_size];
  };
  auto continues = [](char c) {
    return (static_cast<unsigned char>(c) & 0xC0) == 0x80;
  };
  std::size_t keep = kCapacity - kMark.size();
  while (keep > record.category_size && continues(byte_at(keep))) --keep;
  if (keep > record.text_size) {
    std::memcpy(record.text + record.text_size, more.data(),
                keep - record.text_size);
  }
  std::memcpy(record.text + keep, kMark.data(), kMark.size());
  record.text_size = static_cast<std::uint8_t>(keep + kMark.size());
  // A runtime category that was itself cut keeps the mark; the name is lost.
  if (record.category_size > keep) record.category_size = record.text_size;
}

void SetName(SpanRecord& record, Literal category, const SpanName& name) {
  record.category = category.c_str();
  record.format = name.format.c_str();
  record.kind = name.kind.c_str();
  record.object_site = name.object.site;
  record.object_local = name.object.local;
  record.number = name.number;
  AppendText(record, name.text);
}

// A name known only at run time: both views are copied into the text.
void SetName(SpanRecord& record, std::string_view category,
             std::string_view name) {
  record.format = "{t}";
  AppendText(record, category);
  record.category_size = record.text_size;
  AppendText(record, name);
}

Span Format(const SpanRecord& record) {
  Span span;
  span.id = record.id;
  span.parent = record.parent;
  span.trace = TraceId{record.trace_site, record.trace_seq};
  span.site = record.site;
  span.begin = record.begin;
  span.end = record.end;
  span.failed = record.failed;
  const std::string_view text(record.text, record.text_size);
  span.category = record.category != nullptr
                      ? std::string(record.category)
                      : std::string(text.substr(0, record.category_size));
  const std::string_view runtime = text.substr(record.category_size);
  const char* p = record.format != nullptr ? record.format : "";
  for (; *p != '\0'; ++p) {
    if (p[0] == '{' && p[1] != '\0' && p[2] == '}') {
      switch (p[1]) {
        case 'k':
          span.name += record.kind;
          p += 2;
          continue;
        case 'o':
          span.name += ToString(ObjectId{record.object_site, record.object_local});
          p += 2;
          continue;
        case 'n':
          span.name += std::to_string(record.number);
          p += 2;
          continue;
        case 't':
          span.name += runtime;
          p += 2;
          continue;
        default:
          break;
      }
    }
    span.name += *p;
  }
  return span;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::string Span::ToString() const {
  std::string out = "[";
  out += std::to_string(static_cast<double>(begin) / kMilli);
  out += "ms +";
  out += std::to_string(static_cast<double>(duration()) / kMilli);
  out += "ms site ";
  out += std::to_string(site);
  out += "] span ";
  out += std::to_string(id);
  if (parent != 0) {
    out += "<-";
    out += std::to_string(parent);
  }
  out += ' ';
  out += category;
  if (!name.empty()) {
    out += ": ";
    out += name;
  }
  if (failed) out += " FAILED";
  if (trace.valid()) {
    out += " #" + std::to_string(trace.site) + ":" + std::to_string(trace.seq);
  }
  return out;
}

void Tracer::LockAll() const {
  for (TrackedMutex& m : stripes_) m.lock();
}

void Tracer::UnlockAll() const {
  for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) it->unlock();
}

void Tracer::RecordSpan(const SpanRecord& record) {
  const std::uint64_t seq = span_total_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot = static_cast<std::size_t>(seq % capacity_);
  std::lock_guard lock(StripeFor(slot));
  span_ring_[slot] = record;
}

void Tracer::RecordSpan(const Span& span) {
  SpanRecord record;
  record.id = span.id;
  record.parent = span.parent;
  record.trace_site = span.trace.site;
  record.trace_seq = span.trace.seq;
  record.site = span.site;
  record.begin = span.begin;
  record.end = span.end;
  record.failed = span.failed;
  SetName(record, span.category, span.name);
  RecordSpan(record);
}

std::vector<Span> Tracer::SnapshotSpans() const {
  std::vector<SpanRecord> records;
  records.reserve(std::min<std::uint64_t>(
      span_total_.load(std::memory_order_relaxed), capacity_));
  LockAll();
  const std::uint64_t total = span_total_.load(std::memory_order_relaxed);
  const std::uint64_t count = std::min<std::uint64_t>(total, capacity_);
  const std::uint64_t start = total - count;
  for (std::uint64_t i = 0; i < count; ++i) {
    records.push_back(span_ring_[(start + i) % capacity_]);
  }
  UnlockAll();
  std::vector<Span> out;
  out.reserve(records.size());
  for (const SpanRecord& record : records) out.push_back(Format(record));
  return out;
}

std::vector<Span> Tracer::SnapshotTraceSpans(TraceId trace) const {
  std::vector<Span> out = SnapshotSpans();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Span& s) { return s.trace != trace; }),
            out.end());
  return out;
}

void Tracer::Clear() {
  LockAll();
  span_total_.store(0, std::memory_order_relaxed);
  UnlockAll();
}

std::string Tracer::Dump() const {
  std::string out;
  for (const Span& span : SnapshotSpans()) {
    out += span.ToString();
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpanScope / RecordInstant
// ---------------------------------------------------------------------------

namespace {

// An active sink set, or null: spans into nothing are not timed or named.
const TraceSinks* Active(const TraceSinks* sinks) {
  return sinks != nullptr && sinks->active() ? sinks : nullptr;
}

// A record's identity and place in the flow.
void Identify(SpanRecord& record, std::uint64_t id, std::uint64_t parent,
              SiteId site, TraceId trace) {
  record.id = id;
  record.parent = parent;
  record.site = site;
  record.trace_site = trace.site;
  record.trace_seq = trace.seq;
}

// An unnamed instant at one reading of `clock`.
SpanRecord Instant(Clock& clock, SiteId site, TraceId trace,
                   std::optional<std::uint64_t> parent) {
  SpanRecord record;
  Identify(record, SpanContext::NextId(),
           parent ? *parent : SpanContext::Current(), site, trace);
  record.begin = record.end = clock.Now();
  return record;
}

}  // namespace

void SpanScope::Open(SiteId site, TraceId trace,
                     std::optional<std::uint64_t> parent) {
  installed_ = !parent.has_value();
  const std::uint64_t id = SpanContext::NextId();
  Identify(record_, id, parent ? *parent : SpanContext::Exchange(id), site,
           trace);
}

SpanScope::SpanScope(const TraceSinks* sinks, Clock& clock, SiteId site,
                     Literal category, const SpanName& name, TraceId trace,
                     std::optional<std::uint64_t> parent)
    : sinks_(Active(sinks)), clock_(&clock) {
  if (sinks_ == nullptr) return;
  Open(site, trace, parent);
  SetName(record_, category, name);
  record_.begin = clock.Now();
}

SpanScope::SpanScope(const TraceSinks* sinks, Clock& clock, Nanos begin,
                     SiteId site, Literal category, const SpanName& name,
                     TraceId trace, std::optional<std::uint64_t> parent)
    : sinks_(Active(sinks)), clock_(&clock) {
  if (sinks_ == nullptr) return;
  Open(site, trace, parent);
  SetName(record_, category, name);
  record_.begin = begin;
}

SpanScope::SpanScope(const TraceSinks* sinks, Clock& clock, SiteId site,
                     std::string_view category, std::string_view name,
                     TraceId trace, std::optional<std::uint64_t> parent)
    : sinks_(Active(sinks)), clock_(&clock) {
  if (sinks_ == nullptr) return;
  Open(site, trace, parent);
  SetName(record_, category, name);
  record_.begin = clock.Now();
}

SpanScope::~SpanScope() {
  if (sinks_ == nullptr) return;
  if (installed_) SpanContext::Exchange(record_.parent);
  if (!ended_) record_.end = clock_->Now();
  sinks_->RecordSpan(record_);
}

void RecordInstant(const TraceSinks* sinks, Clock& clock, SiteId site,
                   Literal category, const SpanName& name, TraceId trace,
                   std::optional<std::uint64_t> parent) {
  if (Active(sinks) == nullptr) return;
  SpanRecord record = Instant(clock, site, trace, parent);
  SetName(record, category, name);
  sinks->RecordSpan(record);
}

void RecordInstant(const TraceSinks* sinks, Clock& clock, SiteId site,
                   std::string_view category, std::string_view name,
                   TraceId trace) {
  if (Active(sinks) == nullptr) return;
  SpanRecord record = Instant(clock, site, trace, std::nullopt);
  SetName(record, category, name);
  sinks->RecordSpan(record);
}

}  // namespace obiwan
