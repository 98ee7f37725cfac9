#include "common/trace.h"

#include <algorithm>

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
// Tracer
// ---------------------------------------------------------------------------

std::string Span::ToString() const {
  std::string out = "[" + std::to_string(static_cast<double>(begin) / kMilli) +
                    "ms +" +
                    std::to_string(static_cast<double>(duration()) / kMilli) +
                    "ms site " + std::to_string(site) + "] span " +
                    std::to_string(id) + (parent != 0 ? "<-" + std::to_string(parent) : "") +
                    " " + category + (name.empty() ? "" : ": " + name);
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

void Tracer::RecordSpan(const Span& span) {
  const std::uint64_t seq = span_total_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot = static_cast<std::size_t>(seq % capacity_);
  std::lock_guard lock(StripeFor(slot));
  // Copy-assignment reuses each slot's string capacity, so a warm ring
  // records without allocating.
  span_ring_[slot] = span;
}

std::vector<Span> Tracer::SnapshotSpans() const {
  LockAll();
  std::vector<Span> out;
  const std::uint64_t total = span_total_.load(std::memory_order_relaxed);
  const std::uint64_t count = std::min<std::uint64_t>(total, capacity_);
  out.reserve(count);
  const std::uint64_t start = total - count;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(span_ring_[(start + i) % capacity_]);
  }
  UnlockAll();
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
// SpanScope
// ---------------------------------------------------------------------------

SpanScope::SpanScope(const TraceSinks* sinks, Clock& clock, SiteId site,
                     std::string_view category, std::string_view name,
                     TraceId trace, std::optional<std::uint64_t> parent) {
  if (sinks == nullptr || !sinks->active()) return;  // inactive: a no-op
  sinks_ = sinks;
  clock_ = &clock;
  installed_ = !parent.has_value();
  span_.id = SpanContext::NextId();
  span_.parent = parent ? *parent : SpanContext::Exchange(span_.id);
  span_.trace = trace;
  span_.site = site;
  span_.begin = clock.Now();
  span_.category.assign(category);
  span_.name.assign(name);
}

SpanScope::~SpanScope() {
  if (sinks_ == nullptr) return;
  if (installed_) SpanContext::Exchange(span_.parent);
  span_.end = clock_->Now();
  sinks_->RecordSpan(span_);
}


}  // namespace obiwan
