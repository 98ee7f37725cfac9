// A recorded span allocates nothing. This binary replaces the global
// operator new and delete to count allocations, so it holds only this test:
// a warm Tracer records spans named by a runtime peer address and an
// ObjectId, as the RPC path names them, with zero heap allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/clock.h"
#include "common/trace.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The library's array forms forward to these. Not inlined: GCC would then
// see free() meet a pointer from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace obiwan {
namespace {

TEST(SpanRecording, WarmRingRecordsWithoutAllocating) {
  constexpr int kSpans = 1000;
  VirtualClock clock;
  Tracer tracer(512);  // a site's flight-recorder capacity
  TraceSinks sinks;
  sinks.SetFlight(&tracer);
  // A peer address built at run time, longer than any small-string buffer.
  const std::string peer = "127.0.0.1:" + std::to_string(40000 + kSpans);
  const TraceId flow = TraceContext::NewId(1);
  auto record = [&](int i) {
    SpanScope span(&sinks, clock, 1, "fault",
                   {.format = "{o} via {t}",
                    .object = ObjectId{2, static_cast<std::uint64_t>(i)},
                    .text = peer},
                   flow);
    clock.Sleep(1);
  };
  // Warm: every slot of the ring written once.
  for (int i = 0; i < 512; ++i) record(i);

  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < kSpans; ++i) record(i);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);

  const std::vector<Span> spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 512u);
  EXPECT_EQ(spans.back().category, "fault");
  EXPECT_EQ(spans.back().name, "obj(2:999) via 127.0.0.1:41000");
  EXPECT_EQ(spans.back().duration(), 1);
}

}  // namespace
}  // namespace obiwan
