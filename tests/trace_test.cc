// Tracer tests: span-ring semantics and the merged cross-site protocol
// timeline.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

// A completed zero-length span at `at` carrying `name`.
Span InstantSpan(Nanos at, SiteId site, std::string category,
                 std::string name, TraceId trace = {}) {
  Span span;
  span.id = SpanContext::NextId();
  span.trace = trace;
  span.site = site;
  span.begin = span.end = at;
  span.category = std::move(category);
  span.name = std::move(name);
  return span;
}

TEST(Tracer, RecordsInOrder) {
  Tracer tracer(8);
  tracer.RecordSpan(InstantSpan(1, 1, "a", "first"));
  tracer.RecordSpan(InstantSpan(2, 2, "b", "second"));
  auto spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "first");
  EXPECT_EQ(spans[1].site, 2u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
}

TEST(Tracer, RingEvictsOldest) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordSpan(InstantSpan(i, 1, "e", std::to_string(i)));
  }
  auto spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "6");
  EXPECT_EQ(spans[3].name, "9");
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  EXPECT_EQ(tracer.spans_recorded(), 10u);
}

TEST(Tracer, CapacityZeroIsUsable) {
  // Regression: capacity 0 must not divide by zero in the ring index; it
  // coerces to a one-slot ring that keeps the newest span.
  Tracer tracer(0);
  tracer.RecordSpan(InstantSpan(1, 1, "e", "first"));
  tracer.RecordSpan(InstantSpan(2, 1, "e", "second"));
  auto spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "second");
  EXPECT_EQ(tracer.spans_dropped(), 1u);
  EXPECT_EQ(tracer.spans_recorded(), 2u);
}

TEST(Tracer, RecordTakesNonNulTerminatedViews) {
  VirtualClock clock;
  Tracer tracer(4);
  TraceSinks sinks;
  sinks.SetAttached(&tracer);
  const std::string backing = "category-detail";
  RecordInstant(&sinks, clock, 1, std::string_view(backing).substr(0, 8),
                std::string_view(backing).substr(9), {});
  auto spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].category, "category");
  EXPECT_EQ(spans[0].name, "detail");
  EXPECT_EQ(spans[0].duration(), 0);
}

TEST(Tracer, LongRuntimeTextIsCutAndMarked) {
  VirtualClock clock;
  Tracer tracer(4);
  TraceSinks sinks;
  sinks.SetAttached(&tracer);
  const std::size_t capacity = SpanRecord::kTextCapacity;
  // Fits exactly: kept whole.
  const std::string exact(capacity, 'a');
  RecordInstant(&sinks, clock, 1, "holder", {.format = "{t}", .text = exact},
                {});
  // One byte over: cut to leave room for the mark.
  const std::string over = exact + "b";
  RecordInstant(&sinks, clock, 1, "holder", {.format = "{t}", .text = over},
                {});
  // A two-byte UTF-8 character straddling the cut is dropped whole.
  const std::string utf8 = std::string(capacity - 4, 'c') + "\xC3\xA9zzzz";
  RecordInstant(&sinks, clock, 1, "holder", {.format = "{t}", .text = utf8},
                {});
  const auto spans = tracer.SnapshotSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, exact);
  EXPECT_EQ(spans[1].name, std::string(capacity - 3, 'a') + "...");
  EXPECT_EQ(spans[2].name, std::string(capacity - 4, 'c') + "...");
}

TEST(Tracer, ConcurrentRecordKeepsEveryEventCounted) {
  // Regression: RecordSpan from many threads must neither tear the ring
  // indices nor lose spans from the total counter.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  Tracer tracer(64);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.RecordSpan(
            InstantSpan(i, static_cast<SiteId>(t + 1), "c", std::to_string(i)));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(tracer.spans_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.SnapshotSpans().size(), 64u);
  EXPECT_EQ(tracer.spans_dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - 64);
}

TEST(Tracer, SnapshotsWhileFourThreadsRecord) {
  // Four recorders share one ring while a fifth thread snapshots it: every
  // snapshot holds whole records (each span's name matches its site), and
  // every recorded span is counted.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  Tracer tracer(64);
  TraceSinks sinks;
  sinks.SetAttached(&tracer);
  auto peer_of = [](SiteId site) {
    return "10.0.0." + std::to_string(site) + ":7501";
  };
  auto record = [&](SiteId site, const std::string& peer) {
    SpanScope span(&sinks, SystemClock::Instance(), site, "rpc",
                   {.format = "{k} {t}", .kind = "call", .text = peer},
                   TraceContext::NewId(site));
  };
  // A snapshot may see a slot's previous record while its next writer is
  // between reserving and writing it; fill the ring so that is a whole one.
  for (int i = 0; i < 64; ++i) record(1, peer_of(1));
  std::atomic<bool> writing{true};
  std::atomic<int> torn{0};
  std::atomic<int> snapshots{0};
  std::thread reader([&] {
    while (writing.load()) {
      const std::vector<Span> spans = tracer.SnapshotSpans();
      if (spans.size() > 64) torn.fetch_add(1);
      for (const Span& span : spans) {
        if (span.category != "rpc" || span.name != "call " + peer_of(span.site)) {
          torn.fetch_add(1);
        }
      }
      snapshots.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const SiteId site = static_cast<SiteId>(t + 1);
      const std::string peer = peer_of(site);
      for (int i = 0; i < kPerWriter; ++i) record(site, peer);
    });
  }
  for (auto& w : writers) w.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(snapshots.load(), 0);
  EXPECT_EQ(tracer.spans_recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter + 64);
  EXPECT_EQ(tracer.SnapshotSpans().size(), 64u);
}

TEST(TraceContext, ScopesNestAndRestore) {
  ASSERT_FALSE(TraceContext::Current().valid());
  TraceId outer = TraceContext::NewId(1);
  TraceId inner = TraceContext::NewId(2);
  EXPECT_NE(outer, inner);
  {
    TraceContext::Scope s1(outer);
    EXPECT_EQ(TraceContext::Current(), outer);
    {
      TraceContext::Scope s2(inner);
      EXPECT_EQ(TraceContext::Current(), inner);
    }
    EXPECT_EQ(TraceContext::Current(), outer);
    EXPECT_EQ(TraceContext::CurrentOrNew(9), outer);
  }
  EXPECT_FALSE(TraceContext::Current().valid());
  EXPECT_TRUE(TraceContext::CurrentOrNew(9).valid());
  EXPECT_FALSE(TraceContext::Current().valid());  // CurrentOrNew won't install
}

TEST(Tracer, SnapshotTraceFiltersOneFlow) {
  Tracer tracer(16);
  TraceId flow_a{1, 100};
  TraceId flow_b{2, 200};
  tracer.RecordSpan(InstantSpan(1, 1, "serve.call", "a1", flow_a));
  tracer.RecordSpan(InstantSpan(2, 2, "serve.get", "b1", flow_b));
  tracer.RecordSpan(InstantSpan(3, 2, "serve.get", "a2", flow_a));
  tracer.RecordSpan(InstantSpan(4, 1, "serve.put", "none"));  // no flow
  auto spans = tracer.SnapshotTraceSpans(flow_a);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "a1");
  EXPECT_EQ(spans[1].name, "a2");
}

TEST(Tracer, ClearResets) {
  Tracer tracer(4);
  tracer.RecordSpan(InstantSpan(1, 1, "e", "x"));
  tracer.Clear();
  EXPECT_TRUE(tracer.SnapshotSpans().empty());
  EXPECT_EQ(tracer.spans_recorded(), 0u);
}

TEST(Tracer, DumpRendersLines) {
  Tracer tracer(4);
  tracer.RecordSpan(InstantSpan(2 * kMilli, 3, "fault", "obj(1:2)"));
  std::string dump = tracer.Dump();
  EXPECT_NE(dump.find("site 3"), std::string::npos);
  EXPECT_NE(dump.find("fault: obj(1:2)"), std::string::npos);
}

TEST(Tracer, MergedProtocolTimeline) {
  // One tracer across two sites yields the whole conversation.
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  Tracer tracer(64);
  provider.SetTracer(&tracer);
  demander.SetTracer(&tracer);

  auto head = test::MakeChain(3, 16, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<test::Node>("list");
  ASSERT_TRUE(remote.ok());
  (void)remote->Invoke(&test::Node::Value);
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  (void)(*ref)->next->Label();  // fault
  (*ref)->SetLabel("edit");
  ASSERT_TRUE(demander.Put(*ref).ok());

  auto spans = tracer.SnapshotSpans();
  ASSERT_FALSE(spans.empty());

  auto count = [&](std::string_view category, SiteId site) {
    int n = 0;
    for (const auto& s : spans) {
      if (s.category == category && s.site == site) ++n;
    }
    return n;
  };
  EXPECT_EQ(count("serve.call", 1), 1);  // the RMI, served at the provider
  EXPECT_EQ(count("serve.get", 1), 2);   // initial replicate + fault
  EXPECT_EQ(count("fault", 2), 1);       // recorded at the demander
  EXPECT_EQ(count("serve.put", 1), 1);

  // Completion order on the shared virtual clock: end times are monotone
  // (a parent begins before, but completes after, its children).
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].end, spans[i].end);
  }

  // Detached sites stop recording.
  provider.SetTracer(nullptr);
  demander.SetTracer(nullptr);
  auto before = tracer.spans_recorded();
  (void)remote->Invoke(&test::Node::Value);
  EXPECT_EQ(tracer.spans_recorded(), before);
}

}  // namespace
}  // namespace obiwan
