// Telemetry integration tests: the correlation id on the wire, the envelope
// trace flag, site counters as baseline views over the metrics registry, and
// the end-to-end criterion — one correlation id spanning both sites of a
// fault-and-replicate flow.
#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "obiwan.h"
#include "rmi/protocol.h"
#include "test_objects.h"
#include "wire/codec.h"

namespace obiwan {
namespace {

TEST(TraceWire, CodecRoundTrip) {
  TraceId id{7, 123456789};
  wire::Writer w;
  wire::Encode(w, id);
  wire::Reader r(AsView(w.data()));
  TraceId back = wire::Decode<TraceId>(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back, id);
  EXPECT_TRUE(r.AtEnd());
}

TEST(TraceWire, EnvelopeCarriesTraceHeader) {
  wire::Writer body;
  body.U32(0xDEADBEEF);
  TraceId id{3, 42};
  Bytes framed = rmi::WrapRequest(rmi::MessageKind::kGet, body, id);
  EXPECT_NE(framed[0] & rmi::kTraceFlag, 0);

  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, rmi::MessageKind::kGet);
  EXPECT_EQ(parsed->trace, id);
  wire::Reader r(parsed->body);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(TraceWire, UntracedEnvelopeIsUnchanged) {
  // Backwards compatibility: without a trace id the envelope is the plain
  // 1-byte kind — a bare kPing stays a single byte.
  wire::Writer empty;
  Bytes framed = rmi::WrapRequest(rmi::MessageKind::kPing, empty);
  ASSERT_EQ(framed.size(), 1u);
  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, rmi::MessageKind::kPing);
  EXPECT_FALSE(parsed->trace.valid());
  EXPECT_TRUE(parsed->body.empty());
}

TEST(TraceWire, LargeIdsRoundTripThroughEnvelope) {
  wire::Writer empty;
  TraceId id{65535, 0xFFFFFFFFFFFFull};  // multi-byte varints both fields
  Bytes framed = rmi::WrapRequest(rmi::MessageKind::kCall, empty, id);
  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace, id);
}

TEST(TraceWire, TruncatedTraceHeaderRejected) {
  Bytes bad = {static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(rmi::MessageKind::kPing) | rmi::kTraceFlag)};
  EXPECT_FALSE(rmi::ParseRequest(AsView(bad)).ok());
}

TEST(TraceWire, FlaggedUnknownKindRejected) {
  Bytes bad = {rmi::kTraceFlag};  // kind bits all zero
  EXPECT_FALSE(rmi::ParseRequest(AsView(bad)).ok());
}

// --- deadline header -------------------------------------------------------------

TEST(DeadlineWire, EnvelopeCarriesDeadlineBudget) {
  wire::Writer body;
  body.U32(0xFEEDFACE);
  Bytes framed =
      rmi::WrapRequest(rmi::MessageKind::kGet, body, {}, 250 * kMilli);
  EXPECT_NE(framed[0] & rmi::kDeadlineFlag, 0);
  EXPECT_EQ(framed[0] & rmi::kTraceFlag, 0);

  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, rmi::MessageKind::kGet);
  EXPECT_EQ(parsed->deadline_budget, 250 * kMilli);
  wire::Reader r(parsed->body);
  EXPECT_EQ(r.U32(), 0xFEEDFACEu);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DeadlineWire, TraceAndDeadlineCompose) {
  wire::Writer body;
  body.U8(9);
  TraceId id{3, 42};
  Bytes framed = rmi::WrapRequest(rmi::MessageKind::kPut, body, id, kSecond);
  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, rmi::MessageKind::kPut);
  EXPECT_EQ(parsed->trace, id);
  EXPECT_EQ(parsed->deadline_budget, kSecond);
  wire::Reader r(parsed->body);
  EXPECT_EQ(r.U8(), 9);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DeadlineWire, AbsentDeadlineParsesAsMinusOne) {
  wire::Writer empty;
  Bytes framed = rmi::WrapRequest(rmi::MessageKind::kPing, empty);
  ASSERT_EQ(framed.size(), 1u);  // wire layout unchanged without the flag
  auto parsed = rmi::ParseRequest(AsView(framed));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->deadline_budget, -1);
}

TEST(DeadlineWire, TruncatedDeadlineHeaderRejected) {
  Bytes bad = {static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(rmi::MessageKind::kPing) | rmi::kDeadlineFlag)};
  EXPECT_FALSE(rmi::ParseRequest(AsView(bad)).ok());
}

// The PR's acceptance criterion: a single LMI fault-and-replicate flow leaves
// the SAME correlation id in both sites' trace snapshots, with each site's
// own tracer — the id demonstrably crossed the wire.
TEST(CrossSiteTrace, OneCorrelationIdSpansBothSites) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  Tracer provider_trace(64);
  Tracer demander_trace(64);
  provider.SetTracer(&provider_trace);
  demander.SetTracer(&demander_trace);

  auto head = test::MakeChain(2, 16, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<test::Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  // Touching the un-replicated tail faults it in: demander records the fault
  // and sends a get carrying the flow's id; provider serves it.
  (void)(*ref)->next->Label();

  TraceId flow;
  for (const auto& s : demander_trace.SnapshotSpans()) {
    if (s.category == "fault") flow = s.trace;  // newest fault wins
  }
  ASSERT_TRUE(flow.valid());
  EXPECT_EQ(flow.site, 2u);  // allocated at the call origin — the demander

  // The provider recorded work under the very same id.
  auto provider_spans = provider_trace.SnapshotTraceSpans(flow);
  ASSERT_FALSE(provider_spans.empty());
  bool get_served = false;
  for (const auto& s : provider_spans) {
    EXPECT_EQ(s.site, 1u);
    EXPECT_EQ(s.trace, flow);
    if (s.category == "serve.get") get_served = true;
  }
  EXPECT_TRUE(get_served);

  // And the demander's own flow view contains the originating fault.
  auto demander_spans = demander_trace.SnapshotTraceSpans(flow);
  bool fault_seen = false;
  for (const auto& s : demander_spans) {
    EXPECT_EQ(s.site, 2u);
    if (s.category == "fault") fault_seen = true;
  }
  EXPECT_TRUE(fault_seen);

  provider.SetTracer(nullptr);
  demander.SetTracer(nullptr);
}

// Reintegration flows propagate too: the put a demander sends shows up at the
// provider under the same correlation id.
TEST(CrossSiteTrace, PutFlowSpansBothSites) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  Tracer provider_trace(64);
  provider.SetTracer(&provider_trace);

  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider.Bind("obj", head).ok());
  auto remote = demander.Lookup<test::Node>("obj");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  (*ref)->SetLabel("edited");
  ASSERT_TRUE(demander.Put(*ref).ok());

  bool traced_put = false;
  for (const auto& s : provider_trace.SnapshotSpans()) {
    if (s.category == "serve.put" && s.trace.valid() && s.trace.site == 2) {
      traced_put = true;
    }
  }
  EXPECT_TRUE(traced_put);
  provider.SetTracer(nullptr);
}

TEST(SiteTelemetry, StatsAreBaselineViewsOverMonotonicCounters) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider.Bind("obj", head).ok());
  auto remote = demander.Lookup<test::Node>("obj");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(remote->Invoke(&test::Node::Value).ok());

  core::SiteStats before = demander.stats();
  EXPECT_GE(before.calls_sent, 1u);
  EXPECT_EQ(provider.stats().calls_served, before.calls_sent);

  // ResetStats() rebaselines the view; the registry counters keep counting.
  demander.ResetStats();
  EXPECT_EQ(demander.stats().calls_sent, 0u);
  ASSERT_TRUE(remote->Invoke(&test::Node::Value).ok());
  EXPECT_EQ(demander.stats().calls_sent, 1u);
  EXPECT_GE(MetricsRegistry::Default().SumCounters("obiwan_site_calls_sent_total"),
            before.calls_sent + 1);
}

TEST(SiteTelemetry, ReplicationBytesAccounted) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(1, 256, "n");
  ASSERT_TRUE(provider.Bind("obj", head).ok());
  auto remote = demander.Lookup<test::Node>("obj");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());
  (*ref)->SetLabel("edited");
  ASSERT_TRUE(demander.Put(*ref).ok());

  core::SiteStats d = demander.stats();
  core::SiteStats p = provider.stats();
  EXPECT_GT(d.replication_bytes_in, 0u);   // the get reply body
  EXPECT_GT(d.replication_bytes_out, 0u);  // the put frame
  EXPECT_GT(p.replication_bytes_out, 0u);  // the get reply it served
  EXPECT_GT(p.replication_bytes_in, 0u);   // the put body it absorbed
}

// Both ends of every replication leg must count the same payload (wire body)
// bytes: sender-side envelope bytes or missing push accounting would make
// cross-site byte totals disagree.
TEST(SiteTelemetry, ReplicationByteAccountingIsSymmetric) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site writer(2, network.CreateEndpoint("w"));
  core::Site holder(3, network.CreateEndpoint("h"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(writer.Start().ok());
  ASSERT_TRUE(holder.Start().ok());
  provider.HostRegistry();
  writer.UseRegistry("p");
  holder.UseRegistry("p");
  provider.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());

  auto head = test::MakeChain(1, 256, "n");
  ASSERT_TRUE(provider.Bind("obj", head).ok());
  auto writer_remote = writer.Lookup<test::Node>("obj");
  ASSERT_TRUE(writer_remote.ok());
  auto writer_ref = writer_remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(writer_ref.ok());
  auto holder_remote = holder.Lookup<test::Node>("obj");
  ASSERT_TRUE(holder_remote.ok());
  auto holder_ref = holder_remote->Replicate(core::ReplicationMode::Incremental(1));
  ASSERT_TRUE(holder_ref.ok());

  const core::SiteStats w0 = writer.stats();
  const core::SiteStats p0 = provider.stats();
  const core::SiteStats h0 = holder.stats();

  (*writer_ref)->SetLabel("edited");
  ASSERT_TRUE(writer.Put(*writer_ref).ok());

  const core::SiteStats w1 = writer.stats();
  const core::SiteStats p1 = provider.stats();
  const core::SiteStats h1 = holder.stats();

  // Put leg: what the writer shipped is what the provider absorbed.
  EXPECT_GT(w1.replication_bytes_out - w0.replication_bytes_out, 0u);
  EXPECT_EQ(w1.replication_bytes_out - w0.replication_bytes_out,
            p1.replication_bytes_in - p0.replication_bytes_in);
  // Push leg: what the provider fanned out is what the holder absorbed.
  EXPECT_GT(p1.replication_bytes_out - p0.replication_bytes_out, 0u);
  EXPECT_EQ(p1.replication_bytes_out - p0.replication_bytes_out,
            h1.replication_bytes_in - h0.replication_bytes_in);
}

TEST(SiteTelemetry, ClientLatencyObservedOnVirtualClock) {
  // On the simulated paper LAN the RPC round trip costs virtual milliseconds;
  // TimedRequest runs on the site clock, so those modelled costs must show up
  // in the latency histogram rather than the (near-zero) real CPU time.
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(1, 16, "n");
  ASSERT_TRUE(provider.Bind("obj", head).ok());
  auto remote = demander.Lookup<test::Node>("obj");
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(remote->Invoke(&test::Node::Value).ok());

  HistogramSummary calls = MetricsRegistry::Default().SummarizeHistograms(
      "obiwan_rmi_client_latency_ns", {{"op", "call"}});
  EXPECT_GE(calls.count, 1u);
  EXPECT_GE(calls.max, kMilli);  // >= 1 ms of modelled network time
}

}  // namespace
}  // namespace obiwan
