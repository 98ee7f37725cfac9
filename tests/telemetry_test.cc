// Telemetry integration tests: the correlation id on the wire, the envelope
// trace flag, site counters as the metrics registry's own series, and the
// end-to-end criterion — one correlation id spanning both sites of a
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

// A site's counters are the registry's own series, not copies of them: a
// delta is two reads of one handle, and the registry-wide sum moves with it.
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

  const Counter& sent = *demander.telemetry().calls_sent;
  const Counter& served = *provider.telemetry().calls_served;
  auto registry_sent = [] {
    return MetricsRegistry::Default().SumCounters(
        "obiwan_site_calls_sent_total");
  };
  const std::uint64_t sent_before = sent.Value();
  const std::uint64_t served_before = served.Value();
  const std::uint64_t registry_before = registry_sent();
  EXPECT_GE(sent_before, 1u);
  EXPECT_EQ(served_before, sent_before);
  EXPECT_GE(registry_before, sent_before);

  ASSERT_TRUE(remote->Invoke(&test::Node::Value).ok());
  EXPECT_EQ(sent.Value() - sent_before, 1u);
  EXPECT_EQ(served.Value() - served_before, 1u);
  EXPECT_EQ(registry_sent() - registry_before, 1u);
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

  const core::SiteTelemetry& d = demander.telemetry();
  const core::SiteTelemetry& p = provider.telemetry();
  EXPECT_GT(d.replication_bytes_in->Value(), 0u);   // the get reply body
  EXPECT_GT(d.replication_bytes_out->Value(), 0u);  // the put frame
  EXPECT_GT(p.replication_bytes_out->Value(), 0u);  // the get reply it served
  EXPECT_GT(p.replication_bytes_in->Value(), 0u);   // the put body it absorbed
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

  const Counter& writer_out = *writer.telemetry().replication_bytes_out;
  const Counter& provider_in = *provider.telemetry().replication_bytes_in;
  const Counter& provider_out = *provider.telemetry().replication_bytes_out;
  const Counter& holder_in = *holder.telemetry().replication_bytes_in;
  const std::uint64_t w0 = writer_out.Value();
  const std::uint64_t pi0 = provider_in.Value();
  const std::uint64_t po0 = provider_out.Value();
  const std::uint64_t h0 = holder_in.Value();

  (*writer_ref)->SetLabel("edited");
  ASSERT_TRUE(writer.Put(*writer_ref).ok());

  // Put leg: what the writer shipped is what the provider absorbed.
  EXPECT_GT(writer_out.Value() - w0, 0u);
  EXPECT_EQ(writer_out.Value() - w0, provider_in.Value() - pi0);
  // Push leg: what the provider fanned out is what the holder absorbed.
  EXPECT_GT(provider_out.Value() - po0, 0u);
  EXPECT_EQ(provider_out.Value() - po0, holder_in.Value() - h0);
}

// Every site gauge is computed when read: RefreshTelemetry (which Inspect
// runs) recomputes each one from the tables, and no protocol path moves it
// in between.
TEST(SiteTelemetry, RefreshTelemetryRecomputesEverySiteGauge) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperLan);
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site laptop(2, network.CreateEndpoint("laptop"), clock);
  core::Site pda(3, network.CreateEndpoint("pda"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(laptop.Start().ok());
  ASSERT_TRUE(pda.Start().ok());
  provider.HostRegistry();
  laptop.UseRegistry("p");
  pda.UseRegistry("p");
  // Above 1, so one failed notification leaves its holder suspect with a
  // queued retry instead of dropping it.
  provider.SetHolderFailureThreshold(3);

  auto head = test::MakeChain(4, 16, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  const ObjectId head_id = provider.Export(head);
  auto laptop_remote = laptop.Lookup<test::Node>("list");
  ASSERT_TRUE(laptop_remote.ok());
  auto laptop_ref =
      laptop_remote->Replicate(core::ReplicationMode::Incremental(2));
  ASSERT_TRUE(laptop_ref.ok());
  auto pda_remote = pda.Lookup<test::Node>("list");
  ASSERT_TRUE(pda_remote.ok());
  ASSERT_TRUE(pda_remote->Replicate(core::ReplicationMode::Incremental(1)).ok());

  // A release: the laptop gives up the channel of its second replica.
  auto channel = laptop.ReplicaProvider((*laptop_ref)->next.id());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE(laptop.ReleaseProxy(*channel).ok());
  // A failed notification: the pda is off the air when the head changes.
  network.SetEndpointUp("pda", false);
  ASSERT_TRUE(provider.MarkMasterUpdated(head_id).ok());
  ASSERT_EQ(provider.pending_notify_retries(), 1u);

  const core::SiteTelemetry& t = provider.telemetry();
  auto expect_gauges = [&] {
    EXPECT_EQ(t.proxy_ins->Value(),
              static_cast<std::int64_t>(provider.proxy_in_count()));
    EXPECT_EQ(t.objects_master->Value(),
              static_cast<std::int64_t>(provider.master_count()));
    EXPECT_EQ(t.objects_replica->Value(),
              static_cast<std::int64_t>(provider.replica_count()));
    EXPECT_EQ(t.holders_active->Value(), 1);  // the laptop
    EXPECT_EQ(t.holders_suspect->Value(), 1);  // the pda
    EXPECT_EQ(t.notify_retry_depth->Value(),
              static_cast<std::int64_t>(provider.pending_notify_retries()));
  };
  provider.RefreshTelemetry();
  {
    SCOPED_TRACE("after RefreshTelemetry");
    expect_gauges();
  }

  // The laptop faults in the rest of the chain, which mints a pin and an
  // id at the provider. The get leaves the gauges alone; the read moves
  // them.
  ASSERT_TRUE((*laptop_ref)->next->next.Demand().ok());
  EXPECT_NE(t.proxy_ins->Value(),
            static_cast<std::int64_t>(provider.proxy_in_count()));
  (void)provider.Inspect();
  {
    SCOPED_TRACE("after Inspect");
    expect_gauges();
  }
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
