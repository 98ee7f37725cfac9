// Replication introspection: report structure, wire round-trip, snapshot
// identity, remote pulls through kInspect, staleness gauges across a
// disconnection window, and the flight-dump state embedding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::InspectEntry;
using core::InspectReport;
using core::ReplicationMode;
using test::Node;

const InspectEntry* FindEntry(const InspectReport& report, ObjectId id) {
  for (const InspectEntry& e : report.objects) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

// Largest value among gauge series of `name` whose DumpText line contains
// every substring in `having` (e.g. site="2", agg="max"). Dead sites zero
// their gauges in ~Site, so the live site's series dominates the max.
std::int64_t MaxGauge(const std::string& name,
                      const std::vector<std::string>& having) {
  const std::string text = MetricsRegistry::Default().DumpText();
  std::int64_t best = 0;
  bool found = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find(name + "{") == std::string::npos &&
        line.find(name + " ") == std::string::npos) {
      continue;
    }
    bool all = true;
    for (const std::string& h : having) {
      if (line.find(h) == std::string::npos) all = false;
    }
    if (!all) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::int64_t v = std::stoll(line.substr(space + 1));
    best = found ? std::max(best, v) : v;
    found = true;
  }
  return best;
}

TEST(InspectCodec, ReportRoundTripsOverWire) {
  InspectReport report;
  report.site = 7;
  report.address = "pda";
  report.now = 123456789;
  report.masters = 2;
  report.replicas = 1;
  report.proxy_ins = 3;
  report.frontier = 1;

  InspectEntry master;
  master.id = ObjectId{7, 1};
  master.master = true;
  master.class_name = "Node";
  master.local_version = 5;
  master.known_master_version = 5;
  master.age = 1000;
  master.payload_bytes = 64;
  master.faults = 2;
  master.puts = 3;
  master.holders = 1;
  master.edges.push_back({ObjectId{7, 2}, false, "Node"});
  report.objects.push_back(master);

  InspectEntry replica;
  replica.id = ObjectId{1, 9};
  replica.class_name = "Node";
  replica.local_version = 2;
  replica.known_master_version = 4;
  replica.stale = true;
  replica.in_cluster = true;
  replica.staleness_versions = 2;
  replica.age = -1;  // Svarint field: negative must survive
  replica.edges.push_back({ObjectId{1, 10}, true, "Node"});
  report.objects.push_back(replica);

  core::InspectPin pin;
  pin.pin = ProxyId{7, 4};
  pin.target = ObjectId{7, 1};
  pin.anchored = true;
  pin.lease_remaining = -1;
  report.pins.push_back(pin);

  wire::Writer w;
  wire::Encode(w, report);
  wire::Reader r(AsView(w.data()));
  const InspectReport back = wire::Decode<InspectReport>(r);
  ASSERT_TRUE(r.status().ok());
  EXPECT_TRUE(r.AtEnd());

  // Field-for-field identity is what the renderers rely on, so compare the
  // rendered forms (covers every field the codec carries).
  EXPECT_EQ(core::ToJson(report), core::ToJson(back));
  EXPECT_EQ(core::ToText(report), core::ToText(back));
  EXPECT_EQ(core::FrontierDot(report), core::FrontierDot(back));
  EXPECT_EQ(core::FrontierJson(report), core::FrontierJson(back));
}

class InspectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<core::Site>(1, network_.CreateEndpoint("p"),
                                             clock_);
    demander_ = std::make_unique<core::Site>(2, network_.CreateEndpoint("d"),
                                             clock_);
    ASSERT_TRUE(provider_->Start().ok());
    ASSERT_TRUE(demander_->Start().ok());
    provider_->HostRegistry();
    demander_->UseRegistry("p");
  }

  core::Ref<Node> Replicate(const std::string& name, ReplicationMode mode) {
    auto remote = demander_->Lookup<Node>(name);
    EXPECT_TRUE(remote.ok());
    auto ref = remote->Replicate(mode);
    EXPECT_TRUE(ref.ok());
    return *ref;
  }

  VirtualClock clock_;
  net::LoopbackNetwork network_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> demander_;
};

TEST_F(InspectTest, ReportCoversRolesEdgesAndPins) {
  auto head = test::MakeChain(3, 32, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto ref = Replicate("list", ReplicationMode::Incremental(2));

  InspectReport at_provider = provider_->Inspect();
  EXPECT_EQ(at_provider.site, 1u);
  EXPECT_EQ(at_provider.address, "p");
  EXPECT_EQ(at_provider.masters, 3u);
  EXPECT_EQ(at_provider.replicas, 0u);
  EXPECT_EQ(at_provider.objects.size(), 3u);
  const InspectEntry* master = FindEntry(at_provider, ref.id());
  ASSERT_NE(master, nullptr);
  EXPECT_TRUE(master->master);
  EXPECT_FALSE(master->class_name.empty());
  EXPECT_EQ(master->local_version, 1u);
  EXPECT_EQ(master->known_master_version, 1u);
  EXPECT_EQ(master->holders, 1u);  // the demander registered as holder
  EXPECT_GE(master->faults, 1u);   // served the replication get
  EXPECT_GT(master->payload_bytes, 0u);
  ASSERT_EQ(master->edges.size(), 1u);
  EXPECT_FALSE(master->edges[0].proxy);  // masters hold the real next node

  // The bind pin is anchored and unleased; replication added more pins.
  EXPECT_GE(at_provider.proxy_ins, 1u);
  EXPECT_EQ(at_provider.pins.size(), at_provider.proxy_ins);
  bool anchored = false;
  for (const auto& pin : at_provider.pins) {
    if (pin.anchored) {
      anchored = true;
      EXPECT_EQ(pin.lease_remaining, -1);
    }
  }
  EXPECT_TRUE(anchored);

  InspectReport at_demander = demander_->Inspect();
  EXPECT_EQ(at_demander.site, 2u);
  EXPECT_EQ(at_demander.masters, 0u);
  EXPECT_EQ(at_demander.replicas, 2u);
  EXPECT_EQ(at_demander.frontier, 1u);  // node 2 is an unresolved proxy-out
  const InspectEntry* replica = FindEntry(at_demander, ref.id());
  ASSERT_NE(replica, nullptr);
  EXPECT_FALSE(replica->master);
  EXPECT_EQ(replica->local_version, 1u);
  EXPECT_EQ(replica->staleness_versions, 0u);
  EXPECT_GE(replica->faults, 1u);  // the initial fetch
  bool frontier_edge = false;
  for (const InspectEntry& e : at_demander.objects) {
    for (const auto& edge : e.edges) {
      if (edge.proxy) frontier_edge = true;
    }
  }
  EXPECT_TRUE(frontier_edge);

  // Renderers carry the schema bits tools/ci.sh checks.
  const std::string json = core::ToJson(at_demander);
  EXPECT_NE(json.find("\"site\":2"), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"replica\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  const std::string dot = core::FrontierDot(at_demander);
  EXPECT_NE(dot.find("digraph obiwan_frontier"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  const std::string fj = core::FrontierJson(at_demander);
  EXPECT_NE(fj.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(fj.find("\"role\":\"frontier\""), std::string::npos);
  EXPECT_NE(core::ToText(at_demander).find("replica"), std::string::npos);
}

TEST_F(InspectTest, RemoteInspectMatchesLocalReport) {
  auto head = test::MakeChain(2, 32, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  auto ref = Replicate("list", ReplicationMode::Incremental(1));
  (void)ref;

  auto remote = provider_->InspectRemote("d");
  ASSERT_TRUE(remote.ok()) << remote.status();
  // The loopback network charges nothing to the virtual clock, so the remote
  // pull and a local report are byte-identical.
  EXPECT_EQ(core::ToJson(*remote), core::ToJson(demander_->Inspect()));
  EXPECT_EQ(remote->site, 2u);
  EXPECT_EQ(remote->replicas, 1u);
}

TEST_F(InspectTest, SnapshotRoundTripPreservesTheReport) {
  auto head = test::MakeChain(4, 32, "n");
  ASSERT_TRUE(provider_->Bind("list", head).ok());
  {
    auto ref = Replicate("list", ReplicationMode::Incremental(2));
    ref->SetLabel("edited-offline");
  }

  InspectReport before = demander_->Inspect();
  auto snapshot = demander_->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  demander_->Stop();
  demander_.reset();  // frees the "d" endpoint for the reborn site

  core::Site reborn(2, network_.CreateEndpoint("d"), clock_);
  ASSERT_TRUE(reborn.LoadSnapshot(AsView(*snapshot)).ok());
  InspectReport after = reborn.Inspect();

  // Introspection state — versions, staleness counters, sync times, edge
  // topology, pins — is part of what a snapshot preserves, so the restored
  // site's report is identical (the virtual clock did not move).
  EXPECT_EQ(core::ToJson(before), core::ToJson(after));
  EXPECT_EQ(core::ToText(before), core::ToText(after));
  EXPECT_EQ(core::FrontierDot(before), core::FrontierDot(after));
}

TEST(InspectFlightDump, DumpEmbedsReplicaTableSummary) {
  VirtualClock clock;
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"), clock);
  core::Site demander(2, network.CreateEndpoint("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(2, 32, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  // Every live site contributes a state summary to the merged dump.
  const std::string dump = FlightRecorder::Global().ChromeTraceJson();
  EXPECT_NE(dump.find("\"otherData\""), std::string::npos);
  EXPECT_NE(dump.find("\"site 1 state\""), std::string::npos);
  EXPECT_NE(dump.find("\"site 2 state\""), std::string::npos);
  EXPECT_NE(dump.find("\"rows\""), std::string::npos);

  // The summary itself is bounded, valid JSON with the table counts.
  const std::string summary = demander.ReplicaSummaryJson();
  EXPECT_NE(summary.find("\"replicas\":2"), std::string::npos);
  EXPECT_NE(summary.find("\"truncated\":false"), std::string::npos);
}

class StalenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::SimNetwork>(clock_, net::kPaperLan);
    office_ = std::make_unique<core::Site>(1, network_->CreateEndpoint("office"),
                                           clock_);
    pda_ = std::make_unique<core::Site>(2, network_->CreateEndpoint("pda"),
                                        clock_);
    ASSERT_TRUE(office_->Start().ok());
    ASSERT_TRUE(pda_->Start().ok());
    office_->HostRegistry();
    pda_->UseRegistry("office");
  }

  VirtualClock clock_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<core::Site> office_;
  std::unique_ptr<core::Site> pda_;
};

TEST_F(StalenessTest, GaugesRiseAcrossDisconnectionAndResetAfterRefresh) {
  auto head = test::MakeChain(2, 32, "n");
  ASSERT_TRUE(office_->Bind("list", head).ok());
  auto remote = pda_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok());

  // Fresh replica: in sync, nothing stale on the gauges.
  {
    InspectReport r = pda_->Inspect();
    const InspectEntry* e = FindEntry(r, ref->id());
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->staleness_versions, 0u);
    EXPECT_FALSE(e->stale);
  }
  EXPECT_EQ(MaxGauge("obiwan_replica_staleness_versions",
                     {"site=\"2\"", "agg=\"max\""}),
            0);

  // The office edits the master locally; the versioned invalidation reaches
  // the PDA while the link is still up, so the PDA knows exactly how far
  // behind it is.
  head->value = 42;
  ASSERT_TRUE(office_->MarkMasterUpdated(ref->id()).ok());
  {
    InspectReport r = pda_->Inspect();
    const InspectEntry* e = FindEntry(r, ref->id());
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->stale);
    EXPECT_EQ(e->local_version, 1u);
    EXPECT_EQ(e->known_master_version, 2u);
    EXPECT_EQ(e->staleness_versions, 1u);
  }
  EXPECT_EQ(MaxGauge("obiwan_replica_staleness_versions",
                     {"site=\"2\"", "agg=\"max\""}),
            1);

  // Into the tunnel: the disconnection window. Time passes; a refresh
  // attempt fails and the staleness age keeps growing. The gauges are
  // computed when read, so pull them the way a /metrics scrape does.
  network_->SetEndpointUp("pda", false);
  clock_.Sleep(5 * kSecond);
  EXPECT_FALSE(pda_->Refresh(*ref).ok());
  pda_->RefreshTelemetry();
  EXPECT_GE(MaxGauge("obiwan_replica_staleness_age_ns", {"site=\"2\""}),
            5 * kSecond);

  // Acceptance scenario: back in coverage, the office pulls the PDA's report
  // remotely and sees the replica >= 1 version stale with nonzero age —
  // before the PDA has refreshed.
  network_->SetEndpointUp("pda", true);
  auto seen = office_->InspectRemote("pda");
  ASSERT_TRUE(seen.ok()) << seen.status();
  const InspectEntry* stale_entry = FindEntry(*seen, ref->id());
  ASSERT_NE(stale_entry, nullptr);
  EXPECT_FALSE(stale_entry->master);
  EXPECT_GE(stale_entry->staleness_versions, 1u);
  EXPECT_GT(stale_entry->age, 0);

  // Refresh resynchronises: staleness collapses to zero, in report and gauge.
  ASSERT_TRUE(pda_->Refresh(*ref).ok());
  EXPECT_EQ((*ref)->Value(), 42);
  {
    InspectReport r = pda_->Inspect();
    const InspectEntry* e = FindEntry(r, ref->id());
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->stale);
    EXPECT_EQ(e->local_version, 2u);
    EXPECT_EQ(e->staleness_versions, 0u);
  }
  EXPECT_EQ(MaxGauge("obiwan_replica_staleness_versions",
                     {"site=\"2\"", "agg=\"max\""}),
            0);
}

TEST_F(StalenessTest, RoleGaugesTrackTheTables) {
  auto head = test::MakeChain(3, 32, "n");
  ASSERT_TRUE(office_->Bind("list", head).ok());
  auto remote = pda_->Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok());

  // Inspect refreshes the gauges on both sides.
  office_->Inspect();
  pda_->Inspect();
  EXPECT_EQ(MaxGauge("obiwan_objects", {"site=\"1\"", "role=\"master\""}), 3);
  EXPECT_EQ(MaxGauge("obiwan_objects", {"site=\"2\"", "role=\"replica\""}), 2);
  EXPECT_EQ(MaxGauge("obiwan_objects", {"site=\"2\"", "role=\"frontier\""}), 1);
}

TEST_F(StalenessTest, MarkMasterUpdatedRejectsUnknownObjects) {
  EXPECT_FALSE(office_->MarkMasterUpdated(ObjectId{1, 999}).ok());
}

}  // namespace
}  // namespace obiwan
