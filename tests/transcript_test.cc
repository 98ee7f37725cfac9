// Golden protocol transcript: a scripted three-site scenario over
// LoopbackNetwork records every request and reply frame that crosses a site
// boundary and compares them, byte for byte, with
// tests/testdata/transcript.golden.
//
// The scenario covers gets in all four replication modes, the laptop
// re-exporting its replicas to a PDA (a forwarded proxy), object and cluster
// refresh, puts (one carrying a back-reference to an object mastered by the
// writer), a transactional commit, write-invalidate invalidations, pushes
// under PushUpdates, MarkMasterUpdated, a version-vector put whose policy
// data rides in the frames, and lease renew and release.
//
// Every recorded get reply and push record must also decode and re-encode to
// the same bytes through the Codec<GetReply>/Codec<ObjectRecord> wrappers.
// After the scenario the laptop saves a snapshot, which must match
// tests/testdata/snapshot.golden byte for byte; a fresh site with the
// laptop's id loads it and faults onward through a restored proxy.
//
// A change that means to alter the wire or the snapshot format regenerates
// both golden files:
//   OBIWAN_REGEN_TRANSCRIPT=1 ./build/tests/transcript_test
// and the golden diff is then the reviewable protocol change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "consistency/version_vector.h"
#include "consistency/write_invalidate.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;
using test::Pair;

const char* const kGoldenPath = OBIWAN_TEST_DIR "/testdata/transcript.golden";
const char* const kSnapshotGoldenPath =
    OBIWAN_TEST_DIR "/testdata/snapshot.golden";
const char* const kSpansGoldenPath = OBIWAN_TEST_DIR "/testdata/spans.golden";

std::string Hex(BytesView bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// One frame as a site saw it on its way out (a request) or back (a reply).
struct Frame {
  std::string site;  // the requesting site's address
  bool request = true;
  std::string peer;  // the serving site's address
  Bytes bytes;       // with the trace header's seq rebased
  Status status;     // a failed round trip records the status, not bytes
};

// TraceContext::NewId is process-global, so the trace header's seq depends
// on what ran before the scenario. Rebase it so the transcript does not.
Bytes RebaseTrace(BytesView frame, std::uint64_t base) {
  if (frame.empty() || (frame[0] & rmi::kTraceFlag) == 0) {
    return Bytes(frame.begin(), frame.end());
  }
  wire::Reader r(frame.subspan(1));
  const std::uint64_t site = r.Varint();
  const std::uint64_t seq = r.Varint();
  wire::Writer w(frame.size());
  w.U8(frame[0]);
  w.Varint(site);
  w.Varint(seq - base);
  w.Raw(frame.subspan(frame.size() - r.remaining()));
  return std::move(w).Take();
}

// Transport decorator (the shape of net/compressed.h) appending every
// outbound request and its reply to a log shared by all sites. Loopback
// delivery is synchronous, so the log is in causal order: a nested request
// lands between the request that caused it and that request's reply.
class RecordingTransport final : public net::Transport {
 public:
  using Transport::Request;

  RecordingTransport(std::unique_ptr<net::Transport> inner,
                     std::vector<Frame>* log, const std::uint64_t* trace_base)
      : inner_(std::move(inner)), log_(log), trace_base_(trace_base) {}

  Result<Bytes> Request(const net::Address& to, BytesView request,
                        const net::CallOptions& options) override {
    const net::Address self = inner_->LocalAddress();
    log_->push_back(Frame{self, true, to, RebaseTrace(request, *trace_base_), {}});
    Result<Bytes> reply = inner_->Request(to, request, options);
    Frame back{self, false, to, {}, reply.status()};
    if (reply.ok()) back.bytes = *reply;
    log_->push_back(std::move(back));
    return reply;
  }

  Status Serve(net::MessageHandler* handler) override {
    return inner_->Serve(handler);
  }
  void StopServing() override { inner_->StopServing(); }
  net::Address LocalAddress() const override { return inner_->LocalAddress(); }
  void SetDefaultDeadline(Nanos deadline) override {
    inner_->SetDefaultDeadline(deadline);
  }
  Nanos default_deadline() const override { return inner_->default_deadline(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::vector<Frame>* log_;
  const std::uint64_t* trace_base_;
};

std::string Line(const Frame& f) {
  std::string line = f.site + (f.request ? " > " : " < ") + f.peer + " ";
  if (!f.status.ok()) return line + "!" + f.status.ToString();
  return line + Hex(AsView(f.bytes));
}

// Pair tree with a shared grandchild (a diamond): r -> {a, b}, a -> {c, d},
// b -> {d, e}.
std::shared_ptr<Pair> MakeDiamond() {
  auto make = [](std::string name) {
    auto p = std::make_shared<Pair>();
    p->name = std::move(name);
    return p;
  };
  auto r = make("r");
  auto a = make("a");
  auto b = make("b");
  auto d = make("d");
  a->left = make("c");
  a->right = d;
  b->left = d;
  b->right = make("e");
  r->left = a;
  r->right = b;
  return r;
}

class Scenario {
 public:
  Scenario() {
    trace_base_ = TraceContext::NewId(kInvalidSite).seq;
    provider_ = MakeSite(1, "p");
    laptop_ = MakeSite(2, "l");
    pda_ = MakeSite(3, "d");
    provider_->HostRegistry();
    laptop_->UseRegistry("p");
    pda_->UseRegistry("p");
  }

  std::unique_ptr<core::Site> MakeSite(SiteId id, const std::string& addr) {
    auto transport = std::make_unique<RecordingTransport>(
        network_.CreateEndpoint(addr), &log_, &trace_base_);
    auto site = std::make_unique<core::Site>(id, std::move(transport), clock_);
    // One notification at a time, in holder order: a deterministic log.
    site->SetNotifyFanout(1);
    EXPECT_TRUE(site->Start().ok());
    return site;
  }

  void Run() {
    core::Site& p = *provider_;
    core::Site& l = *laptop_;
    core::Site& d = *pda_;
    auto list = test::MakeChain(6, 16, "n");
    auto clu = test::MakeChain(4, 8, "c");
    ASSERT_TRUE(p.Bind("list", list).ok());
    ASSERT_TRUE(p.Bind("tree", MakeDiamond()).ok());
    ASSERT_TRUE(p.Bind("clu", clu).ok());

    // Incremental get, then a walk that faults through per-object pins.
    auto list_remote = l.Lookup<Node>("list");
    ASSERT_TRUE(list_remote.ok());
    auto head = list_remote->Replicate(ReplicationMode::Incremental(2));
    ASSERT_TRUE(head.ok()) << head.status();
    for (core::Ref<Node>* cursor = &*head; !cursor->IsEmpty();
         cursor = &cursor->get()->next) {
      ASSERT_TRUE(cursor->Demand().ok());
    }

    // Cluster-by-depth get of the diamond, then a fault past its frontier.
    auto tree_remote = l.Lookup<Pair>("tree");
    ASSERT_TRUE(tree_remote.ok());
    auto tree = tree_remote->Replicate(ReplicationMode::ClusterDepth(1));
    ASSERT_TRUE(tree.ok()) << tree.status();
    tree_id_ = tree->id();
    ASSERT_TRUE(tree->get()->left.get()->left.Demand().ok());

    // Cluster get, a cluster put and a cluster refresh.
    auto clu_remote = l.Lookup<Node>("clu");
    ASSERT_TRUE(clu_remote.ok());
    auto cluster = clu_remote->Replicate(ReplicationMode::Cluster(2));
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster->get()->value = 40;
    ASSERT_TRUE(l.PutCluster(*cluster).ok());
    ASSERT_TRUE(l.Refresh(*cluster).ok());
    ASSERT_TRUE(cluster->get()->next.Demand().ok());

    // The PDA takes the transitive closure of the list from the provider,
    // and an incremental slice of the laptop's re-export of the diamond.
    // The laptop still holds d and e as proxies, so its reply forwards them
    // and the PDA faults e straight to the provider.
    auto closure_remote = d.Lookup<Node>("list");
    ASSERT_TRUE(closure_remote.ok());
    auto closure = closure_remote->Replicate(ReplicationMode::Closure());
    ASSERT_TRUE(closure.ok()) << closure.status();
    ASSERT_TRUE(l.Bind("tree@l", tree->local()).ok());
    auto reexport = d.Lookup<Pair>("tree@l");
    ASSERT_TRUE(reexport.ok());
    auto tree_on_pda = reexport->Replicate(ReplicationMode::Incremental(3));
    ASSERT_TRUE(tree_on_pda.ok()) << tree_on_pda.status();
    ASSERT_TRUE(tree_on_pda->get()->right.Demand().ok());
    ASSERT_TRUE(tree_on_pda->get()->right.get()->right.Demand().ok());

    // A put carrying a back-reference: the laptop hangs an object it masters
    // off a replica, so the provider binds it as a proxy back to the laptop.
    core::Ref<Node>& second = head->get()->next;
    auto fresh = std::make_shared<Node>();
    fresh->label = "fresh";
    second.get()->next = fresh;
    ASSERT_TRUE(l.Put(second).ok());

    // Write-invalidate: a put and a commit invalidate the PDA's copies; the
    // PDA refreshes one object.
    p.SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
    head->get()->value = 7;
    ASSERT_TRUE(l.Put(*head).ok());
    ASSERT_TRUE(d.Refresh(*closure).ok());
    head->get()->value = 8;
    ASSERT_TRUE(l.CommitReplicas({second.id()}, {head->id()}).ok());
    ASSERT_TRUE(p.MarkMasterUpdated(closure->get()->next.id()).ok());

    // Updates dissemination: a put and a local master edit are pushed.
    p.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());
    head->get()->label = "pushed";
    ASSERT_TRUE(l.Put(*head).ok());
    ASSERT_TRUE(p.MarkMasterUpdated(list_remote->id()).ok());

    // Version vectors put policy data into the put and the refresh reply.
    p.SetConsistencyPolicy(std::make_unique<consistency::VersionVectorPolicy>(1));
    l.SetConsistencyPolicy(std::make_unique<consistency::VersionVectorPolicy>(2));
    head->get()->value = 9;
    ASSERT_TRUE(l.Put(*head).ok());
    ASSERT_TRUE(l.Refresh(*head).ok());

    // Lease renew and release of the laptop's channel for n1.
    auto channel = l.ReplicaProvider(second.id());
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(l.RenewProxy(*channel).ok());
    ASSERT_TRUE(l.ReleaseProxy(*channel).ok());
  }

  const std::vector<Frame>& log() const { return log_; }
  core::Site& provider() { return *provider_; }
  core::Site& laptop() { return *laptop_; }
  core::Site& pda() { return *pda_; }
  // The diamond's root, as the laptop replicated it.
  ObjectId tree_id() const { return tree_id_; }

 private:
  VirtualClock clock_;
  net::LoopbackNetwork network_;
  std::vector<Frame> log_;
  std::uint64_t trace_base_ = 0;
  ObjectId tree_id_;
  std::unique_ptr<core::Site> provider_;
  std::unique_ptr<core::Site> laptop_;
  std::unique_ptr<core::Site> pda_;
};

std::vector<std::string> ReadGolden(const char* path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

void WriteGolden(const char* path, std::string_view header,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  out << header;
  for (const std::string& line : lines) out << line << "\n";
}

// Compares `lines` with the golden file at `path`, or rewrites the file when
// OBIWAN_REGEN_TRANSCRIPT is set.
void ExpectGolden(const char* path, std::string_view header,
                  const std::vector<std::string>& lines) {
  if (std::getenv("OBIWAN_REGEN_TRANSCRIPT") != nullptr) {
    WriteGolden(path, header, lines);
    GTEST_LOG_(INFO) << "wrote " << lines.size() << " lines to " << path;
    return;
  }
  const std::vector<std::string> golden = ReadGolden(path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
  const std::size_t n = std::min(lines.size(), golden.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lines[i], golden[i]) << "first differing line is #" << i;
  }
  EXPECT_EQ(lines.size(), golden.size());
}

TEST(Transcript, FramesMatchTheGoldenTranscript) {
  Scenario scenario;
  scenario.Run();
  if (HasFatalFailure()) return;

  std::vector<std::string> lines;
  for (const Frame& frame : scenario.log()) lines.push_back(Line(frame));
  ExpectGolden(
      kGoldenPath,
      "# Golden protocol transcript (tests/transcript_test.cc): one line per\n"
      "# frame, \"<site> > <peer> <hex>\" for a request and \"<site> < <peer>\n"
      "# <hex>\" for its reply. Regenerate with OBIWAN_REGEN_TRANSCRIPT=1.\n",
      lines);
}

// The laptop's snapshot after the scenario matches the golden bytes, and a
// fresh site with the laptop's id restores it, saves the same bytes again,
// and faults past the diamond's frontier through a restored proxy.
TEST(Transcript, SnapshotMatchesTheGoldenAndResumes) {
  Scenario scenario;
  scenario.Run();
  if (HasFatalFailure()) return;

  auto snapshot = scenario.laptop().SaveSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // 64 bytes per line keeps a format change's diff readable.
  const std::string hex = Hex(AsView(*snapshot));
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < hex.size(); i += 128) {
    lines.push_back(hex.substr(i, 128));
  }
  ExpectGolden(
      kSnapshotGoldenPath,
      "# Golden site snapshot (tests/transcript_test.cc): the laptop's\n"
      "# SaveSnapshot() after the transcript scenario, in hex, 64 bytes per\n"
      "# line. Regenerate with OBIWAN_REGEN_TRANSCRIPT=1.\n",
      lines);
  if (HasFatalFailure()) return;

  auto restored = scenario.MakeSite(2, "l2");
  ASSERT_TRUE(restored->LoadSnapshot(AsView(*snapshot)).ok());
  EXPECT_EQ(restored->master_count(), scenario.laptop().master_count());
  EXPECT_EQ(restored->replica_count(), scenario.laptop().replica_count());
  // Equal state saves to equal bytes, however the site's tables were built.
  auto resaved = restored->SaveSnapshot();
  ASSERT_TRUE(resaved.ok()) << resaved.status();
  EXPECT_EQ(Hex(AsView(*resaved)), hex);

  auto root = restored->FindLocal(scenario.tree_id());
  ASSERT_TRUE(root.ok()) << root.status();
  core::Ref<Pair> tree;
  tree.BindLocal(scenario.tree_id(), std::move(root).value());
  core::Ref<Pair>& d = tree.get()->left.get()->right;
  EXPECT_TRUE(d.IsProxy());
  ASSERT_TRUE(d.Demand().ok());
  EXPECT_EQ(d.get()->name, "d");
}

// Every site's flight-recorder ring after the scenario, as span names only
// (no ids, no times), matches tests/testdata/spans.golden: how spans are
// stored may change, what the flight dumps, /flight and the collectors read
// may not.
TEST(Transcript, FlightSpansMatchTheGolden) {
  Scenario scenario;
  scenario.Run();
  if (HasFatalFailure()) return;

  std::vector<std::string> lines;
  for (core::Site* site :
       {&scenario.provider(), &scenario.laptop(), &scenario.pda()}) {
    for (const Span& span : site->flight_recorder().SnapshotSpans()) {
      lines.push_back(std::to_string(span.site) + " " + span.category + " " +
                      span.name + " " + (span.failed ? "1" : "0"));
    }
  }
  ExpectGolden(
      kSpansGoldenPath,
      "# Golden span names (tests/transcript_test.cc): the provider's, the\n"
      "# laptop's and the PDA's flight-recorder rings after the transcript\n"
      "# scenario, one span per line as \"<site> <category> <name> <failed>\".\n"
      "# Regenerate with OBIWAN_REGEN_TRANSCRIPT=1.\n",
      lines);
}

// Every get reply and push record in the transcript survives a decode and
// re-encode through the struct codecs unchanged.
TEST(Transcript, RecordedRepliesAndPushesRoundTrip) {
  Scenario scenario;
  scenario.Run();
  if (HasFatalFailure()) return;

  const std::vector<Frame>& log = scenario.log();
  std::size_t replies = 0;
  std::size_t pushes = 0;
  // Requests nest (a provider notifies while it serves), so a reply closes
  // the innermost open request.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].request) {
      open.push_back(i);
      continue;
    }
    ASSERT_FALSE(open.empty()) << "reply #" << i << " without a request";
    const Frame& request = log[open.back()];
    open.pop_back();
    auto parsed = rmi::ParseRequest(AsView(request.bytes));
    ASSERT_TRUE(parsed.ok()) << "frame #" << i;
    if (parsed->kind == rmi::MessageKind::kGet) {
      ASSERT_TRUE(log[i].status.ok());
      wire::Reader r(AsView(log[i].bytes));
      const core::GetReply reply = wire::Decode<core::GetReply>(r);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(r.AtEnd());
      wire::Writer w;
      wire::Encode(w, reply);
      EXPECT_EQ(Hex(AsView(w.data())), Hex(AsView(log[i].bytes)))
          << "get reply #" << i;
      ++replies;
    } else if (parsed->kind == rmi::MessageKind::kPush) {
      wire::Reader r(parsed->body);
      const core::ObjectRecord record = wire::Decode<core::ObjectRecord>(r);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(r.AtEnd());
      wire::Writer w;
      wire::Encode(w, record);
      EXPECT_EQ(Hex(AsView(w.data())), Hex(parsed->body)) << "push #" << i;
      ++pushes;
    }
  }
  EXPECT_TRUE(open.empty());
  EXPECT_GE(replies, 10u);
  EXPECT_GE(pushes, 2u);
}

}  // namespace
}  // namespace obiwan
