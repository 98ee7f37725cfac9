// Truncation matrix: take a *valid* encoding of every message kind the site
// serves and replay every strict prefix of it. The invariant: each prefix is
// rejected cleanly (or, for a prefix that happens to decode — possible since
// trailing bytes are not always load-bearing — handled without corruption),
// and the site remains fully functional afterwards.
//
// The demander half: every strict prefix, and a few structurally corrupted
// copies, of a recorded get reply is refused before the demander's table is
// touched.
#include <gtest/gtest.h>

#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

TEST(TruncationMatrix, EveryPrefixOfEveryMessageKind) {
  net::LoopbackNetwork network;
  core::Site site(1, network.CreateEndpoint("victim"));
  core::Site peer(2, network.CreateEndpoint("peer"));
  ASSERT_TRUE(site.Start().ok());
  ASSERT_TRUE(peer.Start().ok());
  site.HostRegistry();
  peer.UseRegistry("victim");

  auto head = test::MakeChain(3, 16, "n");
  ASSERT_TRUE(site.Bind("list", head).ok());
  auto remote = peer.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  const auto& info = remote->info();

  // State-mutating kinds (put/commit/push) target a dedicated object, so the
  // *valid* sanity sends cannot rewire the list's topology.
  auto solo = std::make_shared<Node>();
  solo->label = "solo";
  ASSERT_TRUE(site.Bind("solo", solo).ok());
  auto solo_remote = peer.Lookup<Node>("solo");
  ASSERT_TRUE(solo_remote.ok());
  const auto& solo_info = solo_remote->info();

  // Build one valid request per kind (bodies mirror the client code paths).
  std::vector<std::pair<const char*, Bytes>> requests;

  {  // kCall
    wire::Writer args;
    wire::Encode(args, std::tuple<>());
    requests.emplace_back(
        "call", rmi::EncodeCall({info.id, "Touch", std::move(args).Take()}));
  }
  {  // kGet
    wire::Writer body;
    wire::Encode(body, core::GetRequest{info.pin, info.id,
                                        ReplicationMode::Incremental(2), false});
    requests.emplace_back("get",
                          rmi::WrapRequest(rmi::MessageKind::kGet, body));
  }
  {  // kPut (valid shape: one item for the bound master)
    core::PutItem item;
    item.id = solo_info.id;
    item.base_version = 1;
    wire::Writer fields;
    core::ClassInfoFor<Node>().EncodeFields(*solo, fields);
    item.fields = std::move(fields).Take();
    item.refs = {core::RefEntry::Null()};
    wire::Writer body;
    wire::Encode(body, core::PutRequest{solo_info.pin, {item}, false});
    requests.emplace_back("put",
                          rmi::WrapRequest(rmi::MessageKind::kPut, body));
  }
  {  // kCommit — same body, transactional
    core::PutItem item;
    item.id = solo_info.id;
    item.base_version = 2;  // after the put sanity send above
    item.read_only = true;
    wire::Writer body;
    wire::Encode(body, core::PutRequest{solo_info.pin, {item}, true});
    requests.emplace_back("commit",
                          rmi::WrapRequest(rmi::MessageKind::kCommit, body));
  }
  {  // kInvalidate
    wire::Writer body;
    wire::Encode(body, core::InvalidateRequest{{info.id}, {}});
    requests.emplace_back("invalidate",
                          rmi::WrapRequest(rmi::MessageKind::kInvalidate, body));
  }
  {  // kRelease / kRenew
    wire::Writer body;
    wire::Encode(body, info.pin);
    requests.emplace_back("release",
                          rmi::WrapRequest(rmi::MessageKind::kRelease, body));
    wire::Writer body2;
    wire::Encode(body2, info.pin);
    requests.emplace_back("renew",
                          rmi::WrapRequest(rmi::MessageKind::kRenew, body2));
  }
  {  // kPush
    core::ObjectRecord rec;
    rec.id = solo_info.id;
    rec.class_name = "Node";
    rec.version = 2;
    wire::Writer fields;
    core::ClassInfoFor<Node>().EncodeFields(*solo, fields);
    rec.fields = std::move(fields).Take();
    rec.refs = {core::RefEntry::Null()};
    wire::Writer body;
    wire::Encode(body, rec);
    requests.emplace_back("push",
                          rmi::WrapRequest(rmi::MessageKind::kPush, body));
  }
  {  // kCallBatch
    wire::Writer args;
    wire::Encode(args, std::tuple<>());
    requests.emplace_back(
        "batch", rmi::EncodeCallBatch({{info.id, "Touch", std::move(args).Take()},
                                       {info.id, "Value", {}}}));
  }
  {  // naming plane
    wire::Writer body;
    body.String("list");
    requests.emplace_back("lookup",
                          rmi::WrapRequest(rmi::MessageKind::kLookup, body));
    wire::Writer body2;
    body2.String("other");
    body2.Bool(false);
    wire::Encode(body2, info);
    requests.emplace_back("bind",
                          rmi::WrapRequest(rmi::MessageKind::kBind, body2));
  }

  int prefixes_tested = 0;
  for (const auto& [name, full] : requests) {
    // Sanity: the full request is served without a transport-level error for
    // most kinds. (Skip the complete release — it would legitimately revoke
    // the bind pin the rest of the test relies on.)
    if (std::string_view(name) != "release") {
      (void)peer.transport().Request("victim", AsView(full));
    }

    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      auto reply =
          peer.transport().Request("victim", BytesView(full.data(), cut));
      // Empty prefix and unknown-kind prefixes are kDataLoss; a body prefix
      // must never crash and must report an error unless the prefix happens
      // to be a complete valid message (possible for list-style bodies).
      if (reply.ok()) {
        // Acceptable only when the prefix is itself decodable; spot-check
        // the site still responds afterwards either way.
      }
      ++prefixes_tested;
    }
  }
  EXPECT_GT(prefixes_tested, 120);

  // The gauntlet left the site fully functional.
  auto ref = remote->Replicate(ReplicationMode::Closure());
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ((*ref)->next->next->Label(), "n2");
  EXPECT_TRUE(peer.Ping("victim").ok());
  auto again = peer.Lookup<Node>("list");
  EXPECT_TRUE(again.ok());
}

// Provider stand-in for the demander test: every request gets `reply`.
class CannedTransport final : public net::Transport {
 public:
  using Transport::Request;

  Result<Bytes> Request(const net::Address&, BytesView,
                        const net::CallOptions&) override {
    return reply;
  }
  Status Serve(net::MessageHandler*) override { return Status::Ok(); }
  void StopServing() override {}
  net::Address LocalAddress() const override { return "demander"; }

  Bytes reply;
};

TEST(TruncationMatrix, DemanderRefusesEveryPrefixOfAGetReply) {
  // Record a real Incremental(4) reply: four chained nodes, the last one's
  // next a boundary proxy, each record with its per-object channel.
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("provider"));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  auto head = test::MakeChain(6, 16, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto registry = network.CreateEndpoint("recorder");
  rmi::RegistryClient names(*registry, "provider");
  auto bound = names.Lookup("list");
  ASSERT_TRUE(bound.ok()) << bound.status();
  wire::Writer get;
  wire::Encode(get, core::GetRequest{bound->pin, bound->id,
                                     ReplicationMode::Incremental(4), false});
  auto recorded = registry->Request(
      "provider", AsView(rmi::WrapRequest(rmi::MessageKind::kGet, get, {}, -1,
                                          "demander")));
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  const Bytes reply = *recorded;

  // Byte offsets of the structure the corrupted copies aim at.
  std::size_t last_class = 0;
  std::size_t last_fields = 0;
  std::size_t last_refs = 0;
  {
    wire::Reader r(AsView(reply));
    auto at = [&] { return reply.size() - r.remaining(); };
    ASSERT_EQ(r.Varint(), 4u);
    for (int i = 0; i < 4; ++i) {
      (void)wire::Decode<ObjectId>(r);
      last_class = at();
      (void)r.String();
      (void)r.Varint();
      (void)r.Blob();
      last_fields = at();
      (void)r.Blob();
      last_refs = at();
      (void)wire::Decode<std::vector<core::RefEntry>>(r);
      if (r.Bool()) (void)wire::Decode<core::ProxyDescriptor>(r);
    }
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(at() + 1, reply.size());  // the cluster flag is the last byte
  }
  auto flipped = [&](std::size_t offset, std::uint8_t value) {
    Bytes copy = reply;
    copy[offset] = value;
    return copy;
  };
  std::vector<Bytes> corrupt = {
      flipped(0, 0x7f),                     // more records than bytes
      flipped(last_class + 1, 'X'),         // unknown class in the last record
      flipped(last_fields, 0x01),           // last record's fields cut short
      flipped(last_fields + 1, 0x7f),       // its label overruns its fields
      flipped(last_refs, 0x02),             // two refs on a one-ref class
      flipped(last_refs + 1, 0x07),         // unknown ref tag
      flipped(reply.size() - 1, 0x01),      // cluster info that is not there
  };
  for (std::size_t cut = 0; cut < reply.size(); ++cut) {
    corrupt.emplace_back(reply.begin(),
                         reply.begin() + static_cast<std::ptrdiff_t>(cut));
  }

  auto canned = std::make_unique<CannedTransport>();
  CannedTransport& stub = *canned;
  core::Site demander(2, std::move(canned));
  const core::ProxyDescriptor via{bound->pin, "provider", bound->id, "Node"};
  for (std::size_t i = 0; i < corrupt.size(); ++i) {
    stub.reply = corrupt[i];
    auto fault = demander.DemandThrough(via, bound->id,
                                        ReplicationMode::Incremental(4),
                                        /*refresh=*/false);
    EXPECT_FALSE(fault.ok()) << "corrupted reply #" << i << " was accepted";
    EXPECT_EQ(demander.replica_count(), 0u) << "corrupted reply #" << i;
  }
  EXPECT_TRUE(demander.CheckTableConsistency());

  // The intact reply still materializes afterwards.
  stub.reply = reply;
  auto fault = demander.DemandThrough(via, bound->id,
                                      ReplicationMode::Incremental(4),
                                      /*refresh=*/false);
  ASSERT_TRUE(fault.ok()) << fault.status();
  EXPECT_EQ(demander.replica_count(), 4u);
  EXPECT_TRUE(demander.CheckTableConsistency());
  EXPECT_EQ(static_cast<Node&>(**fault).label, "n0");
}

}  // namespace
}  // namespace obiwan
