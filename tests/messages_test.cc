// Replication-protocol message codecs: full-fidelity roundtrips and rejection
// of malformed encodings.
#include <gtest/gtest.h>

#include "core/messages.h"
#include "rmi/call.h"
#include "rmi/protocol.h"

namespace obiwan::core {
namespace {

template <typename T>
T RoundTrip(const T& v) {
  wire::Writer w;
  wire::Encode(w, v);
  wire::Reader r(AsView(w.data()));
  T out = wire::Decode<T>(r);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.AtEnd());
  return out;
}

ProxyDescriptor SampleDescriptor() {
  return ProxyDescriptor{{2, 9}, "site-s2", {2, 41}, "Node"};
}

TEST(MessageCodec, ProxyDescriptor) {
  ProxyDescriptor d = SampleDescriptor();
  ProxyDescriptor out = RoundTrip(d);
  EXPECT_EQ(out, d);
  EXPECT_TRUE(out.valid());
  EXPECT_FALSE(ProxyDescriptor{}.valid());
}

TEST(MessageCodec, RefEntryVariants) {
  RefEntry null = RoundTrip(RefEntry::Null());
  EXPECT_EQ(null.tag, RefEntry::Tag::kNull);

  RefEntry inline_entry = RoundTrip(RefEntry::Inline({2, 5}));
  EXPECT_EQ(inline_entry.tag, RefEntry::Tag::kInline);
  EXPECT_EQ(inline_entry.target, (ObjectId{2, 5}));

  RefEntry proxy = RoundTrip(RefEntry::Proxy(SampleDescriptor()));
  EXPECT_EQ(proxy.tag, RefEntry::Tag::kProxy);
  EXPECT_EQ(proxy.proxy, SampleDescriptor());
  // Decoding derives `target` from the descriptor.
  EXPECT_EQ(proxy.target, SampleDescriptor().target);
}

TEST(MessageCodec, RefEntryBadTagRejected) {
  wire::Writer w;
  w.U8(9);
  wire::Reader r(AsView(w.data()));
  (void)wire::Decode<RefEntry>(r);
  EXPECT_FALSE(r.ok());
}

TEST(MessageCodec, ObjectRecordFull) {
  ObjectRecord rec;
  rec.id = {2, 41};
  rec.class_name = "Agenda";
  rec.version = 17;
  rec.policy_data = {9, 9};
  rec.fields = {1, 2, 3, 4};
  rec.refs = {RefEntry::Null(), RefEntry::Inline({2, 42}),
              RefEntry::Proxy(SampleDescriptor())};
  rec.provider = SampleDescriptor();

  ObjectRecord out = RoundTrip(rec);
  EXPECT_EQ(out.id, rec.id);
  EXPECT_EQ(out.class_name, "Agenda");
  EXPECT_EQ(out.version, 17u);
  EXPECT_EQ(out.policy_data, rec.policy_data);
  EXPECT_EQ(out.fields, rec.fields);
  ASSERT_EQ(out.refs.size(), 3u);
  EXPECT_EQ(out.refs[2].proxy, SampleDescriptor());
  EXPECT_EQ(out.provider, rec.provider);
}

TEST(MessageCodec, ObjectRecordWithoutProvider) {
  ObjectRecord rec;
  rec.id = {2, 41};
  rec.class_name = "Agenda";
  ObjectRecord out = RoundTrip(rec);
  EXPECT_FALSE(out.provider.valid());
}

TEST(MessageCodec, GetRequestAllModes) {
  for (ReplicationMode mode :
       {ReplicationMode::Incremental(7), ReplicationMode::Cluster(100),
        ReplicationMode::ClusterDepth(3), ReplicationMode::Closure()}) {
    GetRequest req{{2, 9}, {2, 41}, mode, true};
    GetRequest out = RoundTrip(req);
    EXPECT_EQ(out.pin, req.pin);
    EXPECT_EQ(out.root, req.root);
    EXPECT_EQ(out.mode, mode);
    EXPECT_TRUE(out.refresh);
  }
}

TEST(MessageCodec, BadModeRejected) {
  wire::Writer w;
  w.U8(250);
  w.Varint(1);
  w.Varint(0);
  wire::Reader r(AsView(w.data()));
  (void)wire::Decode<ReplicationMode>(r);
  EXPECT_FALSE(r.ok());
}

TEST(MessageCodec, GetReplyWithCluster) {
  GetReply reply;
  ObjectRecord rec;
  rec.id = {2, 1};
  rec.class_name = "Node";
  reply.objects.push_back(rec);
  reply.cluster = ClusterInfo{SampleDescriptor(), {{2, 1}, {2, 2}}};

  GetReply out = RoundTrip(reply);
  ASSERT_EQ(out.objects.size(), 1u);
  ASSERT_TRUE(out.cluster.has_value());
  EXPECT_EQ(out.cluster->provider, SampleDescriptor());
  EXPECT_EQ(out.cluster->members.size(), 2u);

  reply.cluster.reset();
  EXPECT_FALSE(RoundTrip(reply).cluster.has_value());
}

TEST(MessageCodec, PutRequestRoundTrip) {
  PutRequest req;
  req.pin = {2, 9};
  req.transactional = true;
  PutItem item;
  item.id = {2, 41};
  item.base_version = 3;
  item.read_only = true;
  item.policy_data = {7};
  item.fields = {1, 2};
  item.refs = {RefEntry::Inline({2, 42})};
  req.items.push_back(item);

  PutRequest out = RoundTrip(req);
  EXPECT_TRUE(out.transactional);
  ASSERT_EQ(out.items.size(), 1u);
  EXPECT_TRUE(out.items[0].read_only);
  EXPECT_EQ(out.items[0].base_version, 3u);
  EXPECT_EQ(out.items[0].refs[0].target, (ObjectId{2, 42}));
}

TEST(MessageCodec, PutReplyAndInvalidate) {
  PutReply reply{{4, 5, 6}};
  EXPECT_EQ(RoundTrip(reply).new_versions, (std::vector<std::uint64_t>{4, 5, 6}));
  InvalidateRequest inv{{{1, 2}, {3, 4}}, {}};
  EXPECT_EQ(RoundTrip(inv).ids.size(), 2u);
}

TEST(MessageCodec, CallRequestEnvelope) {
  rmi::CallRequest call{{2, 41}, "Describe", {1, 2, 3}};
  Bytes encoded = rmi::EncodeCall(call);

  auto parsed = rmi::ParseRequest(AsView(encoded));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, rmi::MessageKind::kCall);

  wire::Reader body(parsed->body);
  auto decoded = rmi::DecodeCall(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->target, call.target);
  EXPECT_EQ(decoded->method, "Describe");
  EXPECT_EQ(decoded->args, call.args);
}

TEST(MessageCodec, EnvelopeRejectsBadKinds) {
  EXPECT_FALSE(rmi::ParseRequest({}).ok());
  Bytes zero{0};
  EXPECT_FALSE(rmi::ParseRequest(AsView(zero)).ok());
  Bytes high{200};
  EXPECT_FALSE(rmi::ParseRequest(AsView(high)).ok());
  Bytes valid{static_cast<std::uint8_t>(rmi::MessageKind::kPing)};
  auto parsed = rmi::ParseRequest(AsView(valid));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->body.empty());
}

}  // namespace
}  // namespace obiwan::core
