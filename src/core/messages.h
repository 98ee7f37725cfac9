// Replication protocol messages (the bodies of kGet / kPut / kInvalidate /
// kCommit requests).
//
// The formats mirror what travels in the Java prototype: replica state
// (serialized fields), the reference topology (so the demander can swizzle),
// and proxy descriptors — the serialized form of a proxy-out, whose creation
// and transfer is exactly the per-object cost the paper measures in §4.2 and
// eliminates with clustering in §4.3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "core/mode.h"
#include "net/transport.h"
#include "wire/codec.h"

namespace obiwan::core {

// Serialized proxy-out: everything a demander needs to later fault on the
// target — which proxy-in to demand through, where it lives, and what it
// stands in for.
struct ProxyDescriptor {
  ProxyId pin;             // provider-side proxy-in handle
  net::Address provider;   // address of the site serving the proxy-in
  ObjectId target;         // master object the proxy stands in for
  std::string class_name;  // registered class of the target

  bool valid() const { return pin.valid(); }

  friend bool operator==(const ProxyDescriptor&, const ProxyDescriptor&) = default;
};

// One reference field of one serialized object.
struct RefEntry {
  enum class Tag : std::uint8_t {
    kNull = 0,    // empty reference
    kInline = 1,  // target travels in the same batch (or is already local)
    kProxy = 2,   // boundary: demander materializes a proxy-out
  };

  Tag tag = Tag::kNull;
  ObjectId target;        // kInline
  ProxyDescriptor proxy;  // kProxy

  static RefEntry Null() { return {}; }
  static RefEntry Inline(ObjectId id) {
    return {Tag::kInline, id, {}};
  }
  static RefEntry Proxy(ProxyDescriptor d) {
    return {Tag::kProxy, d.target, std::move(d)};
  }
};

// One replicated object on the wire.
struct ObjectRecord {
  ObjectId id;
  std::string class_name;
  std::uint64_t version = 0;
  Bytes policy_data;           // consistency-policy payload (opaque here)
  Bytes fields;                // encoded value fields
  std::vector<RefEntry> refs;  // aligned with ClassInfo::refs() order
  // Per-object put/refresh channel. Valid only in incremental mode — its
  // creation and transfer is the per-object proxy-pair cost of §4.2. In
  // cluster modes the batch-level descriptor below replaces it.
  ProxyDescriptor provider;
};

// Batch-level proxy pair for cluster-flavoured modes (§2.2's "single pair of
// proxy-in/proxy-out ... created and transferred").
struct ClusterInfo {
  ProxyDescriptor provider;
  std::vector<ObjectId> members;
};

struct GetRequest {
  ProxyId pin;           // proxy-in the demand goes through
  ObjectId root;         // object to start replication from
  ReplicationMode mode;
  bool refresh = false;  // update already-held replicas instead of expanding
};

// The longest encoded GetRequest: two ids (two varints each, at most 5 + 10
// bytes), the mode (a kind byte and two 32-bit varints) and the flag.
inline constexpr std::size_t kMaxGetRequestBytes = 2 * 15 + 11 + 1;

struct GetReply {
  std::vector<ObjectRecord> objects;  // objects[0] is the root
  std::optional<ClusterInfo> cluster;
};

// One object's state travelling back to its master.
struct PutItem {
  ObjectId id;
  std::uint64_t base_version = 0;  // version the replica last synchronised at
  // Transactional read-set validation: the provider checks base_version but
  // does not apply any state (fields/refs travel empty).
  bool read_only = false;
  Bytes policy_data;  // consistency-policy payload
  Bytes fields;
  // Topology from the replica; kProxy collapses to kInline (the provider
  // resolves ids locally).
  std::vector<RefEntry> refs;
};

struct PutRequest {
  ProxyId pin;                 // per-object or cluster proxy-in
  std::vector<PutItem> items;  // one item, or all cluster members
  bool transactional = false;  // kCommit: validate all versions before applying
};

struct PutReply {
  std::vector<std::uint64_t> new_versions;  // aligned with request items
};

struct InvalidateRequest {
  std::vector<ObjectId> ids;
  // Master versions aligned with `ids` (empty from peers that predate the
  // introspection layer). A holder records these so staleness is measurable
  // in versions, not just as a boolean.
  std::vector<std::uint64_t> versions;
};

// --- replicas on the wire, without the structs ---------------------------------
//
// The layout of ProxyDescriptor, RefEntry, ObjectRecord and GetReply lives
// here once. The site writes a get reply or a push record straight into one
// wire::Writer with the Write* functions below, and parses an incoming one
// in place with the Read* functions into views: names are string_views and
// fields and policy data are spans into the received buffer, so nothing is
// copied until it is stored. The struct codecs further down are thin
// wrappers over the same functions.

// A ProxyDescriptor whose strings point into a buffer.
struct DescriptorView {
  ProxyId pin;
  std::string_view provider;
  ObjectId target;
  std::string_view class_name;

  bool valid() const { return pin.valid(); }
  ProxyDescriptor Owned() const {
    return {pin, std::string(provider), target, std::string(class_name)};
  }
};

inline DescriptorView ViewOf(const ProxyDescriptor& d) {
  return {d.pin, d.provider, d.target, d.class_name};
}

// A RefEntry parsed in place.
struct RefView {
  RefEntry::Tag tag = RefEntry::Tag::kNull;
  ObjectId target;       // kInline and kProxy
  DescriptorView proxy;  // kProxy

  RefEntry Owned() const { return {tag, target, proxy.Owned()}; }
};

inline RefView ViewOf(const RefEntry& e) {
  return {e.tag, e.target, ViewOf(e.proxy)};
}

// An ObjectRecord parsed in place. Its refs are BatchView::refs
// [first_ref, first_ref + ref_count).
struct RecordView {
  ObjectId id;
  std::string_view class_name;
  std::uint64_t version = 0;
  BytesView policy_data;
  BytesView fields;
  std::size_t first_ref = 0;
  std::size_t ref_count = 0;
  DescriptorView provider;  // invalid unless the record carries a channel
};

// A get reply (or the single record of a push) parsed in place; valid while
// the buffer it was read from is.
struct BatchView {
  std::vector<RecordView> records;  // records[0] is the root of a get
  std::vector<RefView> refs;        // every record's refs, back to back
  bool has_cluster = false;
  DescriptorView cluster;  // the batch's shared channel, if has_cluster
  std::vector<ObjectId> cluster_members;

  std::span<const RefView> RefsOf(const RecordView& rec) const {
    return {refs.data() + rec.first_ref, rec.ref_count};
  }

  ObjectRecord Owned(const RecordView& v) const {
    ObjectRecord rec{v.id, std::string(v.class_name), v.version,
                     Bytes(v.policy_data.begin(), v.policy_data.end()),
                     Bytes(v.fields.begin(), v.fields.end()), {},
                     v.provider.Owned()};
    for (const RefView& ref : RefsOf(v)) rec.refs.push_back(ref.Owned());
    return rec;
  }
};

inline void WriteDescriptor(wire::Writer& w, const DescriptorView& d) {
  wire::Encode(w, d.pin);
  w.String(d.provider);
  wire::Encode(w, d.target);
  w.String(d.class_name);
}

inline DescriptorView ReadDescriptor(wire::Reader& r) {
  DescriptorView d;
  d.pin = wire::Decode<ProxyId>(r);
  d.provider = r.StringView();
  d.target = wire::Decode<ObjectId>(r);
  d.class_name = r.StringView();
  return d;
}

inline void WriteRef(wire::Writer& w, const RefView& v) {
  w.U8(static_cast<std::uint8_t>(v.tag));
  switch (v.tag) {
    case RefEntry::Tag::kNull:
      break;
    case RefEntry::Tag::kInline:
      wire::Encode(w, v.target);
      break;
    case RefEntry::Tag::kProxy:
      WriteDescriptor(w, v.proxy);
      break;
  }
}

inline RefView ReadRef(wire::Reader& r) {
  RefView v;
  const std::uint8_t tag = r.U8();
  if (tag > 2) {
    r.Fail("bad ref entry tag");
    return v;
  }
  v.tag = static_cast<RefEntry::Tag>(tag);
  if (v.tag == RefEntry::Tag::kInline) {
    v.target = wire::Decode<ObjectId>(r);
  } else if (v.tag == RefEntry::Tag::kProxy) {
    v.proxy = ReadDescriptor(r);
    v.target = v.proxy.target;
  }
  return v;
}

// A record is its head, then its value fields as a blob, then a varint
// count of refs and each ref (WriteRef), then its optional channel.
inline void WriteRecordHead(wire::Writer& w, ObjectId id,
                            std::string_view class_name, std::uint64_t version,
                            BytesView policy_data) {
  wire::Encode(w, id);
  w.String(class_name);
  w.Varint(version);
  w.Blob(policy_data);
}

inline void WriteRecordChannel(wire::Writer& w, const DescriptorView& provider) {
  w.Bool(provider.valid());
  if (provider.valid()) WriteDescriptor(w, provider);
}

// A get reply is a varint count of records, the records, then the optional
// cluster channel and its members.
inline void WriteClusterTail(wire::Writer& w, const DescriptorView* cluster,
                             std::span<const ObjectId> members) {
  w.Bool(cluster != nullptr);
  if (cluster == nullptr) return;
  WriteDescriptor(w, *cluster);
  w.Varint(members.size());
  for (const ObjectId& id : members) wire::Encode(w, id);
}

// Guard against hostile counts: never more entries than the remaining
// payload could encode at one byte each.
inline bool CountFits(wire::Reader& r, std::uint64_t n) {
  if (n <= r.remaining()) return true;
  r.Fail("container length exceeds remaining payload");
  return false;
}

// Append one record (and its refs) to `batch`. On malformed input the reader
// fails; check it before using the view.
inline void ReadRecord(wire::Reader& r, BatchView& batch) {
  RecordView rec;
  rec.id = wire::Decode<ObjectId>(r);
  rec.class_name = r.StringView();
  rec.version = r.Varint();
  rec.policy_data = r.BlobView();
  rec.fields = r.BlobView();
  const std::uint64_t refs = r.Varint();
  if (!CountFits(r, refs)) return;
  rec.first_ref = batch.refs.size();
  rec.ref_count = static_cast<std::size_t>(refs);
  for (std::uint64_t i = 0; i < refs && r.ok(); ++i) {
    batch.refs.push_back(ReadRef(r));
  }
  if (r.Bool()) rec.provider = ReadDescriptor(r);
  if (r.ok()) batch.records.push_back(rec);
}

inline void ReadGetReply(wire::Reader& r, BatchView& batch) {
  const std::uint64_t n = r.Varint();
  if (!CountFits(r, n)) return;
  batch.records.reserve(n);
  batch.refs.reserve(n);  // one reference field a record, until one has more
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) ReadRecord(r, batch);
  batch.has_cluster = r.Bool();
  if (!batch.has_cluster) return;
  batch.cluster = ReadDescriptor(r);
  const std::uint64_t members = r.Varint();
  if (!CountFits(r, members)) return;
  batch.cluster_members.reserve(members);
  for (std::uint64_t i = 0; i < members && r.ok(); ++i) {
    batch.cluster_members.push_back(wire::Decode<ObjectId>(r));
  }
}

}  // namespace obiwan::core

namespace obiwan::wire {

// The replica codecs are wrappers over core's Write*/Read* layout functions.
template <>
struct Codec<core::ProxyDescriptor> {
  static void Encode(Writer& w, const core::ProxyDescriptor& v) {
    core::WriteDescriptor(w, core::ViewOf(v));
  }
  static core::ProxyDescriptor Decode(Reader& r) {
    return core::ReadDescriptor(r).Owned();
  }
};

template <>
struct Codec<core::RefEntry> {
  static void Encode(Writer& w, const core::RefEntry& v) {
    core::WriteRef(w, core::ViewOf(v));
  }
  static core::RefEntry Decode(Reader& r) {
    return core::ReadRef(r).Owned();
  }
};

template <>
struct Codec<core::ObjectRecord> {
  static void Encode(Writer& w, const core::ObjectRecord& v) {
    core::WriteRecordHead(w, v.id, v.class_name, v.version,
                          AsView(v.policy_data));
    w.Blob(AsView(v.fields));
    wire::Encode(w, v.refs);
    core::WriteRecordChannel(w, core::ViewOf(v.provider));
  }
  static core::ObjectRecord Decode(Reader& r) {
    core::BatchView batch;
    core::ReadRecord(r, batch);
    if (!r.ok()) return {};
    return batch.Owned(batch.records.front());
  }
};

template <>
struct Codec<core::ReplicationMode> {
  static void Encode(Writer& w, const core::ReplicationMode& v) {
    w.U8(static_cast<std::uint8_t>(v.kind));
    w.Varint(v.count);
    w.Varint(v.depth);
  }
  static core::ReplicationMode Decode(Reader& r) {
    core::ReplicationMode v;
    std::uint8_t kind = r.U8();
    if (kind > 3) {
      r.Fail("bad replication mode");
      return v;
    }
    v.kind = static_cast<core::ReplicationMode::Kind>(kind);
    v.count = static_cast<std::uint32_t>(r.Varint());
    v.depth = static_cast<std::uint32_t>(r.Varint());
    return v;
  }
};

template <>
struct Codec<core::GetRequest> {
  static void Encode(Writer& w, const core::GetRequest& v) {
    wire::Encode(w, v.pin);
    wire::Encode(w, v.root);
    wire::Encode(w, v.mode);
    w.Bool(v.refresh);
  }
  static core::GetRequest Decode(Reader& r) {
    core::GetRequest v;
    v.pin = wire::Decode<ProxyId>(r);
    v.root = wire::Decode<ObjectId>(r);
    v.mode = wire::Decode<core::ReplicationMode>(r);
    v.refresh = r.Bool();
    return v;
  }
};

template <>
struct Codec<core::GetReply> {
  static void Encode(Writer& w, const core::GetReply& v) {
    wire::Encode(w, v.objects);
    const core::DescriptorView cluster =
        v.cluster ? core::ViewOf(v.cluster->provider) : core::DescriptorView{};
    core::WriteClusterTail(w, v.cluster ? &cluster : nullptr,
                           v.cluster ? std::span<const ObjectId>(v.cluster->members)
                                     : std::span<const ObjectId>());
  }
  static core::GetReply Decode(Reader& r) {
    core::BatchView batch;
    core::ReadGetReply(r, batch);
    core::GetReply v;
    if (!r.ok()) return v;
    v.objects.reserve(batch.records.size());
    for (const core::RecordView& rec : batch.records) {
      v.objects.push_back(batch.Owned(rec));
    }
    if (batch.has_cluster) {
      v.cluster = core::ClusterInfo{batch.cluster.Owned(), batch.cluster_members};
    }
    return v;
  }
};

template <>
struct Codec<core::PutItem> {
  static void Encode(Writer& w, const core::PutItem& v) {
    wire::Encode(w, v.id);
    w.Varint(v.base_version);
    w.Bool(v.read_only);
    w.Blob(AsView(v.policy_data));
    w.Blob(AsView(v.fields));
    wire::Encode(w, v.refs);
  }
  static core::PutItem Decode(Reader& r) {
    core::PutItem v;
    v.id = wire::Decode<ObjectId>(r);
    v.base_version = r.Varint();
    v.read_only = r.Bool();
    v.policy_data = r.Blob();
    v.fields = r.Blob();
    v.refs = wire::Decode<std::vector<core::RefEntry>>(r);
    return v;
  }
};

template <>
struct Codec<core::PutRequest> {
  static void Encode(Writer& w, const core::PutRequest& v) {
    wire::Encode(w, v.pin);
    wire::Encode(w, v.items);
    w.Bool(v.transactional);
  }
  static core::PutRequest Decode(Reader& r) {
    core::PutRequest v;
    v.pin = wire::Decode<ProxyId>(r);
    v.items = wire::Decode<std::vector<core::PutItem>>(r);
    v.transactional = r.Bool();
    return v;
  }
};

template <>
struct Codec<core::PutReply> {
  static void Encode(Writer& w, const core::PutReply& v) {
    wire::Encode(w, v.new_versions);
  }
  static core::PutReply Decode(Reader& r) {
    core::PutReply v;
    v.new_versions = wire::Decode<std::vector<std::uint64_t>>(r);
    return v;
  }
};

template <>
struct Codec<core::InvalidateRequest> {
  static void Encode(Writer& w, const core::InvalidateRequest& v) {
    wire::Encode(w, v.ids);
    wire::Encode(w, v.versions);
  }
  static core::InvalidateRequest Decode(Reader& r) {
    core::InvalidateRequest v;
    v.ids = wire::Decode<std::vector<ObjectId>>(r);
    // The version vector was appended later; accept the old short form.
    if (!r.AtEnd()) v.versions = wire::Decode<std::vector<std::uint64_t>>(r);
    return v;
  }
};

}  // namespace obiwan::wire
