// Site snapshots: persist and restore a site's complete object state.
//
// The mobility scenario this serves: a PDA replicates a graph, edits it
// offline, powers down, and later resumes — its replicas, their provider
// channels, and its own masters must all survive. The snapshot also covers
// the provider role (proxy-ins, cluster membership), so a site that restarts
// at the same address keeps honouring descriptors that other sites hold.
#include "core/site.h"

#include <algorithm>

namespace obiwan::core {
namespace {

// "OBI2": version 2 added the per-pin user list (holder lifecycle).
constexpr std::uint32_t kSnapshotMagic = 0x4F424932;

// A hash map's entries in key order, so equal state saves to equal bytes.
template <typename Map>
std::vector<const typename Map::value_type*> InKeyOrder(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

}  // namespace

void Site::EnsureGraphIds() {
  // Naming a target makes it a master whose own refs must be visited too,
  // so sweep to a fixed point. A sweep reads each object's fields under its
  // shard's guard and only collects the local targets that have no id yet;
  // they are named after the sweep, because EnsureId takes a shard guard of
  // its own. Naming follows sweep order, so under the world (SaveSnapshot)
  // the ids are the ones a single locked pass would mint. A target another
  // site holds never gets an id here, so a sweep that names nothing ends
  // the loop.
  std::vector<std::shared_ptr<Shareable>> unnamed;
  auto collect = [&](const std::shared_ptr<Shareable>& obj) {
    for (const RefFieldInfo& rf : obj->obiwan_class().refs()) {
      RefBase& rb = rf.get(*obj);
      if (rb.IsLocal() && !table_.PtrId(rb.local_raw()).valid()) {
        unnamed.push_back(rb.local());
      }
    }
  };
  for (;;) {
    table_.ForEachMaster(
        [&](ObjectId, const MasterEntry& e) { collect(e.obj); });
    table_.ForEachReplica(
        [&](ObjectId, const ReplicaEntry& e) { collect(e.obj); });
    bool named = false;
    for (const auto& obj : unnamed) named |= EnsureId(obj).valid();
    unnamed.clear();
    if (!named) return;
  }
}

Result<Bytes> Site::SaveSnapshot() {
  // The world guard freezes every shard: the snapshot is a consistent global
  // cut, and every helper below (EnsureId, lookups, sweeps) no-ops its own
  // guards under it.
  ObjectTable::WorldGuard world(table_);
  wire::Writer w;
  w.U32(kSnapshotMagic);
  w.Varint(id_);
  w.Varint(next_object_.load(std::memory_order_relaxed));
  {
    std::lock_guard pins(pins_mutex_);
    w.Varint(next_pin_);
  }

  // Serialize one object's refs as wire RefEntries: every local target is
  // inline (it is in the snapshot too), every proxy-out its descriptor.
  // Assigns ids to local targets as needed; fails on a target another site
  // holds.
  auto encode_refs = [&](Shareable& obj) -> Status {
    const ClassInfo& ci = obj.obiwan_class();
    std::vector<RefEntry> refs;
    refs.reserve(ci.refs().size());
    for (const RefFieldInfo& rf : ci.refs()) {
      RefBase& rb = rf.get(obj);
      if (rb.IsLocal()) {
        const ObjectId tid = EnsureId(rb.local());
        if (!tid.valid()) {
          return FailedPreconditionError(
              "snapshot links to an object of another site");
        }
        refs.push_back(RefEntry::Inline(tid));
      } else {
        refs.push_back(rb.IsProxy() ? RefEntry::Proxy(rb.proxy()->descriptor())
                                    : RefEntry::Null());
      }
    }
    wire::Encode(w, refs);
    return Status::Ok();
  };

  // Pre-pass: assign ids to every locally referenced object so the master
  // table is complete before anything is written.
  EnsureGraphIds();

  // Collect ids first, then serialize via lookups: encode_refs may call
  // EnsureId, which must not run while a shard's slot vector is mid-sweep.
  std::vector<ObjectId> master_ids;
  master_ids.reserve(table_.master_count());
  table_.ForEachMaster(
      [&](ObjectId oid, const MasterEntry&) { master_ids.push_back(oid); });

  w.Varint(master_ids.size());
  for (ObjectId oid : master_ids) {
    const MasterEntry& entry = *table_.Master(oid);
    wire::Encode(w, oid);
    w.String(entry.obj->obiwan_class().name());
    w.Varint(entry.version);
    w.Blob(AsView(entry.policy_state));
    wire::Encode(w, entry.holders);
    w.Svarint(entry.last_update);
    w.Varint(entry.gets_served);
    w.Varint(entry.puts_accepted);
    wire::Writer fields;
    entry.obj->obiwan_class().EncodeFields(*entry.obj, fields);
    w.Blob(AsView(fields.data()));
    OBIWAN_RETURN_IF_ERROR(encode_refs(*entry.obj));
  }

  std::vector<ObjectId> replica_ids;
  replica_ids.reserve(table_.replica_count());
  table_.ForEachReplica(
      [&](ObjectId oid, const ReplicaEntry&) { replica_ids.push_back(oid); });

  w.Varint(replica_ids.size());
  for (ObjectId oid : replica_ids) {
    const ReplicaEntry& entry = *table_.Replica(oid);
    wire::Encode(w, oid);
    w.String(entry.obj->obiwan_class().name());
    w.Varint(entry.version);
    w.Blob(AsView(entry.policy_state));
    w.Bool(entry.provider.valid());
    if (entry.provider.valid()) wire::Encode(w, entry.provider);
    w.Bool(entry.in_cluster);
    w.Bool(entry.stale);
    wire::Encode(w, entry.holders);
    w.Varint(entry.known_master_version);
    w.Svarint(entry.last_sync);
    w.Varint(entry.sync_count);
    w.Varint(entry.put_count);
    wire::Writer fields;
    entry.obj->obiwan_class().EncodeFields(*entry.obj, fields);
    w.Blob(AsView(fields.data()));
    OBIWAN_RETURN_IF_ERROR(encode_refs(*entry.obj));
  }

  {
    std::lock_guard pins(pins_mutex_);
    w.Varint(proxy_ins_.size());
    for (const auto* pinned : InKeyOrder(proxy_ins_)) {
      const auto& [pin, entry] = *pinned;
      wire::Encode(w, pin);
      wire::Encode(w, entry.target);
      wire::Encode(w, entry.members);
      w.Bool(entry.cluster);
      w.Bool(entry.anchored);
      wire::Encode(w, entry.users);
    }

    w.Varint(cluster_members_.size());
    for (const auto* cluster : InKeyOrder(cluster_members_)) {
      const auto& [pin, members] = *cluster;
      wire::Encode(w, pin);
      wire::Encode(w, members);
    }
  }

  return std::move(w).Take();
}

Status Site::LoadSnapshot(BytesView snapshot) {
  ObjectTable::WorldGuard world(table_);
  {
    std::lock_guard pins(pins_mutex_);
    if (table_.master_count() != 0 || table_.replica_count() != 0 ||
        !proxy_ins_.empty()) {
      return FailedPreconditionError("LoadSnapshot requires an empty site");
    }
  }
  Status status = LoadSnapshotLocked(snapshot);
  if (!status.ok()) {
    // Never leave a half-restored site behind a failed load.
    table_.Clear();
    {
      std::lock_guard pins(pins_mutex_);
      proxy_ins_.clear();
      pin_by_target_.clear();
      cluster_members_.clear();
      next_pin_ = 1;
    }
    {
      std::lock_guard lock(mutex_);
      holder_health_.clear();
      notify_retries_.clear();
    }
    next_object_.store(1, std::memory_order_relaxed);
  } else {
    // Every restored holder starts healthy; failures re-accumulate live.
    std::lock_guard lock(mutex_);
    table_.ForEachMaster([&](ObjectId, const MasterEntry& entry) {
      for (const net::Address& addr : entry.holders) holder_health_[addr];
    });
    table_.ForEachReplica([&](ObjectId, const ReplicaEntry& entry) {
      for (const net::Address& addr : entry.holders) holder_health_[addr];
    });
  }
  return status;
}

Status Site::LoadSnapshotLocked(BytesView snapshot) {
  wire::Reader r(snapshot);
  if (r.U32() != kSnapshotMagic) {
    return DataLossError("not an OBIWAN site snapshot");
  }
  auto snapshot_site = static_cast<SiteId>(r.Varint());
  if (r.ok() && snapshot_site != id_) {
    return FailedPreconditionError(
        "snapshot belongs to site " + std::to_string(snapshot_site) +
        ", this site is " + std::to_string(id_));
  }
  next_object_.store(r.Varint(), std::memory_order_relaxed);
  {
    std::lock_guard pins(pins_mutex_);
    next_pin_ = r.Varint();
  }

  struct PendingRef {
    RefBase* ref;
    RefEntry entry;
  };
  std::vector<PendingRef> pending;

  auto decode_object = [&](const std::string& class_name)
      -> Result<std::shared_ptr<Shareable>> {
    OBIWAN_ASSIGN_OR_RETURN(const ClassInfo* ci,
                            ClassRegistry::Instance().Find(class_name));
    std::shared_ptr<Shareable> obj = ci->NewInstance();
    Bytes fields = r.Blob();
    wire::Reader fr(AsView(fields));
    OBIWAN_RETURN_IF_ERROR(ci->DecodeFields(*obj, fr));
    auto refs = wire::Decode<std::vector<RefEntry>>(r);
    OBIWAN_RETURN_IF_ERROR(r.status());
    if (refs.size() != ci->refs().size()) {
      return DataLossError("snapshot ref count mismatch for " + class_name);
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      pending.push_back(PendingRef{&ci->refs()[i].get(*obj), std::move(refs[i])});
    }
    // EmplaceMaster/EmplaceReplica claim the object's identity (and
    // register the holder index) themselves.
    return obj;
  };

  // Duplicate ids would make the table emplace drop the second object while
  // `pending` still points into it — corrupt input must be rejected here.
  auto fresh_id = [&](ObjectId oid) {
    return oid.valid() && table_.Master(oid) == nullptr &&
           table_.Replica(oid) == nullptr;
  };

  std::uint64_t master_count = r.Varint();
  for (std::uint64_t i = 0; i < master_count && r.ok(); ++i) {
    auto oid = wire::Decode<ObjectId>(r);
    std::string class_name = r.String();
    if (r.ok() && !fresh_id(oid)) {
      return DataLossError("snapshot contains duplicate or invalid id " +
                           ToString(oid));
    }
    MasterEntry entry;
    entry.version = r.Varint();
    entry.policy_state = r.Blob();
    entry.holders = wire::Decode<std::vector<net::Address>>(r);
    entry.last_update = r.Svarint();
    entry.gets_served = r.Varint();
    entry.puts_accepted = r.Varint();
    OBIWAN_ASSIGN_OR_RETURN(entry.obj, decode_object(class_name));
    table_.EmplaceMaster(oid, std::move(entry));
  }

  std::uint64_t replica_count = r.Varint();
  for (std::uint64_t i = 0; i < replica_count && r.ok(); ++i) {
    auto oid = wire::Decode<ObjectId>(r);
    std::string class_name = r.String();
    if (r.ok() && !fresh_id(oid)) {
      return DataLossError("snapshot contains duplicate or invalid id " +
                           ToString(oid));
    }
    ReplicaEntry entry;
    entry.version = r.Varint();
    entry.policy_state = r.Blob();
    if (r.Bool()) entry.provider = wire::Decode<ProxyDescriptor>(r);
    entry.in_cluster = r.Bool();
    entry.stale = r.Bool();
    entry.holders = wire::Decode<std::vector<net::Address>>(r);
    entry.known_master_version = r.Varint();
    entry.last_sync = r.Svarint();
    entry.sync_count = r.Varint();
    entry.put_count = r.Varint();
    OBIWAN_ASSIGN_OR_RETURN(entry.obj, decode_object(class_name));
    table_.EmplaceReplica(oid, std::move(entry));
  }

  {
    std::lock_guard pins(pins_mutex_);
    std::uint64_t pin_count = r.Varint();
    for (std::uint64_t i = 0; i < pin_count && r.ok(); ++i) {
      auto pin = wire::Decode<ProxyId>(r);
      ProxyInEntry entry;
      entry.target = wire::Decode<ObjectId>(r);
      entry.members = wire::Decode<std::vector<ObjectId>>(r);
      entry.cluster = r.Bool();
      entry.anchored = r.Bool();
      entry.users = wire::Decode<std::vector<net::Address>>(r);
      TouchPin(entry);  // restart the lease clock after restore
      auto& pinned = *proxy_ins_.emplace(pin, std::move(entry)).first;
      if (!pinned.second.cluster) {
        pin_by_target_.emplace(pinned.second.target, &pinned);
      }
    }

    std::uint64_t cluster_count = r.Varint();
    for (std::uint64_t i = 0; i < cluster_count && r.ok(); ++i) {
      auto pin = wire::Decode<ProxyId>(r);
      cluster_members_[pin] = wire::Decode<std::vector<ObjectId>>(r);
    }
  }

  OBIWAN_RETURN_IF_ERROR(r.status());
  if (!r.AtEnd()) return DataLossError("trailing bytes after snapshot");

  // Second pass: swizzle.
  for (const PendingRef& p : pending) {
    if (!BindRef(*p.ref, ViewOf(p.entry), table_.Find(p.entry.target),
                 ReplicationMode::Incremental())) {
      return DataLossError("snapshot refers to missing object " +
                           ToString(p.entry.target));
    }
  }
  return Status::Ok();
}

}  // namespace obiwan::core
