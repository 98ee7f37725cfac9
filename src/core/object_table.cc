#include "core/object_table.h"

#include <bit>
#include <cassert>

namespace obiwan::core {

// --- identity slot -----------------------------------------------------------
//
// A sequence lock: a writer moves seq_ from even to odd by compare-and-swap,
// writes owner and id, and publishes the next even value; a reader retries
// until it reads the same even value before and after the fields. The fields
// are stored with release and loaded with acquire, so a reader that sees any
// field a writer stored also sees seq_ odd on its second read. Writers are
// claims and releases, a few per object lifetime, so a writer that finds
// another one in simply yields.

std::uint32_t IdentitySlot::LockForWrite() {
  std::uint32_t seq = seq_.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) == 0 &&
        seq_.compare_exchange_weak(seq, seq + 1, std::memory_order_acquire,
                                   std::memory_order_relaxed)) {
      return seq;
    }
    if ((seq & 1) != 0) {
      std::this_thread::yield();
      seq = seq_.load(std::memory_order_relaxed);
    }
  }
}

ObjectId IdentitySlot::HeldBy(const ObjectTable* table) const {
  const ObjectTable* owner = owner_.load(std::memory_order_acquire);
  const ObjectId id{site_.load(std::memory_order_acquire),
                    local_.load(std::memory_order_acquire)};
  return owner == table ? id : ObjectId{};
}

void IdentitySlot::Set(const ObjectTable* owner, ObjectId id) {
  owner_.store(owner, std::memory_order_release);
  site_.store(id.site, std::memory_order_release);
  local_.store(id.local, std::memory_order_release);
}

ObjectId IdentitySlot::Read(const ObjectTable* table) const {
  for (;;) {
    const std::uint32_t before = seq_.load(std::memory_order_acquire);
    if ((before & 1) != 0) {
      std::this_thread::yield();
      continue;
    }
    const ObjectId held = HeldBy(table);
    if (seq_.load(std::memory_order_relaxed) == before) return held;
  }
}

ObjectId IdentitySlot::Claim(const ObjectTable* table, ObjectId candidate) {
  const std::uint32_t seq = LockForWrite();
  const bool unowned = owner_.load(std::memory_order_relaxed) == nullptr;
  if (unowned) Set(table, candidate);
  const ObjectId held = HeldBy(table);
  seq_.store(unowned ? seq + 2 : seq, std::memory_order_release);
  return held;
}

void IdentitySlot::Release(const ObjectTable* table, ObjectId id) {
  const std::uint32_t seq = LockForWrite();
  // Only our own binding: the object may have been registered again under a
  // fresh id since.
  const bool ours = HeldBy(table) == id;
  if (ours) Set(nullptr, ObjectId{});
  seq_.store(ours ? seq + 2 : seq, std::memory_order_release);
}

ObjectTable::ObjectTable() = default;

// Objects an application still holds outlive the table: they leave it
// unregistered, free to join another site's.
ObjectTable::~ObjectTable() { ReleaseAll(); }

// --- guards ------------------------------------------------------------------

ObjectTable::ShardGuard::ShardGuard(const ObjectTable& table, std::size_t shard)
    : table_(table), shard_(shard), locked_(!table.WorldHeldByThisThread()) {
  if (locked_) table_.shards_[shard_].mutex.lock();
}

ObjectTable::ShardGuard::~ShardGuard() {
  if (locked_) table_.shards_[shard_].mutex.unlock();
}

ObjectTable::BatchGuard::BatchGuard(const ObjectTable& table,
                                    const std::vector<ObjectId>& ids)
    : table_(table) {
  if (table.WorldHeldByThisThread()) return;
  for (const ObjectId& id : ids) shards_ |= std::uint64_t{1} << table.ShardOf(id);
  // Lowest set bit first: ascending shard order.
  for (std::uint64_t rest = shards_; rest != 0; rest &= rest - 1) {
    table_.shards_[std::countr_zero(rest)].mutex.lock();
  }
}

ObjectTable::BatchGuard::~BatchGuard() {
  for (std::uint64_t rest = shards_; rest != 0; rest &= rest - 1) {
    table_.shards_[std::countr_zero(rest)].mutex.unlock();
  }
}

ObjectTable::WorldGuard::WorldGuard(const ObjectTable& table)
    : table_(table), owner_(!table.WorldHeldByThisThread()) {
  auto& self = const_cast<ObjectTable&>(table_);
  if (!owner_) {
    ++self.world_depth_;
    return;
  }
  for (auto& shard : self.shards_) shard.mutex.lock();
  self.world_owner_.store(std::this_thread::get_id(),
                          std::memory_order_release);
  self.world_depth_ = 1;
}

ObjectTable::WorldGuard::~WorldGuard() {
  auto& self = const_cast<ObjectTable&>(table_);
  if (!owner_) {
    --self.world_depth_;
    return;
  }
  assert(self.world_depth_ == 1);
  self.world_depth_ = 0;
  self.world_owner_.store(std::thread::id{}, std::memory_order_release);
  for (auto it = self.shards_.rbegin(); it != self.shards_.rend(); ++it)
    it->mutex.unlock();
}

// --- records -----------------------------------------------------------------

MasterEntry* ObjectTable::Master(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || !it->second.master) return nullptr;
  return &shard.masters[it->second.index];
}

const MasterEntry* ObjectTable::Master(ObjectId id) const {
  return const_cast<ObjectTable*>(this)->Master(id);
}

ReplicaEntry* ObjectTable::Replica(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.master) return nullptr;
  return &shard.replicas[it->second.index];
}

const ReplicaEntry* ObjectTable::Replica(ObjectId id) const {
  return const_cast<ObjectTable*>(this)->Replica(id);
}

ObjectTable::Entries ObjectTable::Lookup(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return {};
  if (it->second.master) return {&shard.masters[it->second.index], nullptr};
  return {nullptr, &shard.replicas[it->second.index]};
}

std::shared_ptr<Shareable> ObjectTable::Find(ObjectId id) const {
  const Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return nullptr;
  return it->second.master ? shard.masters[it->second.index].obj
                           : shard.replicas[it->second.index].obj;
}

std::pair<MasterEntry*, bool> ObjectTable::EmplaceMaster(ObjectId id,
                                                         MasterEntry record) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    if (it->second.master) return {&shard.masters[it->second.index], false};
    return {nullptr, false};
  }
  if (record.obj && PtrIdOrInsert(record.obj.get(), id) != id) {
    return {nullptr, false};
  }
  std::uint32_t index;
  if (!shard.master_free.empty()) {
    index = shard.master_free.back();
    shard.master_free.pop_back();
    shard.masters[index] = std::move(record);
  } else {
    index = static_cast<std::uint32_t>(shard.masters.size());
    shard.masters.push_back(std::move(record));
    shard.master_ids.push_back(ObjectId{});
  }
  shard.master_ids[index] = id;
  shard.index.emplace(id, Slot{true, index});
  MasterEntry* stored = &shard.masters[index];
  for (const net::Address& addr : stored->holders)
    shard.holders_by_addr[addr].insert(id);
  master_count_.fetch_add(1, std::memory_order_relaxed);
  return {stored, true};
}

std::pair<ReplicaEntry*, bool> ObjectTable::EmplaceReplica(
    ObjectId id, ReplicaEntry record) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    if (!it->second.master) return {&shard.replicas[it->second.index], false};
    return {nullptr, false};
  }
  if (record.obj && PtrIdOrInsert(record.obj.get(), id) != id) {
    return {nullptr, false};
  }
  std::uint32_t index;
  if (!shard.replica_free.empty()) {
    index = shard.replica_free.back();
    shard.replica_free.pop_back();
    shard.replicas[index] = std::move(record);
  } else {
    index = static_cast<std::uint32_t>(shard.replicas.size());
    shard.replicas.push_back(std::move(record));
    shard.replica_ids.push_back(ObjectId{});
  }
  shard.replica_ids[index] = id;
  shard.index.emplace(id, Slot{false, index});
  ReplicaEntry* stored = &shard.replicas[index];
  for (const net::Address& addr : stored->holders)
    shard.holders_by_addr[addr].insert(id);
  replica_count_.fetch_add(1, std::memory_order_relaxed);
  return {stored, true};
}

bool ObjectTable::EraseMaster(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || !it->second.master) return false;
  std::uint32_t index = it->second.index;
  MasterEntry& record = shard.masters[index];
  if (record.obj) record.obj->identity_.Release(this, id);
  for (const net::Address& addr : record.holders) {
    auto hit = shard.holders_by_addr.find(addr);
    if (hit == shard.holders_by_addr.end()) continue;
    hit->second.erase(id);
    if (hit->second.empty()) shard.holders_by_addr.erase(hit);
  }
  record = MasterEntry{};  // release the object + policy state in place
  shard.master_ids[index] = ObjectId{};
  shard.master_free.push_back(index);
  shard.index.erase(it);
  master_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ObjectTable::EraseReplica(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.master) return false;
  std::uint32_t index = it->second.index;
  ReplicaEntry& record = shard.replicas[index];
  if (record.obj) record.obj->identity_.Release(this, id);
  for (const net::Address& addr : record.holders) {
    auto hit = shard.holders_by_addr.find(addr);
    if (hit == shard.holders_by_addr.end()) continue;
    hit->second.erase(id);
    if (hit->second.empty()) shard.holders_by_addr.erase(hit);
  }
  record = ReplicaEntry{};
  shard.replica_ids[index] = ObjectId{};
  shard.replica_free.push_back(index);
  shard.index.erase(it);
  replica_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

// --- self-locking lookups ----------------------------------------------------

std::shared_ptr<Shareable> ObjectTable::FindLocked(ObjectId id) const {
  ShardGuard guard(*this, id);
  return Find(id);
}

bool ObjectTable::Contains(ObjectId id) const {
  ShardGuard guard(*this, id);
  return ShardFor(id).index.contains(id);
}

bool ObjectTable::ContainsMaster(ObjectId id) const {
  ShardGuard guard(*this, id);
  return Master(id) != nullptr;
}

bool ObjectTable::ContainsReplica(ObjectId id) const {
  ShardGuard guard(*this, id);
  return Replica(id) != nullptr;
}

// --- holder index ------------------------------------------------------------

void ObjectTable::LinkHolderInShard(Shard& shard, ObjectId id,
                                    const net::Address& addr) {
  shard.holders_by_addr[addr].insert(id);
}

bool ObjectTable::LinkHolder(ObjectId id, const net::Address& addr) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  std::vector<net::Address>& holders =
      it->second.master ? shard.masters[it->second.index].holders
                        : shard.replicas[it->second.index].holders;
  if (std::find(holders.begin(), holders.end(), addr) != holders.end())
    return false;
  holders.push_back(addr);
  LinkHolderInShard(shard, id, addr);
  return true;
}

bool ObjectTable::UnlinkHolder(ObjectId id, const net::Address& addr) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  std::vector<net::Address>& holders =
      it->second.master ? shard.masters[it->second.index].holders
                        : shard.replicas[it->second.index].holders;
  if (std::erase(holders, addr) == 0) return false;
  auto hit = shard.holders_by_addr.find(addr);
  if (hit != shard.holders_by_addr.end()) {
    hit->second.erase(id);
    if (hit->second.empty()) shard.holders_by_addr.erase(hit);
  }
  return true;
}

std::size_t ObjectTable::RemoveHolderEverywhere(
    const net::Address& addr, const std::function<bool()>& stop) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
    if (stop && stop()) break;
    Shard& shard = shards_[i];
    auto hit = shard.holders_by_addr.find(addr);
    if (hit == shard.holders_by_addr.end()) continue;
    for (const ObjectId& id : hit->second) {
      auto it = shard.index.find(id);
      if (it == shard.index.end()) continue;
      std::vector<net::Address>& holders =
          it->second.master ? shard.masters[it->second.index].holders
                            : shard.replicas[it->second.index].holders;
      removed += std::erase(holders, addr);
    }
    shard.holders_by_addr.erase(hit);
  }
  return removed;
}

bool ObjectTable::HolderAnywhere(const net::Address& addr) const {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
    if (shards_[i].holders_by_addr.contains(addr)) return true;
  }
  return false;
}

// --- iteration ---------------------------------------------------------------

void ObjectTable::ForEachMaster(
    const std::function<void(ObjectId, MasterEntry&)>& fn) {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
    Shard& shard = shards_[i];
    for (std::size_t slot = 0; slot < shard.master_ids.size(); ++slot) {
      if (shard.master_ids[slot].valid())
        fn(shard.master_ids[slot], shard.masters[slot]);
    }
  }
}

void ObjectTable::ForEachMaster(
    const std::function<void(ObjectId, const MasterEntry&)>& fn) const {
  const_cast<ObjectTable*>(this)->ForEachMaster(
      [&fn](ObjectId id, MasterEntry& record) { fn(id, record); });
}

void ObjectTable::ForEachReplica(
    const std::function<void(ObjectId, ReplicaEntry&)>& fn) {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
    Shard& shard = shards_[i];
    for (std::size_t slot = 0; slot < shard.replica_ids.size(); ++slot) {
      if (shard.replica_ids[slot].valid())
        fn(shard.replica_ids[slot], shard.replicas[slot]);
    }
  }
}

void ObjectTable::ForEachReplica(
    const std::function<void(ObjectId, const ReplicaEntry&)>& fn) const {
  const_cast<ObjectTable*>(this)->ForEachReplica(
      [&fn](ObjectId id, ReplicaEntry& record) { fn(id, record); });
}

void ObjectTable::ReleaseAll() {
  for (auto& shard : shards_) {
    for (std::size_t slot = 0; slot < shard.master_ids.size(); ++slot) {
      const ObjectId id = shard.master_ids[slot];
      if (id.valid() && shard.masters[slot].obj)
        shard.masters[slot].obj->identity_.Release(this, id);
    }
    for (std::size_t slot = 0; slot < shard.replica_ids.size(); ++slot) {
      const ObjectId id = shard.replica_ids[slot];
      if (id.valid() && shard.replicas[slot].obj)
        shard.replicas[slot].obj->identity_.Release(this, id);
    }
  }
}

void ObjectTable::Clear() {
  ReleaseAll();
  for (auto& shard : shards_) {
    shard.masters.clear();
    shard.replicas.clear();
    shard.master_free.clear();
    shard.replica_free.clear();
    shard.master_ids.clear();
    shard.replica_ids.clear();
    shard.index.clear();
    shard.holders_by_addr.clear();
  }
  master_count_.store(0, std::memory_order_relaxed);
  replica_count_.store(0, std::memory_order_relaxed);
}

bool ObjectTable::CheckConsistency() const {
  std::size_t masters = 0;
  std::size_t replicas = 0;
  for (const auto& shard : shards_) {
    std::unordered_map<net::Address,
                       std::unordered_set<ObjectId, ObjectIdHash>>
        expected_holders;
    std::size_t live = 0;
    for (std::size_t slot = 0; slot < shard.master_ids.size(); ++slot) {
      const ObjectId id = shard.master_ids[slot];
      if (!id.valid()) continue;
      ++masters;
      ++live;
      const MasterEntry& record = shard.masters[slot];
      if (record.obj && PtrId(record.obj.get()) != id) return false;
      for (const net::Address& addr : record.holders)
        expected_holders[addr].insert(id);
    }
    for (std::size_t slot = 0; slot < shard.replica_ids.size(); ++slot) {
      const ObjectId id = shard.replica_ids[slot];
      if (!id.valid()) continue;
      ++replicas;
      ++live;
      const ReplicaEntry& record = shard.replicas[slot];
      if (record.obj && PtrId(record.obj.get()) != id) return false;
      for (const net::Address& addr : record.holders)
        expected_holders[addr].insert(id);
    }
    if (expected_holders != shard.holders_by_addr) return false;
    if (shard.index.size() != live) return false;
  }
  // Two records sharing one object would fail the identity check above for
  // one of them.
  return masters == master_count() && replicas == replica_count();
}

}  // namespace obiwan::core
