#include "core/object_table.h"

#include <cassert>

namespace obiwan::core {

// Internal leaf lock over one pointer stripe: skipped when the thread owns
// the world (the WorldGuard already holds every stripe).
namespace {
class StripeLock {
 public:
  StripeLock(const ObjectTable& table, TrackedMutex& mutex)
      : mutex_(mutex), locked_(!table.WorldHeldByThisThread()) {
    if (locked_) mutex_.lock();
  }
  ~StripeLock() {
    if (locked_) mutex_.unlock();
  }
  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  TrackedMutex& mutex_;
  bool locked_;
};
}  // namespace

ObjectTable::ObjectTable() = default;
ObjectTable::~ObjectTable() = default;

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
  shards_.reserve(ids.size());
  for (const ObjectId& id : ids) shards_.push_back(table.ShardOf(id));
  std::sort(shards_.begin(), shards_.end());
  shards_.erase(std::unique(shards_.begin(), shards_.end()), shards_.end());
  for (std::size_t shard : shards_) table_.shards_[shard].mutex.lock();
}

ObjectTable::BatchGuard::~BatchGuard() {
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it)
    table_.shards_[*it].mutex.unlock();
}

ObjectTable::WorldGuard::WorldGuard(const ObjectTable& table)
    : table_(table), owner_(!table.WorldHeldByThisThread()) {
  auto& self = const_cast<ObjectTable&>(table_);
  if (!owner_) {
    ++self.world_depth_;
    return;
  }
  for (auto& shard : self.shards_) shard.mutex.lock();
  for (auto& stripe : self.stripes_) stripe.mutex.lock();
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
  for (auto it = self.stripes_.rbegin(); it != self.stripes_.rend(); ++it)
    it->mutex.unlock();
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
  if (stored->obj) PtrIdOrInsert(stored->obj.get(), id);
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
  if (stored->obj) PtrIdOrInsert(stored->obj.get(), id);
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
  if (record.obj) ErasePtr(record.obj.get(), id);
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
  if (record.obj) ErasePtr(record.obj.get(), id);
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

// --- pointer identity --------------------------------------------------------

ObjectId ObjectTable::PtrId(const Shareable* ptr) const {
  const PtrStripe& stripe = stripes_[StripeOf(ptr)];
  StripeLock lock(*this, stripe.mutex);
  auto it = stripe.ids.find(ptr);
  return it == stripe.ids.end() ? ObjectId{} : it->second;
}

ObjectId ObjectTable::PtrIdOrInsert(const Shareable* ptr, ObjectId candidate) {
  PtrStripe& stripe = stripes_[StripeOf(ptr)];
  StripeLock lock(*this, stripe.mutex);
  auto [it, inserted] = stripe.ids.emplace(ptr, candidate);
  return it->second;
}

void ObjectTable::ErasePtr(const Shareable* ptr, ObjectId expect) {
  PtrStripe& stripe = stripes_[StripeOf(ptr)];
  StripeLock lock(*this, stripe.mutex);
  auto it = stripe.ids.find(ptr);
  // Only erase our own binding: the address may already have been recycled
  // and re-registered under a fresh id.
  if (it != stripe.ids.end() && it->second == expect) stripe.ids.erase(it);
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

std::size_t ObjectTable::RemoveHolderEverywhere(const net::Address& addr) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
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

void ObjectTable::Clear() {
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
  for (auto& stripe : stripes_) stripe.ids.clear();
  master_count_.store(0, std::memory_order_relaxed);
  replica_count_.store(0, std::memory_order_relaxed);
}

bool ObjectTable::CheckConsistency() const {
  std::size_t masters = 0;
  std::size_t replicas = 0;
  std::size_t ptr_entries = 0;
  for (const auto& stripe : stripes_) ptr_entries += stripe.ids.size();
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
  if (masters != master_count()) return false;
  if (replicas != replica_count()) return false;
  // Every live record registers exactly one pointer entry; no dangling
  // pointer keys survive an erase.
  return ptr_entries == masters + replicas;
}

}  // namespace obiwan::core
