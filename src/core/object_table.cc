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

ObjectTable::BatchGuard::BatchGuard(const ObjectTable& table)
    : table_(table), world_(table.WorldHeldByThisThread()) {}

ObjectTable::BatchGuard::BatchGuard(const ObjectTable& table,
                                    const std::vector<ObjectId>& ids)
    : BatchGuard(table) {
  if (world_) return;
  for (const ObjectId& id : ids) shards_ |= std::uint64_t{1} << ShardOf(id);
  Relock();
}

ObjectTable::BatchGuard::~BatchGuard() {
  if (held_) Release();
}

bool ObjectTable::BatchGuard::Add(ObjectId id) {
  if (world_) return true;
  const std::size_t shard = ShardOf(id);
  const std::uint64_t bit = std::uint64_t{1} << shard;
  if ((shards_ & bit) != 0) return true;
  TrackedMutex& mutex = table_.shards_[shard].mutex;
  if ((shards_ >> shard) == 0) {
    mutex.lock();  // above every held shard: waiting keeps the order
  } else if (!mutex.try_lock()) {
    Release();
    shards_ |= bit;
    return false;
  }
  shards_ |= bit;
  return true;
}

void ObjectTable::BatchGuard::Relock() {
  // Lowest set bit first: ascending shard order.
  for (std::uint64_t rest = shards_; rest != 0; rest &= rest - 1) {
    table_.shards_[std::countr_zero(rest)].mutex.lock();
  }
  held_ = true;
}

void ObjectTable::BatchGuard::Release() {
  for (std::uint64_t rest = shards_; rest != 0; rest &= rest - 1) {
    table_.shards_[std::countr_zero(rest)].mutex.unlock();
  }
  held_ = false;
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
  return &shard.masters.records[it->second.index];
}

const MasterEntry* ObjectTable::Master(ObjectId id) const {
  return const_cast<ObjectTable*>(this)->Master(id);
}

ReplicaEntry* ObjectTable::Replica(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.master) return nullptr;
  return &shard.replicas.records[it->second.index];
}

const ReplicaEntry* ObjectTable::Replica(ObjectId id) const {
  return const_cast<ObjectTable*>(this)->Replica(id);
}

ObjectTable::Entries ObjectTable::Lookup(ObjectId id) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return {};
  const std::uint32_t index = it->second.index;
  if (it->second.master) return {&shard.masters.records[index], nullptr};
  return {nullptr, &shard.replicas.records[index]};
}

std::shared_ptr<Shareable> ObjectTable::Find(ObjectId id) const {
  const Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return nullptr;
  return it->second.master ? shard.masters.records[it->second.index].obj
                           : shard.replicas.records[it->second.index].obj;
}

template <typename Entry>
Entry* ObjectTable::Insert(Shard& shard, ObjectId id, Entry record) {
  if (record.obj && PtrIdOrInsert(record.obj.get(), id) != id) return nullptr;
  constexpr bool kMaster = std::is_same_v<Entry, MasterEntry>;
  Arena<Entry>& arena = ArenaOf<Entry>(shard);
  std::uint32_t index;
  if (!arena.free.empty()) {
    index = arena.free.back();
    arena.free.pop_back();
    arena.records[index] = std::move(record);
  } else {
    index = static_cast<std::uint32_t>(arena.records.size());
    arena.records.push_back(std::move(record));
    arena.ids.push_back(ObjectId{});
  }
  arena.ids[index] = id;
  shard.index.emplace(id, Slot{kMaster, index});
  Entry* stored = &arena.records[index];
  for (const net::Address& addr : stored->holders)
    shard.holders_by_addr[addr].insert(id);
  CountOf(kMaster).fetch_add(1, std::memory_order_relaxed);
  return stored;
}

template <typename Entry>
std::pair<Entry*, bool> ObjectTable::Emplace(ObjectId id, Entry record) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    if (it->second.master != std::is_same_v<Entry, MasterEntry>) {
      return {nullptr, false};
    }
    return {&ArenaOf<Entry>(shard).records[it->second.index], false};
  }
  Entry* stored = Insert(shard, id, std::move(record));
  return {stored, stored != nullptr};
}

std::pair<MasterEntry*, bool> ObjectTable::EmplaceMaster(ObjectId id,
                                                         MasterEntry record) {
  return Emplace(id, std::move(record));
}

std::pair<ReplicaEntry*, bool> ObjectTable::EmplaceReplica(
    ObjectId id, ReplicaEntry record) {
  return Emplace(id, std::move(record));
}

MasterEntry* ObjectTable::InsertMaster(ObjectId id, MasterEntry record) {
  return Insert(ShardFor(id), id, std::move(record));
}

ReplicaEntry* ObjectTable::InsertReplica(ObjectId id, ReplicaEntry record) {
  return Insert(ShardFor(id), id, std::move(record));
}

template <typename Entry>
bool ObjectTable::Erase(ObjectId id) {
  constexpr bool kMaster = std::is_same_v<Entry, MasterEntry>;
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.master != kMaster) return false;
  Arena<Entry>& arena = ArenaOf<Entry>(shard);
  const std::uint32_t index = it->second.index;
  Entry& record = arena.records[index];
  if (record.obj) record.obj->identity_.Release(this, id);
  for (const net::Address& addr : record.holders) {
    auto hit = shard.holders_by_addr.find(addr);
    if (hit == shard.holders_by_addr.end()) continue;
    hit->second.erase(id);
    if (hit->second.empty()) shard.holders_by_addr.erase(hit);
  }
  record = Entry{};  // release the object + policy state in place
  arena.ids[index] = ObjectId{};
  arena.free.push_back(index);
  shard.index.erase(it);
  CountOf(kMaster).fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ObjectTable::EraseMaster(ObjectId id) { return Erase<MasterEntry>(id); }
bool ObjectTable::EraseReplica(ObjectId id) { return Erase<ReplicaEntry>(id); }

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

bool ObjectTable::LinkHolder(ObjectId id, const net::Address& addr) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  std::vector<net::Address>& holders = HoldersAt(shard, it->second);
  if (std::find(holders.begin(), holders.end(), addr) != holders.end())
    return false;
  holders.push_back(addr);
  shard.holders_by_addr[addr].insert(id);
  return true;
}

bool ObjectTable::UnlinkHolder(ObjectId id, const net::Address& addr) {
  Shard& shard = ShardFor(id);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  if (std::erase(HoldersAt(shard, it->second), addr) == 0) return false;
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
      removed += std::erase(HoldersAt(shard, it->second), addr);
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

template <typename Entry>
void ObjectTable::ForEach(const std::function<void(ObjectId, Entry&)>& fn) {
  for (std::size_t i = 0; i < kShardCount; ++i) {
    ShardGuard guard(*this, i);
    Arena<Entry>& arena = ArenaOf<Entry>(shards_[i]);
    for (std::size_t slot = 0; slot < arena.ids.size(); ++slot) {
      if (arena.ids[slot].valid()) fn(arena.ids[slot], arena.records[slot]);
    }
  }
}

void ObjectTable::ForEachMaster(
    const std::function<void(ObjectId, MasterEntry&)>& fn) {
  ForEach(fn);
}

void ObjectTable::ForEachMaster(
    const std::function<void(ObjectId, const MasterEntry&)>& fn) const {
  const_cast<ObjectTable*>(this)->ForEachMaster(
      [&fn](ObjectId id, MasterEntry& record) { fn(id, record); });
}

void ObjectTable::ForEachReplica(
    const std::function<void(ObjectId, ReplicaEntry&)>& fn) {
  ForEach(fn);
}

void ObjectTable::ForEachReplica(
    const std::function<void(ObjectId, const ReplicaEntry&)>& fn) const {
  const_cast<ObjectTable*>(this)->ForEachReplica(
      [&fn](ObjectId id, ReplicaEntry& record) { fn(id, record); });
}

void ObjectTable::ReleaseAll() {
  auto release = [this](const auto& arena) {
    for (std::size_t slot = 0; slot < arena.ids.size(); ++slot) {
      const ObjectId id = arena.ids[slot];
      if (id.valid() && arena.records[slot].obj)
        arena.records[slot].obj->identity_.Release(this, id);
    }
  };
  for (auto& shard : shards_) {
    release(shard.masters);
    release(shard.replicas);
  }
}

void ObjectTable::Clear() {
  ReleaseAll();
  for (auto& shard : shards_) {
    shard.masters = {};
    shard.replicas = {};
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
    // The live records of one arena, or -1 if one fails its identity check.
    auto check = [&](const auto& arena) -> std::ptrdiff_t {
      std::ptrdiff_t live = 0;
      for (std::size_t slot = 0; slot < arena.ids.size(); ++slot) {
        const ObjectId id = arena.ids[slot];
        if (!id.valid()) continue;
        ++live;
        const auto& record = arena.records[slot];
        if (record.obj && PtrId(record.obj.get()) != id) return -1;
        for (const net::Address& addr : record.holders)
          expected_holders[addr].insert(id);
      }
      return live;
    };
    const std::ptrdiff_t live_masters = check(shard.masters);
    const std::ptrdiff_t live_replicas = check(shard.replicas);
    if (live_masters < 0 || live_replicas < 0) return false;
    if (expected_holders != shard.holders_by_addr) return false;
    if (shard.index.size() !=
        static_cast<std::size_t>(live_masters + live_replicas)) {
      return false;
    }
    masters += static_cast<std::size_t>(live_masters);
    replicas += static_cast<std::size_t>(live_replicas);
  }
  // Two records sharing one object would fail the identity check above for
  // one of them.
  return masters == master_count() && replicas == replica_count();
}

}  // namespace obiwan::core
