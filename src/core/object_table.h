// ObjectTable: the lock-striped sharded object table behind a Site.
//
// Until PR 8 every Site table (masters_, replicas_, ptr_ids_) was a
// node-allocated unordered_map behind one recursive TrackedMutex{"site"} —
// the serialization bench_contention measures and the ROADMAP names as "the
// unlock for every other scale item". This container replaces those three
// maps with:
//
//   - N = 64 shards keyed by ObjectIdHash, each behind its own
//     TrackedMutex{"site.shard"} (one shared telemetry family, so the PR 7
//     contention observatory measures the split without blowing up metric
//     cardinality);
//   - flat master/replica records stored in per-shard deque arenas with
//     free lists — stable addresses, stable indices, prefetch-friendly
//     iteration, no per-record heap node;
//   - pointer identity (Shareable* -> ObjectId) kept in the object itself:
//     each Shareable's IdentitySlot names the one table that holds it and
//     its id there, read without a lock. It is symmetric with the record
//     arenas *by construction*: inserting a record (Emplace*, Insert*)
//     claims the slot, EraseMaster/EraseReplica, Clear() and the table's
//     destruction release it, and debug builds can assert the symmetry with
//     CheckConsistency(). An object belongs to at most one table: a table
//     never registers an object another table holds.
//   - a per-shard holder index (holder address -> object ids it holds), so
//     dropping an unreachable holder is O(objects it holds) instead of the
//     old O(all objects) sweep.
//
// Lock order (see DESIGN.md "Object table"):
//   1. a thread waits only for a shard above every shard it holds; a shard
//      below one it holds is only ever tried. So shards are waited for in
//      ascending order: BatchGuard locks its shard mask upward, WorldGuard
//      takes all of them, and a walk that grows its BatchGuard as it
//      discovers its batch (BatchGuard::Add) lets go of everything and
//      starts over when a try fails;
//   2. then at most one leaf lock: the site pins mutex or the site mutex.
//      Leaf locks never nest inside each other and no shard lock is ever
//      acquired while a leaf lock is held.
//
// WorldGuard (all 64 shards) is for the whole-table operations that need
// one global cut: snapshot save and load, eviction (a cascade erases in any
// shard) and Site::CheckTableConsistency. While a thread owns the world,
// every ShardGuard / BatchGuard it takes is a no-op, so site code can call
// straight through helpers that normally lock. Inspect and holder drops read
// and sweep shard by shard instead.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/contention.h"
#include "common/ids.h"
#include "core/proxy.h"
#include "core/shareable.h"
#include "net/transport.h"

namespace obiwan::core {

// Flat per-object records (previously Site::MasterEntry / ReplicaEntry).
// Stored by value in the shard arenas; addresses are stable for the record's
// lifetime, and every field is guarded by the owning shard's mutex.
struct MasterEntry {
  std::shared_ptr<Shareable> obj;
  std::uint64_t version = 1;
  Bytes policy_state;
  std::vector<net::Address> holders;
  // Introspection: when the master last accepted an update (site clock;
  // creation time until the first put) and how often it was served.
  Nanos last_update = 0;
  std::uint64_t gets_served = 0;
  std::uint64_t puts_accepted = 0;
};

struct ReplicaEntry {
  std::shared_ptr<Shareable> obj;
  std::uint64_t version = 0;
  Bytes policy_state;
  ProxyDescriptor provider;  // per-object channel, or the cluster channel
  bool in_cluster = false;
  bool stale = false;  // write-invalidate marked this replica out of date
  // Re-exporting makes this site a provider for the replica; track the
  // downstream holders just like a master's.
  std::vector<net::Address> holders;
  // Introspection: the highest master version this site has heard of (via
  // gets, put acks and versioned invalidations), when this replica last
  // synchronised with its master (site clock), and its sync/put traffic.
  std::uint64_t known_master_version = 0;
  Nanos last_sync = 0;
  std::uint64_t sync_count = 0;
  std::uint64_t put_count = 0;
};

class ObjectTable {
 public:
  static constexpr std::size_t kShardCount = 64;

  ObjectTable();
  ~ObjectTable();

  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;

  static std::size_t ShardOf(ObjectId id) {
    return ObjectIdHash{}(id) & (kShardCount - 1);
  }

  // --- locking ---------------------------------------------------------------

  // One shard. No-op when the calling thread owns the world.
  class ShardGuard {
   public:
    ShardGuard(const ObjectTable& table, ObjectId id)
        : ShardGuard(table, table.ShardOf(id)) {}
    ShardGuard(const ObjectTable& table, std::size_t shard);
    ~ShardGuard();
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    const ObjectTable& table_;
    std::size_t shard_;
    bool locked_;
  };

  // The distinct shards of a batch of ids, locked in ascending shard order,
  // or, for a walk that discovers its batch as it goes, a set that starts
  // empty and grows with Add. No-op when the calling thread owns the world.
  class BatchGuard {
   public:
    explicit BatchGuard(const ObjectTable& table);
    BatchGuard(const ObjectTable& table, const std::vector<ObjectId>& ids);
    ~BatchGuard();
    BatchGuard(const BatchGuard&) = delete;
    BatchGuard& operator=(const BatchGuard&) = delete;

    // Hold the shard of `id` too. A shard above every held one is locked; a
    // lower one is only tried. When the try fails, every shard is released,
    // the set is kept with the new shard in it, and false comes back: the
    // caller calls Relock(), which takes the set in ascending order, and
    // restarts its walk. Each restart grows the set, so there are at most
    // 64.
    bool Add(ObjectId id);
    void Relock();

   private:
    void Release();

    const ObjectTable& table_;
    bool world_;          // the thread owns the world: nothing to lock
    bool held_ = true;    // `shards_` is locked (false after a failed Add)
    std::uint64_t shards_ = 0;  // bit i set: shard i is in the set
  };
  static_assert(kShardCount == 64, "BatchGuard keeps one bit per shard");

  // Every shard, in ascending order. Reentrant: a thread already owning the
  // world just bumps a depth counter, which is what lets snapshot code call
  // helpers that take their own guards.
  class WorldGuard {
   public:
    explicit WorldGuard(const ObjectTable& table);
    ~WorldGuard();
    WorldGuard(const WorldGuard&) = delete;
    WorldGuard& operator=(const WorldGuard&) = delete;

   private:
    const ObjectTable& table_;
    bool owner_;  // outermost guard on this thread
  };

  bool WorldHeldByThisThread() const {
    return world_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  // --- records (caller holds the covering shard guard or the world) ----------

  MasterEntry* Master(ObjectId id);
  const MasterEntry* Master(ObjectId id) const;
  ReplicaEntry* Replica(ObjectId id);
  const ReplicaEntry* Replica(ObjectId id) const;

  // The local object for `id` regardless of role, or null.
  std::shared_ptr<Shareable> Find(ObjectId id) const;

  // Both roles in one probe: at most one pointer is set.
  struct Entries {
    MasterEntry* master = nullptr;
    ReplicaEntry* replica = nullptr;
  };
  Entries Lookup(ObjectId id);

  // Insert a record. Returns the stored record and whether this call
  // inserted it (false = a record of either role already existed; the
  // existing one is returned if it has the same role, else null). Also
  // claims the object's identity slot and registers its holders in the
  // holder index. An object already held under another id, here or at
  // another table, is refused: null, false.
  std::pair<MasterEntry*, bool> EmplaceMaster(ObjectId id, MasterEntry record);
  std::pair<ReplicaEntry*, bool> EmplaceReplica(ObjectId id, ReplicaEntry record);
  // The same for an id the caller knows is absent (a fresh mint, or one it
  // looked up under the guard it still holds): no existence probe. Null if
  // the object is held under another id.
  MasterEntry* InsertMaster(ObjectId id, MasterEntry record);
  ReplicaEntry* InsertReplica(ObjectId id, ReplicaEntry record);

  // Remove a record together with its object's identity and its
  // holder-index rows — the symmetry the old ptr_ids_ map lacked on master
  // teardown paths.
  bool EraseMaster(ObjectId id);
  bool EraseReplica(ObjectId id);

  // --- self-locking lookups (no shard guard may be held, or hold the world) --

  std::shared_ptr<Shareable> FindLocked(ObjectId id) const;
  bool Contains(ObjectId id) const;
  bool ContainsMaster(ObjectId id) const;
  bool ContainsReplica(ObjectId id) const;

  // --- pointer identity (the object's slot; no lock, safe anywhere) --------

  // The id this table holds `ptr` under, or the invalid id.
  ObjectId PtrId(const Shareable* ptr) const { return ptr->identity_.Read(this); }
  // Atomically: return the id this table holds `ptr` under, or bind
  // `candidate` to it and return `candidate`; the invalid id if another
  // table holds it. The caller that wins the race is responsible for
  // emplacing the matching record while still holding candidate's shard
  // guard, so observers that look the id up block until the record exists.
  ObjectId PtrIdOrInsert(const Shareable* ptr, ObjectId candidate) {
    return ptr->identity_.Claim(this, candidate);
  }

  // --- holder index (caller holds the shard guard of `id` or the world) ------

  // Add/remove `addr` on the record's holders list and the shard's holder
  // index together (no-op if absent/present accordingly). Return whether the
  // membership changed.
  bool LinkHolder(ObjectId id, const net::Address& addr);
  bool UnlinkHolder(ObjectId id, const net::Address& addr);

  // Remove `addr` from every holders list, via the holder index —
  // O(objects held), not O(all objects). Locks shard by shard unless the
  // caller owns the world. `stop`, if set, runs first under each shard's
  // guard and ends the sweep when it returns true. Returns the number of
  // lists `addr` was removed from.
  std::size_t RemoveHolderEverywhere(const net::Address& addr,
                                     const std::function<bool()>& stop = {});
  // Is `addr` on any record's holders list?
  bool HolderAnywhere(const net::Address& addr) const;

  // --- iteration -------------------------------------------------------------

  // Visit every live record. Unless the caller owns the world, each shard is
  // locked for the duration of its records' callbacks (a per-shard-consistent
  // sweep, not a global snapshot). The callback runs under the shard's guard:
  // it may read pointer identity (PtrId) but must not take other shard
  // guards or self-locking lookups.
  void ForEachMaster(const std::function<void(ObjectId, MasterEntry&)>& fn);
  void ForEachMaster(
      const std::function<void(ObjectId, const MasterEntry&)>& fn) const;
  void ForEachReplica(const std::function<void(ObjectId, ReplicaEntry&)>& fn);
  void ForEachReplica(
      const std::function<void(ObjectId, const ReplicaEntry&)>& fn) const;

  std::size_t master_count() const {
    return master_count_.load(std::memory_order_relaxed);
  }
  std::size_t replica_count() const {
    return replica_count_.load(std::memory_order_relaxed);
  }

  // Drop everything (records, their objects' identities, holder index).
  // Caller owns the world or is otherwise single-threaded (snapshot-restore
  // failure path).
  void Clear();

  // Debug invariant check (call with the world held): every live record's
  // object names this table and the record's id, the holder index matches
  // the holders lists, and the counts add up. Returns false on violation
  // (and asserts in debug builds at the call sites that use it).
  bool CheckConsistency() const;

 private:
  struct Slot {
    bool master = false;
    std::uint32_t index = 0;
  };

  // Arena storage for one role: records stay at a stable address for their
  // lifetime; erased slots go on the free list and are reused in place.
  template <typename Entry>
  struct Arena {
    std::deque<Entry> records;
    std::vector<std::uint32_t> free;
    // The live id per slot, for iteration without a map walk. The invalid
    // id marks a freed slot.
    std::vector<ObjectId> ids;
  };

  struct Shard {
    mutable TrackedMutex mutex{"site.shard"};
    Arena<MasterEntry> masters;
    Arena<ReplicaEntry> replicas;
    std::unordered_map<ObjectId, Slot, ObjectIdHash> index;
    // holder address -> ids of records whose holders list contains it.
    std::unordered_map<net::Address,
                       std::unordered_set<ObjectId, ObjectIdHash>>
        holders_by_addr;
  };

  Shard& ShardFor(ObjectId id) { return shards_[ShardOf(id)]; }
  const Shard& ShardFor(ObjectId id) const { return shards_[ShardOf(id)]; }

  template <typename Entry>
  static Arena<Entry>& ArenaOf(Shard& shard) {
    if constexpr (std::is_same_v<Entry, MasterEntry>) {
      return shard.masters;
    } else {
      return shard.replicas;
    }
  }
  static std::vector<net::Address>& HoldersAt(Shard& shard, Slot slot) {
    return slot.master ? shard.masters.records[slot.index].holders
                       : shard.replicas.records[slot.index].holders;
  }
  std::atomic<std::size_t>& CountOf(bool master) {
    return master ? master_count_ : replica_count_;
  }

  template <typename Entry>
  std::pair<Entry*, bool> Emplace(ObjectId id, Entry record);
  template <typename Entry>
  Entry* Insert(Shard& shard, ObjectId id, Entry record);
  template <typename Entry>
  bool Erase(ObjectId id);
  template <typename Entry>
  void ForEach(const std::function<void(ObjectId, Entry&)>& fn);
  // Release the identity of every live record's object.
  void ReleaseAll();

  std::array<Shard, kShardCount> shards_;

  std::atomic<std::size_t> master_count_{0};
  std::atomic<std::size_t> replica_count_{0};

  // World ownership: the thread id that holds every shard, plus its
  // reentrancy depth. Guards consult this to no-op under the world.
  std::atomic<std::thread::id> world_owner_{};
  std::size_t world_depth_ = 0;  // touched only by the owning thread
};

}  // namespace obiwan::core
