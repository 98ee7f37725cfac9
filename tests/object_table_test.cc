// The sharded object table (PR 8): record lifecycle, pointer-identity
// symmetry, the holder index, guard semantics — plus site-level coverage
// that the OBI2 snapshot format round-trips over the sharded table, and
// real-socket soaks that hammer get/put/drop/inspect concurrently and swap
// consistency policies under get/put traffic (run under TSan in
// tools/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/object_table.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

using core::MasterEntry;
using core::ObjectTable;
using core::ReplicaEntry;
using core::ReplicationMode;
using test::Node;

MasterEntry MakeMaster(const std::shared_ptr<Node>& obj) {
  MasterEntry record;
  record.obj = obj;
  return record;
}

ReplicaEntry MakeReplica(const std::shared_ptr<Node>& obj) {
  ReplicaEntry record;
  record.obj = obj;
  return record;
}

TEST(ObjectTableTest, EmplaceFindEraseRoundTrip) {
  ObjectTable table;
  auto a = std::make_shared<Node>();
  auto b = std::make_shared<Node>();
  const ObjectId ma{1, 1};
  const ObjectId rb{2, 9};

  {
    ObjectTable::ShardGuard guard(table, ma);
    auto [record, inserted] = table.EmplaceMaster(ma, MakeMaster(a));
    ASSERT_TRUE(inserted);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->version, 1u);
  }
  {
    ObjectTable::ShardGuard guard(table, rb);
    auto [record, inserted] = table.EmplaceReplica(rb, MakeReplica(b));
    ASSERT_TRUE(inserted);
    ASSERT_NE(record, nullptr);
  }
  EXPECT_EQ(table.master_count(), 1u);
  EXPECT_EQ(table.replica_count(), 1u);
  EXPECT_EQ(table.FindLocked(ma).get(), a.get());
  EXPECT_EQ(table.FindLocked(rb).get(), b.get());
  EXPECT_TRUE(table.ContainsMaster(ma));
  EXPECT_FALSE(table.ContainsReplica(ma));
  EXPECT_TRUE(table.ContainsReplica(rb));

  {
    ObjectTable::WorldGuard world(table);
    EXPECT_TRUE(table.CheckConsistency());
  }

  EXPECT_TRUE(table.EraseMaster(ma));
  EXPECT_FALSE(table.EraseMaster(ma));  // second erase is a no-op
  EXPECT_TRUE(table.EraseReplica(rb));
  EXPECT_EQ(table.master_count(), 0u);
  EXPECT_EQ(table.replica_count(), 0u);
  EXPECT_EQ(table.FindLocked(ma), nullptr);
  {
    ObjectTable::WorldGuard world(table);
    EXPECT_TRUE(table.CheckConsistency());
  }
}

TEST(ObjectTableTest, DuplicateAndCrossRoleEmplaceAreRejected) {
  ObjectTable table;
  auto a = std::make_shared<Node>();
  auto b = std::make_shared<Node>();
  const ObjectId id{1, 5};

  ObjectTable::ShardGuard guard(table, id);
  auto [first, inserted] = table.EmplaceMaster(id, MakeMaster(a));
  ASSERT_TRUE(inserted);
  // Same role: the existing record comes back, not a replacement.
  auto [again, inserted_again] = table.EmplaceMaster(id, MakeMaster(b));
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->obj.get(), a.get());
  // Cross role: an id can hold one record, of one role.
  auto [cross, inserted_cross] = table.EmplaceReplica(id, MakeReplica(b));
  EXPECT_FALSE(inserted_cross);
  EXPECT_EQ(cross, nullptr);
}

// Bug-1 regression (PR 8): the old Site only erased ptr_ids_ on the
// replica-eviction path, so a heap address that outlived (or was recycled
// after) its record kept resolving to the dead record's id. The sharded
// table keeps the pointer map symmetric by construction: erase removes the
// binding, re-emplacing the same address under a new id rebinds it, and a
// stale double-erase of the old id must not destroy the new binding.
TEST(ObjectTableTest, PointerIdentitySurvivesAddressReuseUnderNewId) {
  ObjectTable table;
  auto obj = std::make_shared<Node>();  // one heap address, two lifetimes
  const ObjectId old_id{1, 1};
  const ObjectId new_id{1, 2};

  {
    ObjectTable::ShardGuard guard(table, old_id);
    ASSERT_TRUE(table.EmplaceMaster(old_id, MakeMaster(obj)).second);
  }
  EXPECT_EQ(table.PtrId(obj.get()), old_id);

  ASSERT_TRUE(table.EraseMaster(old_id));
  EXPECT_FALSE(table.PtrId(obj.get()).valid())
      << "erase left a dangling pointer-identity entry";

  // The "recycled address": the same Shareable* comes back as a different
  // object identity.
  {
    ObjectTable::ShardGuard guard(table, new_id);
    ASSERT_TRUE(table.EmplaceReplica(new_id, MakeReplica(obj)).second);
  }
  EXPECT_EQ(table.PtrId(obj.get()), new_id);

  // A late erase of the dead id (e.g. a racing teardown path) must not take
  // the fresh binding with it.
  EXPECT_FALSE(table.EraseMaster(old_id));
  EXPECT_EQ(table.PtrId(obj.get()), new_id);

  ObjectTable::WorldGuard world(table);
  EXPECT_TRUE(table.CheckConsistency());
}

TEST(ObjectTableTest, PtrIdOrInsertFirstWriterWins) {
  ObjectTable table;
  auto obj = std::make_shared<Node>();
  const ObjectId winner{1, 10};
  const ObjectId loser{1, 11};

  EXPECT_EQ(table.PtrIdOrInsert(obj.get(), winner), winner);
  // A racing minter loses and adopts the existing binding.
  EXPECT_EQ(table.PtrIdOrInsert(obj.get(), loser), winner);
  EXPECT_EQ(table.PtrId(obj.get()), winner);
}

// An object's identity lives in the object, and it names one table: a
// second table neither reads nor takes it until the first lets go.
TEST(ObjectTableTest, IdentityBelongsToOneTable) {
  auto obj = std::make_shared<Node>();
  ObjectTable other;
  const ObjectId id{1, 7};
  {
    ObjectTable table;
    {
      ObjectTable::ShardGuard guard(table, id);
      ASSERT_TRUE(table.EmplaceMaster(id, MakeMaster(obj)).second);
    }
    EXPECT_FALSE(other.PtrId(obj.get()).valid());
    EXPECT_FALSE(other.PtrIdOrInsert(obj.get(), ObjectId{2, 1}).valid());
    ObjectTable::ShardGuard guard(other, ObjectId{2, 1});
    auto [record, inserted] = other.EmplaceMaster(ObjectId{2, 1}, MakeMaster(obj));
    EXPECT_EQ(record, nullptr);
    EXPECT_FALSE(inserted);
  }
  // The first table is gone; the object it held is free again.
  EXPECT_EQ(other.PtrIdOrInsert(obj.get(), ObjectId{2, 1}), (ObjectId{2, 1}));
}

// A copy of a registered object is a new, unregistered object, and
// assignment leaves the target's own registration alone.
TEST(ObjectTableTest, CopyOfARegisteredObjectIsUnregistered) {
  net::LoopbackNetwork network;
  core::Site site(1, network.CreateEndpoint("s"));
  auto obj = std::make_shared<Node>();
  obj->label = "original";
  const ObjectId id = site.Export(obj);
  ASSERT_TRUE(id.valid());

  auto copy = std::make_shared<Node>(*obj);
  EXPECT_EQ(copy->label, "original");
  const ObjectId copy_id = site.Export(copy);
  EXPECT_TRUE(copy_id.valid());
  EXPECT_NE(copy_id, id);
  EXPECT_EQ(site.Export(obj), id);

  *copy = *obj;
  EXPECT_EQ(site.Export(copy), copy_id);
  EXPECT_EQ(site.master_count(), 2u);
  EXPECT_TRUE(site.CheckTableConsistency());
}

TEST(ObjectTableTest, HolderIndexTracksLinksAcrossShards) {
  ObjectTable table;
  const net::Address pda = "pda:1";
  const net::Address laptop = "laptop:1";
  std::vector<ObjectId> ids;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const ObjectId id{1, 100 + i};  // spread across shards
    ids.push_back(id);
    ObjectTable::ShardGuard guard(table, id);
    ASSERT_TRUE(table.EmplaceMaster(id, MakeMaster(std::make_shared<Node>()))
                    .second);
    EXPECT_TRUE(table.LinkHolder(id, pda));
    EXPECT_FALSE(table.LinkHolder(id, pda));  // idempotent
  }
  {
    ObjectTable::ShardGuard guard(table, ids[0]);
    EXPECT_TRUE(table.LinkHolder(ids[0], laptop));
  }
  EXPECT_TRUE(table.HolderAnywhere(pda));
  EXPECT_TRUE(table.HolderAnywhere(laptop));

  {
    ObjectTable::ShardGuard guard(table, ids[1]);
    EXPECT_TRUE(table.UnlinkHolder(ids[1], pda));
    EXPECT_FALSE(table.UnlinkHolder(ids[1], pda));
  }
  EXPECT_EQ(table.RemoveHolderEverywhere(pda), ids.size() - 1);
  EXPECT_FALSE(table.HolderAnywhere(pda));
  EXPECT_TRUE(table.HolderAnywhere(laptop));
  {
    ObjectTable::ShardGuard guard(table, ids[0]);
    ASSERT_NE(table.Master(ids[0]), nullptr);
    EXPECT_EQ(table.Master(ids[0])->holders,
              std::vector<net::Address>{laptop});
  }
  ObjectTable::WorldGuard world(table);
  EXPECT_TRUE(table.CheckConsistency());
}

TEST(ObjectTableTest, WorldGuardIsReentrantAndAbsorbsInnerGuards) {
  ObjectTable table;
  const ObjectId id{1, 3};
  ObjectTable::WorldGuard outer(table);
  EXPECT_TRUE(table.WorldHeldByThisThread());
  {
    // All of these would deadlock against the world if they really locked.
    ObjectTable::WorldGuard inner(table);
    ObjectTable::ShardGuard shard(table, id);
    ObjectTable::BatchGuard batch(table, {id, ObjectId{2, 3}, id});
    ASSERT_TRUE(table.EmplaceMaster(id, MakeMaster(std::make_shared<Node>()))
                    .second);
    // Self-locking lookups are legal (and lock-free) under the world.
    EXPECT_TRUE(table.Contains(id));
    EXPECT_NE(table.FindLocked(id), nullptr);
  }
  EXPECT_TRUE(table.WorldHeldByThisThread());
  EXPECT_TRUE(table.CheckConsistency());
}

TEST(ObjectTableTest, ForEachSkipsErasedSlotsAndSeesReuse) {
  ObjectTable table;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const ObjectId id{1, i + 1};
    ObjectTable::ShardGuard guard(table, id);
    ASSERT_TRUE(table.EmplaceMaster(id, MakeMaster(std::make_shared<Node>()))
                    .second);
  }
  for (std::uint64_t i = 0; i < 16; i += 2) {
    ASSERT_TRUE(table.EraseMaster(ObjectId{1, i + 1}));
  }
  std::size_t seen = 0;
  table.ForEachMaster([&](ObjectId id, const MasterEntry&) {
    EXPECT_EQ(id.local % 2, 0u);  // only the even-numbered survivors
    ++seen;
  });
  EXPECT_EQ(seen, 8u);

  // Freed arena slots are reused in place for new records.
  const ObjectId reused{1, 101};
  {
    ObjectTable::ShardGuard guard(table, reused);
    ASSERT_TRUE(table.EmplaceMaster(reused, MakeMaster(std::make_shared<Node>()))
                    .second);
  }
  seen = 0;
  table.ForEachMaster([&](ObjectId, const MasterEntry&) { ++seen; });
  EXPECT_EQ(seen, 9u);
  ObjectTable::WorldGuard world(table);
  EXPECT_TRUE(table.CheckConsistency());
}

// Table-level concurrency soak: writers, erasers, readers and whole-table
// sweeps race across shards; the invariant check must hold afterwards.
TEST(ObjectTableTest, ConcurrentMutationKeepsInvariants) {
  ObjectTable table;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table, t] {
      const net::Address addr = "holder:" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ObjectId id{1, static_cast<std::uint64_t>(t * kOpsPerThread + i + 1)};
        auto obj = std::make_shared<Node>();
        {
          ObjectTable::ShardGuard guard(table, id);
          if (table.EmplaceMaster(id, MakeMaster(obj)).second) {
            table.LinkHolder(id, addr);
          }
        }
        (void)table.FindLocked(id);
        (void)table.PtrId(obj.get());
        if (i % 3 == 0) {
          // Record mutators need the covering shard guard, like Emplace.
          ObjectTable::ShardGuard guard(table, id);
          table.EraseMaster(id);
        }
        if (i % 64 == 0) {
          std::size_t count = 0;
          table.ForEachMaster([&count](ObjectId, const MasterEntry&) { ++count; });
          (void)count;
        }
        if (i % 128 == 0) {
          ObjectTable::WorldGuard world(table);
          EXPECT_TRUE(table.CheckConsistency());
        }
      }
      table.RemoveHolderEverywhere(addr);
    });
  }
  for (std::thread& w : workers) w.join();
  ObjectTable::WorldGuard world(table);
  EXPECT_TRUE(table.CheckConsistency());
  EXPECT_EQ(table.replica_count(), 0u);
}

// Many threads export one fresh object at once: the identity slot's claim
// makes them agree on one id, and the losers' minted ids never become
// records (TSan flavour in CI).
TEST(ObjectTableTest, RacingExportsAgreeOnOneId) {
  constexpr int kThreads = 8;
  constexpr int kObjects = 64;
  net::LoopbackNetwork network;
  core::Site site(1, network.CreateEndpoint("s"));
  std::vector<std::shared_ptr<Node>> objects;
  for (int i = 0; i < kObjects; ++i) objects.push_back(std::make_shared<Node>());
  std::vector<std::vector<ObjectId>> ids(kThreads,
                                         std::vector<ObjectId>(kObjects));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kObjects; ++i) ids[t][i] = site.Export(objects[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(ids[0][i].valid());
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]) << "object " << i << ", thread " << t;
    }
  }
  EXPECT_EQ(site.master_count(), static_cast<std::size_t>(kObjects));
  EXPECT_TRUE(site.CheckTableConsistency());
}

// ---------------------------------------------------------------------------
// Site-level: snapshots and a real-socket soak over the sharded table
// ---------------------------------------------------------------------------

// An object belongs to at most one site of a process. A second site's Bind
// or Rebind of an object the first holds is refused, and it succeeds once
// the first site is gone.
TEST(ObjectTableIdentity, SecondSiteBindIsRefusedUntilTheFirstIsDestroyed) {
  net::LoopbackNetwork network;
  core::Site registry(1, network.CreateEndpoint("r"));
  ASSERT_TRUE(registry.Start().ok());
  registry.HostRegistry();
  auto first = std::make_unique<core::Site>(2, network.CreateEndpoint("a"));
  core::Site second(3, network.CreateEndpoint("b"));
  first->UseRegistry("r");
  second.UseRegistry("r");

  auto obj = std::make_shared<Node>();
  ASSERT_TRUE(first->Bind("at-a", obj).ok());
  EXPECT_EQ(second.Bind("at-b", obj).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(second.Rebind("at-b", obj).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(second.Export(obj).valid());
  EXPECT_EQ(second.master_count(), 0u);

  first.reset();
  EXPECT_TRUE(second.Bind("at-b", obj).ok());
  EXPECT_EQ(second.master_count(), 1u);
  EXPECT_TRUE(second.CheckTableConsistency());
}

// A get whose batch links to an object another site holds cannot name that
// object: the provider fails the get with kFailedPrecondition instead of
// retrying, and the demander sees that status.
TEST(ObjectTableIdentity, GetLinkingAnObjectOfAnotherSiteFails) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site other(2, network.CreateEndpoint("o"));
  core::Site demander(3, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(4, 8, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto foreign = std::make_shared<Node>();
  ASSERT_TRUE(other.Export(foreign).valid());
  head->next.get()->next = core::Ref<Node>(foreign);

  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto ref = remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kFailedPrecondition) << ref.status();
  EXPECT_EQ(demander.replica_count(), 0u);
  EXPECT_FALSE(provider.Export(foreign).valid());
  EXPECT_TRUE(provider.CheckTableConsistency());

  // With the link gone the same get goes through.
  head->next.get()->next.Reset();
  EXPECT_TRUE(remote->Replicate(ReplicationMode::Incremental(4)).ok());
}

// A node whose reference field counts its reads and can relink itself on
// one, so a test sees how often a get reads the field and what a relink in
// the middle of a get does, without a second thread. While `relink_to` is
// set, the field reads as before `reads_before_relink` times; the read after
// that first points it at `relink_to`. `on_read`, if set, runs on every read
// (a provider's walk reads under its guard).
class Relinking : public core::Shareable {
 public:
  static constexpr std::string_view kObiwanClassName = "Relinking";

  static const core::ClassInfo& Class() {
    static const core::ClassInfo info(
        std::string(kObiwanClassName), [] { return std::make_shared<Relinking>(); },
        {{"value",
          [](const core::Shareable& obj, wire::Writer& w) {
            wire::Encode(w, static_cast<const Relinking&>(obj).value);
          },
          [](core::Shareable& obj, wire::Reader& r) {
            static_cast<Relinking&>(obj).value = wire::Decode<std::int64_t>(r);
          }}},
        {{"next",
          [](core::Shareable& obj) -> core::RefBase& {
            return static_cast<Relinking&>(obj).Read();
          },
          [](const core::Shareable& obj) -> const core::RefBase& {
            // The objects are made non-const; the test relinks on read.
            return const_cast<Relinking&>(static_cast<const Relinking&>(obj))
                .Read();
          }}},
        {});
    return info;
  }
  const core::ClassInfo& obiwan_class() const override { return Class(); }

  std::int64_t value = 0;
  core::Ref<Relinking> next;
  std::shared_ptr<Relinking> relink_to;
  int reads_before_relink = 0;
  std::atomic<int> reads{0};
  std::function<void()> on_read;

 private:
  core::RefBase& Read() {
    reads.fetch_add(1, std::memory_order_relaxed);
    if (on_read) on_read();
    if (relink_to != nullptr && reads_before_relink-- == 0) {
      next = std::exchange(relink_to, nullptr);
    }
    return next;
  }
};

// A field relinked on the walk's own read to an object with no id yet: the
// walk names the new target under its guard and sends it as a boundary
// proxy under that id, which the demander can fault through. The target
// the field held before the read is never named.
TEST(ObjectTableIdentity, FieldRelinkedOnTheWalksReadIsNamedAndPinned) {
  core::ClassRegistry::Instance().Register(&Relinking::Class());
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto root = std::make_shared<Relinking>();
  auto walked = std::make_shared<Relinking>();
  walked->value = 1;
  root->next = walked;
  ASSERT_TRUE(provider.Bind("root", root).ok());
  auto remote = demander.Lookup<Relinking>("root");
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto fresh = std::make_shared<Relinking>();
  fresh->value = 2;
  root->relink_to = fresh;
  root->reads_before_relink = 0;  // the walk's own read
  auto ref = remote->Replicate(ReplicationMode::Incremental(1));
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(root->relink_to, nullptr);
  // The get named the new target: the root and it are the two masters.
  EXPECT_EQ(provider.master_count(), 2u);
  const ObjectId fresh_id = provider.Export(fresh);
  ASSERT_TRUE(fresh_id.valid());
  EXPECT_EQ(provider.master_count(), 2u);
  EXPECT_EQ(demander.replica_count(), 1u);

  core::Ref<Relinking>& next = (*ref)->next;
  ASSERT_TRUE(next.IsProxy());
  EXPECT_EQ(next.id(), fresh_id);
  ASSERT_TRUE(next.Demand().ok());
  EXPECT_EQ(next->value, 2);
  EXPECT_TRUE(provider.CheckTableConsistency());
  EXPECT_TRUE(demander.CheckTableConsistency());
}

// A get reads each reference field of its batch once: the walk's read is
// the one the reply is encoded from. A chain root -> mid -> tail at
// Incremental(2) reads root and mid, never the boundary tail; a refresh of
// the root and a push of it read the root once more each.
TEST(ObjectTableIdentity, GetReadsEachReferenceFieldOnce) {
  core::ClassRegistry::Instance().Register(&Relinking::Class());
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto root = std::make_shared<Relinking>();
  auto mid = std::make_shared<Relinking>();
  auto tail = std::make_shared<Relinking>();
  root->next = mid;
  mid->next = tail;
  ASSERT_TRUE(provider.Bind("root", root).ok());
  auto remote = demander.Lookup<Relinking>("root");
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto ref = remote->Replicate(ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(root->reads.load(), 1);
  EXPECT_EQ(mid->reads.load(), 1);
  EXPECT_EQ(tail->reads.load(), 0);

  ASSERT_TRUE(demander.Refresh(*ref).ok());
  EXPECT_EQ(root->reads.load(), 2);
  EXPECT_EQ(mid->reads.load(), 1);

  provider.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());
  ASSERT_TRUE(provider.MarkMasterUpdated(remote->id()).ok());
  EXPECT_EQ(root->reads.load(), 3);
  EXPECT_EQ(mid->reads.load(), 1);
  EXPECT_EQ(tail->reads.load(), 0);
  EXPECT_EQ(*demander.ReplicaVersion(*ref),
            *provider.MasterVersion(remote->id()));
  EXPECT_TRUE(provider.CheckTableConsistency());
}

// Two gets whose walks meet the same two shards in opposite orders. Each
// walk grows its guard as it goes, so one of them finds the lower shard
// taken while it holds the higher: its try fails, it lets go of both,
// relocks them in ascending order and walks again. A writer relinks the
// roots under WithObjectLock, sometimes to an object no get has named yet,
// and an evictor takes the world on both sites, while the gets repeat. Run
// under TSan in tools/ci.sh: no race and no lock-order report.
TEST(ObjectTableGuard, InvertedShardOrderRestartsTheWalkWithoutDeadlock) {
  using Clock = std::chrono::steady_clock;
  constexpr int kGets = 300;
  core::ClassRegistry::Instance().Register(&Relinking::Class());
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  // Masters in a low shard and a high one: graph A runs high -> low, graph
  // B low -> high, each root with two children to alternate between.
  std::vector<std::vector<std::shared_ptr<Relinking>>> by_shard(
      ObjectTable::kShardCount);
  for (int i = 0; i < 512; ++i) {
    auto obj = std::make_shared<Relinking>();
    const ObjectId id = provider.Export(obj);
    ASSERT_TRUE(id.valid());
    by_shard[ObjectTable::ShardOf(id)].push_back(std::move(obj));
  }
  std::size_t low = 0;
  std::size_t high = ObjectTable::kShardCount - 1;
  while (by_shard[low].size() < 3) ++low;
  while (by_shard[high].size() < 3) --high;
  ASSERT_LT(low, high);
  struct Graph {
    std::shared_ptr<Relinking> root;
    std::shared_ptr<Relinking> children[2];
  };
  const Graph a{by_shard[high][0], {by_shard[low][1], by_shard[low][2]}};
  const Graph b{by_shard[low][0], {by_shard[high][1], by_shard[high][2]}};
  for (const Graph* g : {&a, &b}) {
    g->children[0]->value = 11;
    g->children[1]->value = 12;
    g->root->next = g->children[0];
  }
  ASSERT_TRUE(provider.Bind("a", a.root).ok());
  ASSERT_TRUE(provider.Bind("b", b.root).ok());
  auto remote_a = demander.Lookup<Relinking>("a");
  auto remote_b = demander.Lookup<Relinking>("b");
  ASSERT_TRUE(remote_a.ok()) << remote_a.status();
  ASSERT_TRUE(remote_b.ok()) << remote_b.status();

  // A get, checked: it succeeds, and its replicas hold values some writer
  // stored (a root 0 or a relinker's 100 + i, a child 11 or 12).
  std::atomic<int> bad_values{0};
  auto get = [&](const core::RemoteRef<Relinking>& remote) -> Status {
    OBIWAN_ASSIGN_OR_RETURN(core::Ref<Relinking> ref,
                            remote.Replicate(ReplicationMode::Incremental(2)));
    demander.WithObjectLock(ref, [&] {
      const std::int64_t root_value = ref->value;
      const core::Ref<Relinking>& next = ref->next;
      const bool root_ok = root_value == 0 || root_value >= 100;
      const bool child_ok = next.IsLocal() && (next.get()->value == 11 ||
                                                next.get()->value == 12);
      if (!root_ok || !child_ok) bad_values.fetch_add(1);
    });
    return Status::Ok();
  };

  // Round one, alone: each root's first read waits for the other's, so
  // each walk holds its root's shard when it reaches its child. The walk
  // of A holds the high shard and tries the low one, which B holds: the
  // try fails, and A walks again once B is through.
  std::atomic<int> met{0};
  auto meet = [&met] {
    if (met.fetch_add(1) >= 2) return;
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (met.load() < 2 && Clock::now() < give_up) std::this_thread::yield();
  };
  a.root->on_read = meet;
  b.root->on_read = meet;
  Status first_a;
  Status first_b;
  std::thread ta([&] { first_a = get(*remote_a); });
  std::thread tb([&] { first_b = get(*remote_b); });
  ta.join();
  tb.join();
  ASSERT_TRUE(first_a.ok()) << first_a;
  ASSERT_TRUE(first_b.ok()) << first_b;
  EXPECT_EQ(a.root->reads.load(), 2) << "A's walk did not restart";
  EXPECT_EQ(b.root->reads.load(), 1);

  // Then the race: both getters repeat, a writer relinks, an evictor takes
  // the world. A deadlock would stop the clock here.
  std::atomic<bool> getting{true};
  std::atomic<int> finished{0};
  std::vector<Status> failures(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      const core::RemoteRef<Relinking>& remote = g == 0 ? *remote_a : *remote_b;
      for (int i = 0; i < kGets && failures[g].ok(); ++i) {
        failures[g] = get(remote);
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; finished.load() < 2; ++i) {
      for (const Graph* g : {&a, &b}) {
        // Every eighth relink points at an object no get has named yet.
        std::shared_ptr<Relinking> target = g->children[i % 2];
        if (i % 8 == 7) {
          target = std::make_shared<Relinking>();
          target->value = 11;
        }
        provider.WithObjectLock(provider.Export(g->root), [&] {
          g->root->value = 100 + i;
          g->root->next = target;
        });
      }
      std::this_thread::yield();
    }
    finished.fetch_add(1);
  });
  threads.emplace_back([&] {
    while (finished.load() < 3) {
      (void)provider.EvictIdleReplicas();
      (void)demander.EvictIdleReplicas();
      std::this_thread::yield();
    }
    finished.fetch_add(1);
  });
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (finished.load() < 4) {
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "ObjectTableGuard: no progress by the deadline\n");
      std::abort();  // the threads cannot be joined
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(failures[0].ok()) << failures[0];
  EXPECT_TRUE(failures[1].ok()) << failures[1];
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_TRUE(provider.CheckTableConsistency());
  EXPECT_TRUE(demander.CheckTableConsistency());
}

// The OBI2 snapshot format round-trips over the sharded table, and the
// restore rebuilds the derived state the old code kept in separate maps:
// pointer identity (Export of a restored object returns its restored id,
// not a fresh mint) and holder registrations/health.
TEST(ObjectTableSnapshot, Obi2RoundTripRebuildsPtrIdentityAndHolders) {
  net::LoopbackNetwork network;
  auto provider = std::make_unique<core::Site>(1, network.CreateEndpoint("p"));
  ASSERT_TRUE(provider->Start().ok());
  provider->HostRegistry();
  provider->SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry("p");

  auto head = test::MakeChain(12, 32, "n");
  ASSERT_TRUE(provider->Bind("list", head).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(12));
  ASSERT_TRUE(ref.ok());
  const ObjectId head_id = remote->id();

  // A put bumps versions so the round trip has non-trivial state to keep.
  (*ref)->SetValue(42);
  ASSERT_TRUE(demander.Put(*ref).ok());

  auto snapshot = provider->SaveSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  provider->Stop();
  provider.reset();

  core::Site reborn(1, network.CreateEndpoint("p"));
  ASSERT_TRUE(reborn.LoadSnapshot(AsView(*snapshot)).ok());
  ASSERT_TRUE(reborn.Start().ok());
  reborn.SetConsistencyPolicy(std::make_unique<consistency::WriteInvalidate>());
  EXPECT_EQ(reborn.master_count(), 12u);

  // Pointer identity was rebuilt: exporting the restored head resolves to
  // the id it was saved under instead of minting a new one.
  auto restored_head = reborn.FindLocal(head_id);
  ASSERT_TRUE(restored_head.ok());
  EXPECT_EQ(reborn.Export(*restored_head), head_id);
  auto version = reborn.MasterVersion(head_id);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 2u);

  // Holder registrations survived: the demander is still fanned out to.
  ASSERT_TRUE(reborn.MarkMasterUpdated(head_id).ok());
  EXPECT_TRUE(demander.IsStale(*ref));
  ASSERT_TRUE(demander.Refresh(*ref).ok());
  EXPECT_EQ(*demander.ReplicaVersion(*ref), *reborn.MasterVersion(head_id));
}

// A fault costs its batch, not the table: one Incremental(16) object fault
// takes the same bounded number of site.shard acquisitions, across both
// sites, whether 32 or 1952 replicas are resident. The provider's walk takes
// each of its batch's shards once, and names a boundary target under the
// same guard; the demander takes one for the fault's shortcut, one for the
// next boundary's target and its batch's. A single sweep of the 64 shards
// on any protocol step of either site, or a second pass over the batch,
// would break the bound. The leaf locks are taken once per batch, not once
// per object: the site mutex for the holder-health reset, and the pins mutex
// for the pin check and for minting every boundary and per-object pin.
TEST(ObjectTableCost, FaultShardLocksScaleWithTheBatchNotTheTable) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  auto head = test::MakeChain(2048, 8, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(16));
  ASSERT_TRUE(ref.ok());

  auto acquisitions = [](const char* lock) {
    return MetricsRegistry::Default().SumCounters(
        "obiwan_lock_acquisitions_total", {{"name", lock}});
  };
  int measured = 0;
  for (core::Ref<Node>* cursor = &*ref; !cursor->IsEmpty();
       cursor = &cursor->get()->next) {
    if (!cursor->IsProxy()) continue;
    const std::size_t resident = demander.replica_count();
    const std::uint64_t shard_before = acquisitions("site.shard");
    const std::uint64_t site_before = acquisitions("site");
    const std::uint64_t pins_before = acquisitions("site.pins");
    ASSERT_TRUE(cursor->Demand().ok());
    const std::uint64_t shard_cost = acquisitions("site.shard") - shard_before;
    const std::uint64_t site_cost = acquisitions("site") - site_before;
    const std::uint64_t pins_cost = acquisitions("site.pins") - pins_before;
    if (resident == 32 || resident == 1952) {
      EXPECT_LE(shard_cost, 40u) << resident << " replicas resident";
      EXPECT_LE(site_cost, 1u) << resident << " replicas resident";
      EXPECT_LE(pins_cost, 2u) << resident << " replicas resident";
      ++measured;
    }
  }
  EXPECT_EQ(measured, 2);
  EXPECT_EQ(demander.replica_count(), 2048u);
}

// Real-socket soak (TSan flavour in CI): four threads hammer the sharded
// table through its public faces at once — provider-side fanout
// (MarkMasterUpdated, with a dead holder so the drop path runs), demander
// refresh/put traffic, introspection sweeps (Inspect / eviction) and
// shard-guarded local reads.
TEST(ObjectTableTcpSoak, GetPutDropInspectRace) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  provider.SetConsistencyPolicy(
      std::make_unique<consistency::WriteInvalidate>());

  auto head = test::MakeChain(8, 32, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  const ObjectId oid = provider.Export(head);

  auto live_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(live_transport.ok());
  core::Site live(2, std::move(*live_transport));
  ASSERT_TRUE(live.Start().ok());
  live.UseRegistry(provider.address());
  auto remote = live.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(8));
  ASSERT_TRUE(ref.ok()) << ref.status();

  // A holder that dies after registering: its notifications fail, so the
  // drop path (holder health, RemoveHolderEverywhere, retry purge) runs
  // concurrently with everything else.
  {
    auto dead_transport = net::TcpTransport::Create(0);
    ASSERT_TRUE(dead_transport.ok());
    auto dead = std::make_unique<core::Site>(3, std::move(*dead_transport));
    ASSERT_TRUE(dead->Start().ok());
    dead->UseRegistry(provider.address());
    auto dead_remote = dead->Lookup<Node>("list");
    ASSERT_TRUE(dead_remote.ok());
    auto dead_ref = dead_remote->Replicate(ReplicationMode::Incremental(1));
    ASSERT_TRUE(dead_ref.ok());
    dead->Stop();
  }

  std::atomic<int> puts_ok{0};
  std::thread marker([&] {
    for (int i = 0; i < 16; ++i) {
      (void)provider.MarkMasterUpdated(oid);
      (void)provider.PumpNotifyRetries();
    }
  });
  std::thread refresher([&] {
    for (int i = 0; i < 24; ++i) {
      (void)live.Refresh(*ref);
      (void)live.ReplicaVersion(*ref);
      (void)live.IsStale(*ref);
    }
  });
  std::thread inspector([&] {
    for (int i = 0; i < 12; ++i) {
      (void)provider.Inspect();
      (void)live.Inspect();
      (void)live.EvictIdleReplicas();
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < 8; ++i) {
      // Racing MarkMasterUpdated means a put may lose the version race and
      // be (correctly) rejected — refresh first to keep most attempts live.
      (void)live.Refresh(*ref);
      live.WithObjectLock(*ref, [&] { (*ref)->value = i; });
      if (live.Put(*ref).ok()) puts_ok.fetch_add(1);
    }
  });
  marker.join();
  refresher.join();
  inspector.join();
  writer.join();

  EXPECT_GE(provider.telemetry().holders_dropped->Value(), 1u);
  EXPECT_EQ(provider.pending_notify_retries(), 0u);

  // The surviving holder still converges and writes after the storm.
  ASSERT_TRUE(live.Refresh(*ref).ok());
  live.WithObjectLock(*ref, [&] { (*ref)->value = 999; });
  ASSERT_TRUE(live.Put(*ref).ok());
  puts_ok.fetch_add(1);
  EXPECT_GE(puts_ok.load(), 1);
  EXPECT_EQ(*live.ReplicaVersion(*ref), *provider.MasterVersion(oid));

  live.Stop();
  provider.Stop();
}

// SetConsistencyPolicy takes no table lock: it publishes the new policy while
// gets and puts on the provider's connection threads call hooks on whichever
// policy they loaded, and keeps every replaced one alive (TSan flavour in CI).
TEST(ObjectTableTcpSoak, PolicySwapRacesGetsAndPuts) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  auto head = test::MakeChain(4, 32, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());

  auto demander_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(demander_transport.ok());
  core::Site demander(2, std::move(*demander_transport));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry(provider.address());
  auto remote = demander.Lookup<Node>("list");
  ASSERT_TRUE(remote.ok());
  auto ref = remote->Replicate(ReplicationMode::Incremental(4));
  ASSERT_TRUE(ref.ok()) << ref.status();

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    for (int i = 0; !done.load(); ++i) {
      if (i % 2 == 0) {
        provider.SetConsistencyPolicy(std::make_unique<core::PushUpdates>());
      } else {
        provider.SetConsistencyPolicy(std::make_unique<core::NoConsistency>());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  int synced = 0;
  for (int i = 0; i < 24; ++i) {
    (*ref)->value = i;
    if (demander.Put(*ref).ok() && demander.Refresh(*ref).ok()) ++synced;
  }
  done.store(true);
  swapper.join();

  // Neither policy rejects a put, so every round trip went through.
  EXPECT_EQ(synced, 24);
  EXPECT_EQ((*ref)->value, 23);
  demander.Stop();
  provider.Stop();
}

// Two threads of one demander fault the same chain at once, each through its
// own Lookup, so their batches overlap and race to install the same masters.
// The identity map must keep one replica per master: both walks see the same
// object at every node. Neither thread patches a shared Ref (that would be an
// unsynchronized write to a replica both walk); each reads the next link under
// the object's shard lock and faults through the proxy itself. No world
// guard is taken, so TSan runs this without the deadlock detector's 64-lock
// limit getting in the way.
TEST(ObjectTableTcpSoak, ConcurrentFaultsKeepOneReplicaPerMaster) {
  constexpr int kNodes = 256;
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  core::Site provider(1, std::move(*provider_transport));
  ASSERT_TRUE(provider.Start().ok());
  provider.HostRegistry();
  ASSERT_TRUE(provider.Bind("chain", test::MakeChain(kNodes, 64, "n")).ok());

  auto demander_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(demander_transport.ok());
  core::Site demander(2, std::move(*demander_transport));
  ASSERT_TRUE(demander.Start().ok());
  demander.UseRegistry(provider.address());

  auto walk = [&](std::vector<const core::Shareable*>& seen) -> Status {
    OBIWAN_ASSIGN_OR_RETURN(auto remote, demander.Lookup<Node>("chain"));
    OBIWAN_ASSIGN_OR_RETURN(auto root,
                            remote.Replicate(ReplicationMode::Incremental(16)));
    std::shared_ptr<core::Shareable> obj = root.local();
    while (obj != nullptr) {
      seen.push_back(obj.get());
      core::Ref<Node> handle(std::static_pointer_cast<Node>(obj));
      std::shared_ptr<core::Shareable> local;
      std::shared_ptr<core::ProxyOut> proxy;
      demander.WithObjectLock(handle, [&] {
        const core::Ref<Node>& next = static_cast<Node&>(*obj).next;
        local = next.local();
        proxy = next.proxy();
      });
      if (local == nullptr && proxy != nullptr) {
        OBIWAN_ASSIGN_OR_RETURN(local, proxy->Demand());
      }
      obj = std::move(local);
    }
    return Status::Ok();
  };

  std::vector<const core::Shareable*> seen_a;
  std::vector<const core::Shareable*> seen_b;
  Status status_a;
  Status status_b;
  std::thread a([&] { status_a = walk(seen_a); });
  std::thread b([&] { status_b = walk(seen_b); });
  a.join();
  b.join();

  ASSERT_TRUE(status_a.ok()) << status_a;
  ASSERT_TRUE(status_b.ok()) << status_b;
  ASSERT_EQ(seen_a.size(), static_cast<std::size_t>(kNodes));
  ASSERT_EQ(seen_b.size(), static_cast<std::size_t>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(seen_a[i], seen_b[i]) << "node " << i;
  }
  EXPECT_EQ(demander.replica_count(), static_cast<std::size_t>(kNodes));

  demander.Stop();
  provider.Stop();
}

}  // namespace
}  // namespace obiwan
