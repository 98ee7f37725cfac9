// The sharded object table (PR 8): record lifecycle, pointer-identity
// symmetry, the holder index, guard semantics — plus site-level coverage
// that the OBI2 snapshot format round-trips over the sharded table and a
// real-socket soak that hammers get/put/drop/inspect concurrently (runs
// under TSan in tools/ci.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
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

// ---------------------------------------------------------------------------
// Site-level: snapshots and a real-socket soak over the sharded table
// ---------------------------------------------------------------------------

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
// sites, whether 32 or 1952 replicas are resident. A single sweep of the
// 64 shards on any protocol step of either site would break the bound.
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

  auto shard_acquisitions = [] {
    return MetricsRegistry::Default().SumCounters(
        "obiwan_lock_acquisitions_total", {{"name", "site.shard"}});
  };
  int measured = 0;
  for (core::Ref<Node>* cursor = &*ref; !cursor->IsEmpty();
       cursor = &cursor->get()->next) {
    if (!cursor->IsProxy()) continue;
    const std::size_t resident = demander.replica_count();
    const std::uint64_t before = shard_acquisitions();
    ASSERT_TRUE(cursor->Demand().ok());
    const std::uint64_t cost = shard_acquisitions() - before;
    if (resident == 32 || resident == 1952) {
      EXPECT_LT(cost, 128u) << resident << " replicas resident";
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

  EXPECT_GE(provider.stats().holders_dropped, 1u);
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

}  // namespace
}  // namespace obiwan
