// An object fault allocates what it materializes. This binary replaces the
// global operator new and delete to count allocations, so it holds only this
// test: two sites over LoopbackNetwork (both counted, since both run on the
// faulting thread) walk a 1,024-node chain at Incremental(16) after a warm-up
// walk and an eviction, and each fault stays within a fixed allocation
// budget. Most of that budget is the 16 replicas themselves (the object and
// its payload each); the rest is per-replica bookkeeping on both sites, the
// cost a limited-memory device pays for every object it holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "obiwan.h"
#include "test_objects.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The library's array forms forward to these. Not inlined: GCC would then
// see free() meet a pointer from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace obiwan {
namespace {

using core::ReplicationMode;
using test::Node;

constexpr int kNodes = 1024;
constexpr std::uint32_t kBatch = 16;
// Allocations per steady-state fault, both sites together, as measured with
// GCC 12's libstdc++: 32 for the 16 replicas (each object and its payload),
// 16 shard-index nodes, the proxy-out for the next boundary, and 15 scratch
// buffers, each sized once (the request and its envelope; the provider's
// batch vectors, walk queue, pins and reply; the demander's reply views and
// materialize scratch). It was 125 when pointer identity lived in
// per-table maps and the batch's scratch grew as it filled.
constexpr std::size_t kAllocationsPerFault = 64;

struct WalkCost {
  int faults = 0;
  std::size_t max_allocations = 0;
  std::size_t total_allocations = 0;
};

// Faults the chain from `head` to its end, counting each fault's
// allocations on its own.
WalkCost Walk(core::Ref<Node>& head) {
  WalkCost cost;
  for (core::Ref<Node>* cursor = &head; !cursor->IsEmpty();
       cursor = &cursor->get()->next) {
    if (!cursor->IsProxy()) continue;
    g_allocations.store(0);
    g_counting.store(true);
    const Status status = cursor->Demand();
    g_counting.store(false);
    EXPECT_TRUE(status.ok()) << status;
    if (!status.ok()) break;
    ++cost.faults;
    cost.total_allocations += g_allocations.load();
    cost.max_allocations = std::max(cost.max_allocations, g_allocations.load());
  }
  return cost;
}

TEST(FaultAllocations, SteadyStateIncrementalFaultStaysWithinBudget) {
  net::LoopbackNetwork network;
  core::Site provider(1, network.CreateEndpoint("p"));
  core::Site demander(2, network.CreateEndpoint("d"));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");
  ASSERT_TRUE(provider.Bind("chain", test::MakeChain(kNodes, 1024, "n")).ok());
  auto remote = demander.Lookup<Node>("chain");
  ASSERT_TRUE(remote.ok()) << remote.status();

  // Warm-up: the provider mints every pin and registers the demander as a
  // holder of every node, and both sites' tables reach their working size.
  {
    auto head = remote->Replicate(ReplicationMode::Incremental(kBatch));
    ASSERT_TRUE(head.ok()) << head.status();
    const WalkCost warm = Walk(*head);
    EXPECT_EQ(warm.faults, kNodes / static_cast<int>(kBatch) - 1);
    EXPECT_EQ(demander.replica_count(), static_cast<std::size_t>(kNodes));
  }
  EXPECT_EQ(demander.EvictIdleReplicas(), static_cast<std::size_t>(kNodes));

  auto head = remote->Replicate(ReplicationMode::Incremental(kBatch));
  ASSERT_TRUE(head.ok()) << head.status();
  const WalkCost cost = Walk(*head);
  ASSERT_EQ(cost.faults, kNodes / static_cast<int>(kBatch) - 1);
  EXPECT_EQ(demander.replica_count(), static_cast<std::size_t>(kNodes));
  EXPECT_LE(cost.max_allocations, kAllocationsPerFault)
      << "mean " << cost.total_allocations / cost.faults << " per fault";
}

}  // namespace
}  // namespace obiwan
