// Arena + TailVec unit coverage and the arena epoch contract end to end:
// spilled composite tails draw from the ambient plan arena, recycled blocks
// are reused, callback-side copies are suspended onto the global heap so
// they may outlive the plan, and engine churn (ChainMigrator splits and
// drain-flush rebuilds) never leaves a result pointing into a dead arena.
#include "src/common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;

TEST(ArenaTest, AllocatesAlignedBlocksAndCounts) {
  Arena arena;
  void* p = arena.Allocate(40);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  EXPECT_EQ(arena.blocks_outstanding(), 1u);
  EXPECT_EQ(arena.total_allocations(), 1u);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  std::memset(p, 0xab, 40);  // the block must be writable end to end
  arena.Deallocate(p, 40);
  EXPECT_EQ(arena.blocks_outstanding(), 0u);
}

TEST(ArenaTest, RecyclesFreedBlocksBySizeClass) {
  Arena arena;
  void* small = arena.Allocate(40);    // class 64
  void* large = arena.Allocate(200);   // class 256
  arena.Deallocate(small, 40);
  arena.Deallocate(large, 200);
  const size_t reserved = arena.bytes_reserved();
  // Same-class requests pop the freelist (LIFO) instead of bumping the
  // chunk: the exact blocks come back and no new chunk bytes are reserved.
  EXPECT_EQ(arena.Allocate(60), small);   // any size in class 64
  EXPECT_EQ(arena.Allocate(129), large);  // any size in class 256
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.total_allocations(), 4u);
}

TEST(ArenaTest, ChunksGrowUntilRequestsFit) {
  Arena arena;
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) blocks.push_back(arena.Allocate(256));
  EXPECT_GE(arena.bytes_reserved(), 1000u * 256u);
  EXPECT_EQ(arena.blocks_outstanding(), 1000u);
  for (void* b : blocks) arena.Deallocate(b, 256);
  EXPECT_EQ(arena.blocks_outstanding(), 0u);
  // Epoch reclamation: chunk bytes stay reserved until the arena dies.
  EXPECT_GE(arena.bytes_reserved(), 1000u * 256u);
}

TEST(ArenaScopeTest, NestsAndSuspends) {
  EXPECT_EQ(CurrentArena(), nullptr);
  Arena outer_arena, inner_arena;
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(CurrentArena(), &outer_arena);
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(CurrentArena(), &inner_arena);
      {
        // nullptr suspends: copies fall back to the global heap.
        ArenaScope suspend(nullptr);
        EXPECT_EQ(CurrentArena(), nullptr);
      }
      EXPECT_EQ(CurrentArena(), &inner_arena);
    }
    EXPECT_EQ(CurrentArena(), &outer_arena);
  }
  EXPECT_EQ(CurrentArena(), nullptr);
}

TEST(TailVecTest, SpillDrawsFromAmbientArenaAndReturnsBlock) {
  Arena arena;
  {
    ArenaScope scope(&arena);
    TailVec v;
    for (uint32_t i = 0; i < TailVec::kInlineCapacity; ++i) {
      v.push_back(A(i, 1.0));
    }
    EXPECT_FALSE(v.spilled());
    EXPECT_EQ(arena.blocks_outstanding(), 0u);  // inline: no arena traffic
    v.push_back(A(99, 2.0));
    EXPECT_TRUE(v.spilled());
    EXPECT_EQ(arena.blocks_outstanding(), 1u);
    EXPECT_EQ(v[2].seq, 99u);
  }
  // Destruction returned the spill block to the arena's freelist.
  EXPECT_EQ(arena.blocks_outstanding(), 0u);
}

TEST(TailVecTest, CopyUnderSuspendedScopeGoesToGlobalHeap) {
  Arena arena;
  ArenaScope scope(&arena);
  TailVec source;
  for (uint32_t i = 0; i < 5; ++i) source.push_back(A(i, 1.0));
  ASSERT_TRUE(source.spilled());
  const size_t arena_blocks = arena.blocks_outstanding();
  {
    ArenaScope suspend(nullptr);
    TailVec copy(source);  // heap-backed: must not touch the arena
    EXPECT_EQ(arena.blocks_outstanding(), arena_blocks);
    ASSERT_EQ(copy.size(), 5u);
    EXPECT_EQ(copy[4].seq, 4u);
  }
  EXPECT_EQ(arena.blocks_outstanding(), arena_blocks);
}

TEST(TailVecTest, CrossThreadDestructionReturnsToOwningArena) {
  Arena arena;
  TailVec v;
  {
    ArenaScope scope(&arena);
    for (uint32_t i = 0; i < 5; ++i) v.push_back(A(i, 1.0));
  }
  ASSERT_TRUE(v.spilled());
  ASSERT_EQ(arena.blocks_outstanding(), 1u);
  // A TailVec remembers its owning arena: destroying it on another thread
  // (with no ambient scope there) must return the block to `arena`.
  std::thread t([moved = std::move(v)]() mutable { moved.clear(); });
  t.join();
  EXPECT_EQ(arena.blocks_outstanding(), 0u);
}

TEST(TailVecTest, MoveTransfersSpilledBlockWithoutArenaTraffic) {
  Arena arena;
  ArenaScope scope(&arena);
  TailVec v;
  for (uint32_t i = 0; i < 5; ++i) v.push_back(A(i, 1.0));
  const Tuple* block = v.data();
  TailVec moved(std::move(v));
  EXPECT_EQ(moved.data(), block);  // block ownership transferred
  EXPECT_TRUE(v.empty());          // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(v.spilled());       // moved-from: safe to reuse or drop
  EXPECT_EQ(arena.blocks_outstanding(), 1u);
}

// Subscription callbacks copy composite results out of the engine. Those
// copies must stay valid across mid-stream churn (drain-flush rebuilds on
// a multi-level tree replace the plan *and its arena*) and after the
// engine itself is gone — QuerySink suspends the arena scope, so
// callback-side copies are heap-backed.
TEST(ArenaLifetimeTest, CallbackCopiesSurviveChurnRebuildsAndEngineDeath) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 10;
  spec.duration_s = 10;
  spec.join_selectivity = 0.12;  // keeps the 4-level result fan-out modest
  const MultiWorkload workload = GenerateMultiWorkload(spec, 5);
  const std::vector<Tuple> merged = MergedArrivals(workload);

  std::vector<JoinResult> copies;  // outlives the engine
  uint64_t delivered = 0;
  {
    Engine::Options eopt;
    eopt.condition = workload.condition;
    Engine engine(eopt);

    ContinuousQuery five;
    five.name = "Q5way";
    five.window = WindowSpec::TimeSeconds(1);
    five.stream_names = {"A", "B", "C", "D", "E"};  // tails spill (3 > 2)
    const QueryHandle q = engine.RegisterQuery(five);
    ASSERT_TRUE(q.valid()) << engine.last_error();
    engine.Subscribe(q, [&copies](const JoinResult& r) {
      copies.push_back(r);  // deep copy under the suspended scope
    });

    // Feed with churn pulses: registering/unregistering a binary query on
    // a multi-level tree forces the drain-flush-rebuild path, destroying
    // the old plan (and its arena) mid-stream.
    QueryHandle extra;
    const size_t third = merged.size() / 3;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (i == third) {
        ContinuousQuery binary;
        binary.name = "Qbin";
        binary.window = WindowSpec::TimeSeconds(1);
        extra = engine.RegisterQuery(binary);
        ASSERT_TRUE(extra.valid()) << engine.last_error();
      } else if (i == 2 * third) {
        ASSERT_TRUE(engine.UnregisterQuery(extra));
      }
      engine.Push(merged[i].side, merged[i]);
    }
    engine.Finish();
    delivered = engine.ResultCount(q);
  }  // engine (and every plan arena it owned) destroyed here

  EXPECT_EQ(copies.size(), delivered);
  EXPECT_GT(copies.size(), 0u) << "workload produced no 5-way results; "
                                  "raise rates or the window";
  for (const JoinResult& r : copies) {
    ASSERT_EQ(r.size(), 5);
    ASSERT_EQ(r.tail.size(), 3u);
    for (int part = 0; part < 5; ++part) {
      // Constituents are FROM-list ordered; reading them exercises the
      // (heap-backed) tail storage after every arena is gone.
      EXPECT_EQ(r.part(part).side, static_cast<StreamId>(part));
    }
  }
}

// The in-place ChainMigrator path (binary selection-free state-slice
// chains) mutates the live plan without replacing it. Callback copies and
// the collected multisets must agree across those splices too.
TEST(ArenaLifetimeTest, CallbackDeliveryConsistentAcrossMigratorChurn) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 15;
  spec.join_selectivity = 0.1;
  const Workload workload = GenerateWorkload(spec);
  const std::vector<Tuple> merged = MergedArrivals(workload);

  Engine::Options eopt;
  eopt.condition = workload.condition;
  Engine engine(eopt);

  ContinuousQuery base;
  base.name = "Qbase";
  base.window = WindowSpec::TimeSeconds(4);
  const QueryHandle q = engine.RegisterQuery(base);
  ASSERT_TRUE(q.valid()) << engine.last_error();
  uint64_t callbacks = 0;
  engine.Subscribe(q, [&callbacks](const JoinResult& r) {
    callbacks += static_cast<uint64_t>(r.size() == 2);
  });

  QueryHandle extra;
  const size_t third = merged.size() / 3;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i == third) {
      ContinuousQuery mid;  // splits a slice in place via ChainMigrator
      mid.name = "Qmid";
      mid.window = WindowSpec::TimeSeconds(2);
      extra = engine.RegisterQuery(mid);
      ASSERT_TRUE(extra.valid()) << engine.last_error();
    } else if (i == 2 * third) {
      ASSERT_TRUE(engine.UnregisterQuery(extra));
      engine.CompactChain();
    }
    engine.Push(merged[i].side, merged[i]);
  }
  engine.Finish();
  EXPECT_EQ(callbacks, engine.ResultCount(q));
  EXPECT_GT(callbacks, 0u);
}

}  // namespace
}  // namespace stateslice
