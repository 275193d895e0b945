// ShardRouter: key-affinity routing, punctuation broadcast, and the close
// protocol of the sharded execution mode.
#include "src/runtime/shard_router.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/tuple.h"

namespace stateslice {
namespace {

Tuple KeyedTuple(int64_t key, TimePoint ts) {
  Tuple t;
  t.key = key;
  t.timestamp = ts;
  return t;
}

// Drains one shard's ring, returning the event timestamps.
std::vector<TimePoint> DrainShard(ShardRouter* router, int shard) {
  ShardCell& cell = router->cell(shard);
  std::vector<TimePoint> times;
  cell.ring.AssertConsumer();  // single-threaded test: sole consumer
  Event event;
  while (cell.ring.TryPop(&event)) times.push_back(EventTime(event));
  return times;
}

TEST(ShardRouterTest, KeyAffinityAndCounts) {
  ShardRouterOptions options;
  options.num_shards = 4;
  ShardRouter router(options);
  router.AssertFeeder();  // single-threaded test: trivially the feeder

  // Same key must always land on the same shard.
  for (int64_t key = 0; key < 64; ++key) {
    const int shard = router.ShardOf(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(router.ShardOf(key), shard);
  }

  for (TimePoint t = 0; t < 100; ++t) {
    router.Route(Event(KeyedTuple(t % 16, t)));
  }
  uint64_t routed = 0;
  for (int s = 0; s < 4; ++s) routed += router.routed(s);
  EXPECT_EQ(routed, 100u);

  // Every shard's drain is timestamp-ordered and the union is complete.
  size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    const std::vector<TimePoint> times = DrainShard(&router, s);
    total += times.size();
    for (size_t i = 1; i < times.size(); ++i) {
      ASSERT_LE(times[i - 1], times[i]) << "shard " << s;
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(ShardRouterTest, PunctuationsBroadcastToEveryShard) {
  ShardRouterOptions options;
  options.num_shards = 3;
  ShardRouter router(options);
  router.AssertFeeder();

  router.Route(Event(KeyedTuple(7, 1)));
  router.Route(Event(Punctuation{.watermark = 5}));

  int punctuations = 0;
  for (int s = 0; s < 3; ++s) {
    ShardCell& cell = router.cell(s);
    cell.ring.AssertConsumer();
    Event event;
    while (cell.ring.TryPop(&event)) {
      if (IsPunctuation(event)) ++punctuations;
    }
  }
  EXPECT_EQ(punctuations, 3);
}

TEST(ShardRouterTest, FullRingWaitsForTheWorker) {
  // A 4-event ring and 200 events: the feeder must wait on the full ring
  // until the worker thread pops, and the worker sees every event in order.
  ShardRouterOptions options;
  options.num_shards = 1;
  options.ring_capacity = 4;
  ShardRouter router(options);
  constexpr TimePoint kEvents = 200;

  std::vector<TimePoint> times;
  std::thread worker([&] {
    ShardCell& cell = router.cell(0);
    cell.ring.AssertConsumer();  // the one consumer thread of this test
    Event event;
    while (!router.ClosedAndEmpty(0)) {
      while (cell.ring.TryPop(&event)) times.push_back(EventTime(event));
    }
  });
  router.AssertFeeder();  // the test thread is the single feeder
  for (TimePoint t = 0; t < kEvents; ++t) {
    router.Route(Event(KeyedTuple(t, t)));
  }
  router.CloseAll();
  worker.join();

  ASSERT_EQ(times.size(), static_cast<size_t>(kEvents));
  for (TimePoint t = 0; t < kEvents; ++t) {
    EXPECT_EQ(times[static_cast<size_t>(t)], t);
  }
  EXPECT_EQ(router.cell(0).ring.high_water_mark(), 4u);
}

TEST(ShardRouterTest, CloseAllClosesAndDrainEnds) {
  ShardRouterOptions options;
  options.num_shards = 2;
  options.ring_capacity = 8;
  ShardRouter router(options);
  router.AssertFeeder();

  // Route to one shard, then close: the shard stays live until drained.
  const int shard = router.ShardOf(0);
  for (TimePoint t = 0; t < 5; ++t) router.Route(Event(KeyedTuple(0, t)));
  EXPECT_FALSE(router.IsClosed(0));
  EXPECT_FALSE(router.IsClosed(1));
  router.CloseAll();
  EXPECT_TRUE(router.IsClosed(0));
  EXPECT_TRUE(router.IsClosed(1));
  EXPECT_FALSE(router.ClosedAndEmpty(shard));
  EXPECT_TRUE(router.ClosedAndEmpty(1 - shard));

  EXPECT_EQ(DrainShard(&router, shard),
            (std::vector<TimePoint>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(router.ClosedAndEmpty(shard));
}

}  // namespace
}  // namespace stateslice
