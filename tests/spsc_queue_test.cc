#include "src/runtime/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/tuple.h"
#include "src/runtime/queue.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 1024u);
}

TEST(SpscQueueTest, FifoOrderSingleThread) {
  SpscQueue<int> q(8);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  for (int i = 0; i < 5; ++i) {
    int v = -1;
    EXPECT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(q.TryPop(&v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueueTest, PushFailsWhenFullAndPreservesValue) {
  SpscQueue<int> q(2);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  int v = 42;
  EXPECT_FALSE(q.TryPush(std::move(v)));
  EXPECT_EQ(v, 42);  // failed push must not consume the value
  EXPECT_EQ(q.size(), 2u);
  int out;
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(3));  // slot freed
}

TEST(SpscQueueTest, WrapAroundKeepsFifo) {
  SpscQueue<int> q(4);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  int out;
  // Push/pop more than the capacity so head and tail wrap several times.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    while (q.TryPush(int{next_push})) ++next_push;
    while (q.TryPop(&out)) {
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GT(next_push, static_cast<int>(q.capacity()));
}

TEST(SpscQueueTest, AccountingMatchesEventQueueSemantics) {
  SpscQueue<int> q(8);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.TryPush(int{i}));
  int out;
  ASSERT_TRUE(q.TryPop(&out));
  ASSERT_TRUE(q.TryPop(&out));
  ASSERT_TRUE(q.TryPush(9));
  EXPECT_EQ(q.total_pushed(), 6u);
  // Sampled at head reloads only: never above the true peak of 5.
  EXPECT_LE(q.high_water_mark(), 5u);
  // Pushes 7 and 8 fill the producer's cached view of the head; push 9
  // reloads it (2 popped) and samples the occupancy after it: 7.
  ASSERT_TRUE(q.TryPush(10));
  ASSERT_TRUE(q.TryPush(11));
  ASSERT_TRUE(q.TryPush(12));
  EXPECT_EQ(q.high_water_mark(), 7u);
  // Push 10 fills the ring and push 11 finds it really full, which pins
  // the mark at capacity.
  ASSERT_TRUE(q.TryPush(13));
  EXPECT_FALSE(q.TryPush(14));
  EXPECT_EQ(q.high_water_mark(), q.capacity());
}

TEST(SpscQueueTest, HighWaterMarkFollowsOccupancyNotPushCount) {
  // One event in flight at a time: the real occupancy never exceeds 1,
  // however many pushes the ring has taken.
  SpscQueue<int> q(16);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(q.TryPush(int{i}));
    int out = 0;
    ASSERT_TRUE(q.TryPop(&out));
  }
  EXPECT_LE(q.high_water_mark(), 1u);
}

TEST(SpscQueueTest, CarriesEvents) {
  SpscQueue<Event> q(4);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  ASSERT_TRUE(q.TryPush(A(7, 1.5)));
  ASSERT_TRUE(q.TryPush(Punctuation{.watermark = 5}));
  Event e;
  ASSERT_TRUE(q.TryPop(&e));
  EXPECT_TRUE(IsTuple(e));
  EXPECT_EQ(std::get<Tuple>(e).seq, 7u);
  ASSERT_TRUE(q.TryPop(&e));
  EXPECT_TRUE(IsPunctuation(e));
}

TEST(SpscQueueTest, PushRunMovesWhatFitsAndReportsCount) {
  SpscQueue<Event> q(4);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  EventRun run;
  for (int i = 0; i < 6; ++i) run.push_back(A(i + 1, 1.0 * i));
  // Capacity 4, so only the first 4 events fit; the caller retries the
  // tail from the returned offset.
  EXPECT_EQ(q.TryPushRun(&run, 0), 4u);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.TryPushRun(&run, 4), 0u);  // full: nothing moves
  Event e;
  ASSERT_TRUE(q.TryPop(&e));
  ASSERT_TRUE(q.TryPop(&e));
  EXPECT_EQ(q.TryPushRun(&run, 4), 2u);
  EXPECT_EQ(q.total_pushed(), 6u);
  // FIFO across the split push: seq 3..6 remain.
  for (uint32_t want = 3; want <= 6; ++want) {
    ASSERT_TRUE(q.TryPop(&e));
    EXPECT_EQ(std::get<Tuple>(e).seq, want);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueueTest, PopRunDrainsBoundedAndAppends) {
  SpscQueue<Event> q(8);
  // Single-threaded test: this thread plays both SPSC roles.
  q.AssertProducer();
  q.AssertConsumer();
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.TryPush(A(i + 1, 1.0 * i)));
  EventRun run;
  EXPECT_EQ(q.TryPopRun(&run, 4), 4u);
  ASSERT_EQ(run.size(), 4u);
  EXPECT_EQ(std::get<Tuple>(run[0]).seq, 1u);
  EXPECT_EQ(std::get<Tuple>(run[3]).seq, 4u);
  // Appends after existing contents, drains only what's there.
  EXPECT_EQ(q.TryPopRun(&run, 4), 2u);
  ASSERT_EQ(run.size(), 6u);
  EXPECT_EQ(std::get<Tuple>(run[5]).seq, 6u);
  EXPECT_EQ(q.TryPopRun(&run, 4), 0u);  // empty: no-op
  EXPECT_TRUE(q.empty());
}

// Run-based producer/consumer across threads: batched pushes and pops must
// preserve exactly the per-event FIFO contract. Run under TSan in CI (tsan
// preset) to certify the single release-store publication per run.
TEST(SpscQueueStressTest, RunTransfersAcrossThreads) {
  constexpr uint32_t kCount = 100000;
  SpscQueue<Event> q(64);

  std::thread producer([&q] {
    q.AssertProducer();  // this thread is the only pusher
    Rng rng(3);
    EventRun run;
    uint32_t next = 0;
    while (next < kCount) {
      run.clear();
      const uint64_t batch = 1 + rng.NextBounded(96);
      for (uint64_t i = 0; i < batch && next < kCount; ++i) {
        run.push_back(A(next++, 1.0));
      }
      size_t pushed = 0;
      while (pushed < run.size()) {
        const size_t n = q.TryPushRun(&run, pushed);
        pushed += n;
        if (n == 0) std::this_thread::yield();
      }
    }
  });

  q.AssertConsumer();  // the main thread is the only popper
  Rng rng(4);
  EventRun run;
  uint32_t expected = 0;
  while (expected < kCount) {
    run.clear();
    const size_t n = q.TryPopRun(&run, 1 + rng.NextBounded(96));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const Event& e : run) {
      ASSERT_EQ(std::get<Tuple>(e).seq, expected);  // FIFO, no loss
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(q.total_pushed(), kCount);
  EXPECT_TRUE(q.empty());
}

// Producer/consumer threads with randomized batch sizes: every value must
// come out exactly once, in order, and the accounting must add up. Run
// under TSan in CI (tsan preset) to certify the memory ordering.
TEST(SpscQueueStressTest, TwoThreadsRandomBatches) {
  constexpr uint64_t kCount = 200000;
  SpscQueue<uint64_t> q(64);

  std::thread producer([&q] {
    q.AssertProducer();  // this thread is the only pusher
    Rng rng(1);
    uint64_t next = 0;
    while (next < kCount) {
      const uint64_t batch = 1 + rng.NextBounded(97);
      for (uint64_t i = 0; i < batch && next < kCount; ++i) {
        uint64_t value = next;
        if (q.TryPush(std::move(value))) {
          ++next;
        } else {
          std::this_thread::yield();
        }
      }
    }
  });

  q.AssertConsumer();  // the main thread is the only popper
  Rng rng(2);
  uint64_t expected = 0;
  while (expected < kCount) {
    const uint64_t batch = 1 + rng.NextBounded(97);
    for (uint64_t i = 0; i < batch && expected < kCount; ++i) {
      uint64_t value = 0;
      if (q.TryPop(&value)) {
        ASSERT_EQ(value, expected);  // FIFO, no loss, no duplication
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  }
  producer.join();

  EXPECT_EQ(q.total_pushed(), kCount);
  EXPECT_TRUE(q.empty());
  EXPECT_GE(q.high_water_mark(), 1u);
  EXPECT_LE(q.high_water_mark(), q.capacity());
}

// Same stress but with Event payloads (the type the scheduler ships).
TEST(SpscQueueStressTest, EventPayloadsAcrossThreads) {
  constexpr uint32_t kCount = 50000;
  SpscQueue<Event> q(32);

  std::thread producer([&q] {
    q.AssertProducer();  // this thread is the only pusher
    for (uint32_t i = 0; i < kCount;) {
      Event e = A(i, static_cast<double>(i));
      if (q.TryPush(std::move(e))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });

  q.AssertConsumer();  // the main thread is the only popper
  uint32_t expected = 0;
  while (expected < kCount) {
    Event e;
    if (q.TryPop(&e)) {
      ASSERT_TRUE(IsTuple(e));
      ASSERT_EQ(std::get<Tuple>(e).seq, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(q.total_pushed(), kCount);
}

}  // namespace
}  // namespace stateslice
