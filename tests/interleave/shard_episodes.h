// Sharded-runtime episode for the interleave explorer: one shard's ingress
// lane, feeder vs the shard's one worker.
//
// The feeder routes keyed events into a one-shard router with a tiny ring
// (so it meets the route_backpressure wait whenever the worker lags) and
// then closes the shard. The worker follows ShardedScheduler::RunWorker:
// pop a run from the ring, else exit once ShardRouter::ClosedAndEmpty
// holds, else go idle. The post-invariant: the worker consumed exactly
// timestamps 0..items-1, in order, before it exited. Weakening the close
// flag's release store (seeded bug 7) lets the worker pair the close with
// a stale empty ring and exit early — the lost event the catch test finds.
#ifndef STATESLICE_TESTS_INTERLEAVE_SHARD_EPISODES_H_
#define STATESLICE_TESTS_INTERLEAVE_SHARD_EPISODES_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/tuple.h"
#include "src/runtime/queue.h"
#include "src/runtime/shard_router.h"
#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {

struct ShardLaneEpisodeConfig {
  int items = 3;
  size_t ring_capacity = 2;
  // Per-pop run bound of the worker (production: the quantum).
  size_t pop_run = 2;
};

// Feeder (t0) routes + closes; worker (t1) drains until closed and empty.
// Returns "" or the violated post-invariant.
inline std::string RunShardLaneEpisode(InterleaveScheduler* sched,
                                       const ShardLaneEpisodeConfig& cfg) {
  ShardRouter router(ShardRouterOptions{.num_shards = 1,
                                        .ring_capacity = cfg.ring_capacity});
  std::vector<TimePoint> consumed;
  sched->ExpectThreads(2);

  std::thread feeder([&] {
    sched->ThreadBegin(0);
    // By construction this thread is the router's single feeder.
    router.AssertFeeder();
    for (int i = 0; i < cfg.items; ++i) {
      Tuple t;
      t.key = i;  // one shard: every key lands on it
      t.timestamp = i;
      router.Route(Event(t));
    }
    router.CloseAll();
    sched->ThreadEnd();
  });

  std::thread worker([&] {
    sched->ThreadBegin(1);
    ShardCell& cell = router.cell(0);
    // The shard's one worker is its ring's sole consumer.
    cell.ring.AssertConsumer();
    EventRun run;
    for (;;) {
      run.clear();
      if (cell.ring.TryPopRun(&run, cfg.pop_run) > 0) {
        for (const Event& e : run) consumed.push_back(EventTime(e));
        continue;
      }
      // The no-progress path performs only loads before going futile: a
      // store there would re-wake every futile thread and the exploration
      // would never converge.
      if (router.ClosedAndEmpty(0)) break;
      sched->Futile("shard_ep.worker_idle");
    }
    sched->ThreadEnd();
  });

  feeder.join();
  worker.join();

  if (consumed.size() != static_cast<size_t>(cfg.items)) {
    return "lost events: the worker exited after consuming " +
           std::to_string(consumed.size()) + " of " +
           std::to_string(cfg.items);
  }
  for (size_t i = 0; i < consumed.size(); ++i) {
    if (consumed[i] != static_cast<TimePoint>(i)) {
      return "order violation: consumed[" + std::to_string(i) + "] = " +
             std::to_string(consumed[i]) + ", expected " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace stateslice::interleave

#endif  // STATESLICE_TESTS_INTERLEAVE_SHARD_EPISODES_H_
