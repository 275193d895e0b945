// Interleave exploration of the sharded runtime's ingress lane.
//
// The 2-thread lane episodes (feeder vs the shard's one worker) run under
// exhaustive bounded-preemption DFS, same regime as the SpscQueue suite:
// every schedule must deliver every routed event, in order, before the
// worker exits.
#include "tests/interleave/shard_episodes.h"

#include <gtest/gtest.h>

#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {
namespace {

constexpr uint64_t kMaxEpisodes = 4000000;

// Per-commit bounds stay exhaustive; nightly builds raise every bound by
// the scale factor for the deeper sweep.
InterleaveScheduler::Options BoundedOptions(int base_bound) {
  InterleaveScheduler::Options options;
  options.preemption_bound =
      base_bound + static_cast<int>(EnvNightlyScale() - 1);
  return options;
}

void ExpectCleanExhaustiveDfs(const ShardLaneEpisodeConfig& cfg,
                              int base_bound) {
  const DfsResult result = ExploreDfs(
      [&cfg](InterleaveScheduler* sched) {
        return RunShardLaneEpisode(sched, cfg);
      },
      kMaxEpisodes, BoundedOptions(base_bound));
  EXPECT_TRUE(result.exhausted)
      << "DFS did not exhaust within " << kMaxEpisodes << " episodes";
  ASSERT_TRUE(result.violations.empty())
      << "schedule " << result.failing_schedule << " violated: "
      << result.violations[0].reason << "\n"
      << result.violations[0].trace;
  EXPECT_GT(result.episodes, 1u);
  ::testing::Test::RecordProperty("dfs_episodes",
                                  static_cast<int>(result.episodes));
}

TEST(ShardInterleaveDfsTest, RouteDrainClose) {
  // Two events into a two-event ring: no backpressure, so the close races
  // the worker's first pops directly.
  ExpectCleanExhaustiveDfs({.items = 2}, /*base_bound=*/2);
}

TEST(ShardInterleaveDfsTest, BackpressureThenClose) {
  // Four events through a two-event ring: the feeder meets the
  // route_backpressure wait whenever the worker lags, and the close lands
  // behind a wrapped ring. Preemption bound 1 per-commit — the bound-2
  // tree takes minutes (nightly).
  ExpectCleanExhaustiveDfs({.items = 4, .pop_run = 1}, /*base_bound=*/1);
}

TEST(ShardInterleaveDfsTest, RunPopsAcrossTheWrap) {
  ExpectCleanExhaustiveDfs({.items = 4, .ring_capacity = 4, .pop_run = 3},
                           /*base_bound=*/2);
}

}  // namespace
}  // namespace stateslice::interleave
