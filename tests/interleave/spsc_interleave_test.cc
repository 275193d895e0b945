// Exhaustive bounded-depth DFS over 2-thread SpscQueue histories.
//
// Every test explores the FULL decision tree (thread schedules x allowed
// load values) of its episode configuration within the preemption bound
// and asserts (a) the exploration exhausts within budget and (b) no
// schedule violates the model (data races, deadlock) or the FIFO
// post-invariants. Nightly builds (STATESLICE_INTERLEAVE_NIGHTLY=k) raise
// the preemption bound for a deeper sweep.
#include "tests/interleave/spsc_episodes.h"

#include <gtest/gtest.h>

#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {
namespace {

// Episode budget: DFS trees here are 10^2..10^5 schedules; the cap only
// exists so a regression cannot hang CTest.
constexpr uint64_t kMaxEpisodes = 400000;

InterleaveScheduler::Options BoundedOptions() {
  InterleaveScheduler::Options options;
  options.preemption_bound =
      2 + static_cast<int>(EnvNightlyScale() - 1);  // nightly: deeper
  return options;
}

void ExpectCleanExhaustiveDfs(const SpscEpisodeConfig& cfg) {
  const DfsResult result = ExploreDfs(
      [&cfg](InterleaveScheduler* sched) {
        return RunSpscEpisode(sched, cfg);
      },
      kMaxEpisodes, BoundedOptions());
  EXPECT_TRUE(result.exhausted)
      << "DFS did not exhaust within " << kMaxEpisodes << " episodes";
  ASSERT_TRUE(result.violations.empty())
      << "schedule " << result.failing_schedule << " violated: "
      << result.violations[0].reason << "\n"
      << result.violations[0].trace;
  // Confidence the model actually branched (not a degenerate tree).
  EXPECT_GT(result.episodes, 1u);
  ::testing::Test::RecordProperty("dfs_episodes",
                                  static_cast<int>(result.episodes));
}

TEST(SpscInterleaveDfsTest, SingleEventPushPop) {
  ExpectCleanExhaustiveDfs({.capacity = 2, .items = 3});
}

TEST(SpscInterleaveDfsTest, SingleEventWrapsAndBackpressures) {
  // items > capacity: the ring wraps and the producer hits futility.
  ExpectCleanExhaustiveDfs({.capacity = 2, .items = 4});
}

TEST(SpscInterleaveDfsTest, RunSegmentsNearlyFullRing) {
  // Chunks of 3 into a 4-slot ring: every second push finds the ring
  // nearly full and publishes a partial segment.
  ExpectCleanExhaustiveDfs(
      {.capacity = 4, .items = 6, .push_chunk = 3, .pop_chunk = 2});
}

TEST(SpscInterleaveDfsTest, RunSegmentsAcrossWrapBoundary) {
  // Chunks of 2 through a 2-slot ring: segments split across the wrap
  // boundary and the producer can never publish a full chunk in one go.
  ExpectCleanExhaustiveDfs(
      {.capacity = 2, .items = 5, .push_chunk = 2, .pop_chunk = 2});
}

TEST(SpscInterleaveDfsTest, RunPushSingleEventPop) {
  // Mixed granularity: bulk publication, single-event consumption.
  ExpectCleanExhaustiveDfs(
      {.capacity = 2, .items = 4, .push_chunk = 2, .pop_chunk = 0});
}

TEST(SpscInterleaveDfsTest, CloseFlagRacesInFlightRun) {
  // The shard/merge close protocol with the close store racing an
  // in-flight run: the consumer must never exit with events unread.
  ExpectCleanExhaustiveDfs({.capacity = 2,
                            .items = 4,
                            .push_chunk = 3,
                            .pop_chunk = 2,
                            .close_flag = true});
}

TEST(SpscInterleaveDfsTest, CloseFlagSingleEvents) {
  ExpectCleanExhaustiveDfs(
      {.capacity = 2, .items = 3, .close_flag = true});
}

}  // namespace
}  // namespace stateslice::interleave
