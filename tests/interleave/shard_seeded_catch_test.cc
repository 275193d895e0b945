// Seeded-violation catch test for the sharded runtime's close protocol.
//
// Compiled with STATESLICE_SEEDED_BUG_7 (tests/interleave/CMakeLists.txt):
// the close-flag release store in ShardRouter::CloseAll is weakened to
// relaxed (shard_router.h's shard_internal order constant).
// shard_router.cc is recompiled into the test binary so CloseAll carries
// the weakened order — the explicit object beats the archive member at
// link time. The explorer MUST find the lost event: this test FAILING
// means the verification layer can no longer detect the bug class it
// exists for. (Bugs 4/5/6 belonged to the retired work-stealing runtime;
// their numbers stay unused.)
#if !defined(STATESLICE_SEEDED_BUG_7)
#error "shard_seeded_catch_test.cc requires STATESLICE_SEEDED_BUG_7"
#endif

#include "tests/interleave/shard_episodes.h"

#include <gtest/gtest.h>

#include <string>

#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {
namespace {

constexpr uint64_t kMaxEpisodes = 400000;

TEST(ShardSeededBugCatchTest, WeakenedCloseReleaseLosesAnEvent) {
  // With the close store relaxed, a worker that reads the flag set is not
  // synchronized with the feeder's last ring publication: its emptiness
  // check may see a stale tail, and it exits with events still queued.
  InterleaveScheduler::Options options;
  options.preemption_bound = 2;
  const ShardLaneEpisodeConfig cfg{.items = 2};
  const DfsResult result = ExploreDfs(
      [&cfg](InterleaveScheduler* sched) {
        return RunShardLaneEpisode(sched, cfg);
      },
      kMaxEpisodes, options);
  ASSERT_FALSE(result.violations.empty())
      << "seeded close-release bug survived " << result.episodes
      << " schedules: the explorer has lost its teeth";
  EXPECT_FALSE(result.failing_schedule.empty());
  EXPECT_NE(result.violations[0].reason.find("lost events"),
            std::string::npos)
      << result.violations[0].reason;
}

}  // namespace
}  // namespace stateslice::interleave
