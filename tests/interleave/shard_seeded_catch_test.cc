// Seeded-violation catch tests for the sharded runtime's steal protocol.
//
// Compiled once per planted bug (tests/interleave/CMakeLists.txt):
//   STATESLICE_SEEDED_BUG_4  deque bottom_ publication weakened to relaxed
//   STATESLICE_SEEDED_BUG_5  shard token release weakened to relaxed
//   STATESLICE_SEEDED_BUG_6  deque top_ publication weakened to relaxed
// Bugs 4/6 live in steal_deque.h's steal_internal order constants and
// bug 5 in shard_router.h's shard_internal one; shard_router.cc is
// recompiled into each test binary so the feeder-side template
// instantiations (Route -> TryPushBack) carry the weakened order too —
// the explicit object beats the archive member at link time. The explorer MUST find a violation: this
// test FAILING means the verification layer can no longer detect the
// bug class it exists for.
#if !defined(STATESLICE_SEEDED_BUG_4) && \
    !defined(STATESLICE_SEEDED_BUG_5) && !defined(STATESLICE_SEEDED_BUG_6)
#error "shard_seeded_catch_test.cc requires a STATESLICE_SEEDED_BUG_N define"
#endif

#include "tests/interleave/shard_episodes.h"

#include <gtest/gtest.h>

#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {
namespace {

constexpr uint64_t kMaxEpisodes = 400000;

#if defined(STATESLICE_SEEDED_BUG_4) || defined(STATESLICE_SEEDED_BUG_6)
void ExpectDfsCatches(const ShardSpillEpisodeConfig& cfg) {
  InterleaveScheduler::Options options;
  options.preemption_bound = 2;
  const DfsResult result = ExploreDfs(
      [&cfg](InterleaveScheduler* sched) {
        return RunShardSpillEpisode(sched, cfg);
      },
      kMaxEpisodes, options);
  ASSERT_FALSE(result.violations.empty())
      << "seeded memory-order bug survived " << result.episodes
      << " schedules: the explorer has lost its teeth";
  EXPECT_FALSE(result.failing_schedule.empty());
}
#endif

#if defined(STATESLICE_SEEDED_BUG_4)
TEST(ShardSeededBugCatchTest, WeakenedDequeBottomPublishIsCaught) {
  // The feeder's spilled-run slot write is published by the relaxed
  // bottom_ store: the token holder's pop plain-reads the slot without a
  // happens-before edge — a modeled data race on the first spilled run.
  ExpectDfsCatches({.items = 5});
}
#endif

#if defined(STATESLICE_SEEDED_BUG_6)
TEST(ShardSeededBugCatchTest, WeakenedDequeTopPublishIsCaught) {
  // Needs the deque to wrap: the consumer's relaxed top_ store lets the
  // feeder reuse a slot whose previous read it never synchronized with.
  ExpectDfsCatches({.items = 5});
}
#endif

#if defined(STATESLICE_SEEDED_BUG_5)
TEST(ShardSeededBugCatchTest, WeakenedTokenReleaseIsCaught) {
  // Two workers hand the shard token back and forth; with the release
  // store weakened the handoff no longer publishes the holder's writes
  // to the token-guarded cursor — a modeled race on any schedule where
  // both workers consume. PCT, same regime as the clean suite.
  const ShardTokenEpisodeConfig cfg{.items = 4};
  const PctResult result = ExplorePct(
      [&cfg](InterleaveScheduler* sched) {
        return RunShardTokenEpisode(sched, cfg);
      },
      /*base_seed=*/5000, /*num_seeds=*/60, /*depth=*/3);
  ASSERT_FALSE(result.violations.empty())
      << "seeded token-release bug survived " << result.episodes
      << " seeds: the explorer has lost its teeth";
  EXPECT_NE(result.failing_seed, 0u);
}
#endif

}  // namespace
}  // namespace stateslice::interleave
