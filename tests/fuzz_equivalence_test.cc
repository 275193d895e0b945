// Randomized (fuzz-style) equivalence testing.
//
// For dozens of seeded random configurations — random window sets, random
// per-query selections, random chain partitions, random join selectivities
// and rates — every query's delivered result multiset must equal the
// oracle nested-loop evaluation over the raw streams. These runs exercise
// interactions the hand-written cases may miss: duplicate windows, slices
// with extreme spans, selective and vacuous predicates, merged slices with
// several interior boundaries, and tie-heavy timestamp patterns.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::DrawFuzzConfig;
using ::stateslice::testing::FuzzConfig;
using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunPlan;

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEquivalenceTest, RandomConfigMatchesOracle) {
  const FuzzConfig config = DrawFuzzConfig(GetParam());
  SCOPED_TRACE(config.DebugString());

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = config.rate;
  spec.duration_s = 10;
  spec.join_selectivity = config.s1;
  spec.seed = config.workload_seed;
  const Workload workload = GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.use_lineage = config.use_lineage;
  BuiltPlan built =
      BuildStateSlicePlan(config.queries, config.chain, options);
  RunPlan(&built, workload);

  for (const ContinuousQuery& q : config.queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
    EXPECT_TRUE(built.sinks[q.id]->saw_ordered_stream())
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{33}));

// Same idea against the baselines: random shared-predicate workloads must
// agree across pull-up and push-down too.
class FuzzBaselineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzBaselineTest, BaselinesMatchOracle) {
  Rng rng(GetParam() * 7919);
  const int num_queries = 2 + static_cast<int>(rng.NextBounded(4));
  const Predicate shared =
      Predicate::WithSelectivity(0.2 + 0.1 * rng.NextBounded(7));
  std::vector<ContinuousQuery> queries(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    queries[q].id = q;
    queries[q].name = "Q" + std::to_string(q + 1);
    queries[q].window = WindowSpec::TimeSeconds(
        0.5 * (1 + static_cast<double>(rng.NextBounded(12))));
    if (rng.NextBounded(2) == 1) queries[q].selection_a = shared;
  }

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 8;
  spec.join_selectivity = 0.1;
  spec.seed = rng.NextU64();
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;

  BuiltPlan pullup = BuildPullUpPlan(queries, options);
  RunPlan(&pullup, workload);
  BuiltPlan pushdown = BuildPushDownPlan(queries, options);
  RunPlan(&pushdown, workload);

  for (const ContinuousQuery& q : queries) {
    const auto expected = OracleJoin(workload.stream_a, workload.stream_b,
                                     workload.condition, q);
    EXPECT_EQ(pullup.sinks[q.id]->ResultMultiset(), expected)
        << "pullup " << q.DebugString();
    EXPECT_EQ(pushdown.sinks[q.id]->ResultMultiset(), expected)
        << "pushdown " << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBaselineTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

// Random migration schedules: split/merge at random times, random surviving
// query set must still match the oracle.
class FuzzMigrationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMigrationTest, RandomSplitMergeScheduleKeepsResults) {
  Rng rng(GetParam() * 104729);
  std::vector<ContinuousQuery> queries(3);
  const double w1 = 1.0 + static_cast<double>(rng.NextBounded(3));
  const double w2 = w1 + 1.0 + static_cast<double>(rng.NextBounded(3));
  const double w3 = w2 + 1.0 + static_cast<double>(rng.NextBounded(3));
  queries[0] = {0, "Q1", WindowSpec::TimeSeconds(w1), {}, {}};
  queries[1] = {1, "Q2", WindowSpec::TimeSeconds(w2), {}, {}};
  queries[2] = {2, "Q3", WindowSpec::TimeSeconds(w3), {}, {}};

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 12;
  spec.seed = rng.NextU64();
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);

  std::vector<Tuple> merged;
  merged.insert(merged.end(), workload.stream_a.begin(),
                workload.stream_a.end());
  merged.insert(merged.end(), workload.stream_b.begin(),
                workload.stream_b.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Tuple& x, const Tuple& y) {
                     return x.timestamp < y.timestamp;
                   });

  RoundRobinScheduler scheduler(built.plan.get());
  const size_t mutate_at = merged.size() / 3;
  const size_t mutate_at2 = 2 * merged.size() / 3;
  for (size_t i = 0; i < merged.size(); ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
    if (i == mutate_at) {
      ChainMigrator migrator(&built);
      // Split the middle slice somewhere random inside its range.
      const SliceRange r = built.slices[1].join->range();
      const Duration boundary =
          r.start + 1 +
          static_cast<Duration>(rng.NextBounded(
              static_cast<uint64_t>(r.end - r.start - 1)));
      migrator.SplitSlice(1, boundary);
    }
    if (i == mutate_at2) {
      ChainMigrator migrator(&built);
      migrator.MergeSlices(1);  // undo the split
    }
  }
  built.plan->FinishAll();
  scheduler.RunUntilQuiescent();

  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMigrationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Sharded-vs-deterministic equivalence over the same random config space,
// crossed with shard counts {1, 2, 8}, uniform and Zipf-skewed key
// domains, and both run-length settings. The deterministic Engine is the
// reference; both must equal the oracle. Key partitioning requires
// equi-key predicates, so every workload is rekeyed (the uniform-key
// model of RekeyForEquiJoin, or Zipf(1.1) skew on odd seeds — skew fills
// one shard's ring, exercising ingestion backpressure).
class ShardedFuzzEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedFuzzEquivalenceTest, ShardedMatchesDeterministicAndOracle) {
  const uint64_t seed = GetParam();
  const FuzzConfig config = DrawFuzzConfig(seed);
  SCOPED_TRACE(config.DebugString());

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = config.rate;
  spec.duration_s = 10;
  spec.join_selectivity = config.s1;
  spec.seed = config.workload_seed;
  Workload workload = GenerateWorkload(spec);
  const int64_t key_domains[] = {4, 16, 64};
  const int64_t key_domain = key_domains[seed % 3];
  if (seed % 2 == 1) {
    RekeyForEquiJoinZipf(&workload, key_domain, 1.1, seed * 131);
  } else {
    RekeyForEquiJoin(&workload, key_domain, seed * 131);
  }

  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.use_lineage = config.use_lineage;

  Engine reference(options);
  std::vector<QueryHandle> ref_handles;
  for (const ContinuousQuery& q : config.queries) {
    ref_handles.push_back(reference.RegisterQuery(q));
    ASSERT_TRUE(ref_handles.back().valid()) << reference.last_error();
  }

  options.mode = ExecutionMode::kSharded;
  const int shard_counts[] = {1, 2, 8};
  options.shard_count = shard_counts[(seed / 3) % 3];
  options.run_length = seed % 2 == 0 ? 0 : 16;
  // Small rings on some seeds so the feeder waits on full rings.
  options.parallel_edge_capacity = seed % 4 == 0 ? 16 : 256;
  Engine sharded(options);
  std::vector<QueryHandle> shard_handles;
  for (const ContinuousQuery& q : config.queries) {
    shard_handles.push_back(sharded.RegisterQuery(q));
    ASSERT_TRUE(shard_handles.back().valid()) << sharded.last_error();
  }

  for (const Tuple& t : MergedArrivals(workload)) {
    reference.Push(t.side, t);
    sharded.Push(t.side, t);
  }
  reference.Finish();
  sharded.Finish();

  for (size_t q = 0; q < config.queries.size(); ++q) {
    const auto expected = OracleJoin(workload.stream_a, workload.stream_b,
                                     workload.condition, config.queries[q]);
    EXPECT_EQ(reference.CollectedResults(ref_handles[q]), expected)
        << "deterministic " << config.queries[q].DebugString();
    EXPECT_EQ(sharded.CollectedResults(shard_handles[q]), expected)
        << "sharded " << config.queries[q].DebugString();
    EXPECT_EQ(sharded.ResultCount(shard_handles[q]),
              reference.ResultCount(ref_handles[q]))
        << config.queries[q].DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFuzzEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{19}));

}  // namespace
}  // namespace stateslice
