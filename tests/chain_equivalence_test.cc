// Property tests for the paper's core claims:
//
//  Theorem 1/2 — the union of a chain of sliced joins' outputs equals the
//                regular sliding-window join, for every query window;
//  Theorem 3   — the Mem-Opt chain's total state memory equals the state of
//                the single largest-window join;
//  Theorem 4   — with selections pushed down, every query still receives
//                exactly its filtered results;
//  Lemma 1     — slice states are pairwise disjoint.
//
// Each case builds a state-slice plan, runs a random Poisson workload, and
// compares every query's delivered result multiset against an oracle
// nested-loop evaluation over the raw streams.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunEngine;
using ::stateslice::testing::RunPlan;

struct EquivalenceCase {
  std::string name;
  std::vector<double> windows_s;       // per query
  std::vector<double> selectivities;   // per query; 1.0 = no selection
  double s1 = 0.1;
  double rate = 30.0;
  double duration_s = 12.0;
  uint64_t seed = 1;
  bool use_lineage = false;
  bool cpu_opt = false;  // use the CPU-optimal (merged) partition
};

std::vector<ContinuousQuery> MakeQueries(const EquivalenceCase& c) {
  std::vector<ContinuousQuery> queries(c.windows_s.size());
  for (size_t i = 0; i < c.windows_s.size(); ++i) {
    queries[i].id = static_cast<int>(i);
    queries[i].name = "Q" + std::to_string(i + 1);
    queries[i].window = WindowSpec::TimeSeconds(c.windows_s[i]);
    if (c.selectivities[i] < 1.0) {
      queries[i].selection_a = Predicate::WithSelectivity(c.selectivities[i]);
    }
  }
  return queries;
}

class ChainEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ChainEquivalenceTest, EveryQueryMatchesOracle) {
  const EquivalenceCase& c = GetParam();
  const std::vector<ContinuousQuery> queries = MakeQueries(c);

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = c.rate;
  spec.duration_s = c.duration_s;
  spec.join_selectivity = c.s1;
  spec.seed = c.seed;
  const Workload workload = GenerateWorkload(spec);

  ChainPlan chain;
  if (c.cpu_opt) {
    ChainCostParams params;
    params.lambda_a = params.lambda_b = c.rate;
    params.s1 = c.s1;
    chain = BuildCpuOptChain(queries, params);
  } else {
    chain = BuildMemOptChain(queries);
  }

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.use_lineage = c.use_lineage;
  BuiltPlan built = BuildStateSlicePlan(queries, chain, options);
  RunPlan(&built, workload);

  for (const ContinuousQuery& q : queries) {
    const auto expected =
        OracleJoin(workload.stream_a, workload.stream_b, workload.condition,
                   q);
    const auto actual = built.sinks[q.id]->ResultMultiset();
    EXPECT_EQ(actual, expected) << q.DebugString() << " under " << c.name;
    EXPECT_TRUE(built.sinks[q.id]->saw_ordered_stream())
        << q.DebugString() << ": results were not timestamp-ordered";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ChainEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{"two_queries_no_selection", {2, 6}, {1, 1}},
        EquivalenceCase{"paper_q1_q2", {1, 6}, {1, 0.3}},
        EquivalenceCase{"three_uniform", {2, 4, 6}, {1, 0.5, 0.5}},
        EquivalenceCase{"three_mostly_small",
                        {1, 2, 8},
                        {1, 0.4, 0.4},
                        /*s1=*/0.2},
        EquivalenceCase{"all_selected", {1, 3, 5}, {0.3, 0.5, 0.7}},
        EquivalenceCase{"duplicate_windows", {2, 2, 5}, {1, 0.5, 0.5}},
        EquivalenceCase{"single_query", {4}, {0.5}},
        EquivalenceCase{"many_queries",
                        {1, 2, 3, 4, 5, 6, 7, 8},
                        {1, 1, 0.8, 0.8, 0.6, 0.6, 0.4, 0.4},
                        /*s1=*/0.1,
                        /*rate=*/20.0,
                        /*duration_s=*/10.0},
        EquivalenceCase{"lineage_mode",
                        {2, 4, 6},
                        {0.4, 0.5, 0.6},
                        /*s1=*/0.1,
                        /*rate=*/30.0,
                        /*duration_s=*/12.0,
                        /*seed=*/3,
                        /*use_lineage=*/true},
        EquivalenceCase{"cpu_opt_merged",
                        {1, 2, 3, 8},
                        {1, 1, 1, 1},
                        /*s1=*/0.025,
                        /*rate=*/30.0,
                        /*duration_s=*/12.0,
                        /*seed=*/4,
                        /*use_lineage=*/false,
                        /*cpu_opt=*/true},
        EquivalenceCase{"cpu_opt_with_selections",
                        {1, 2, 3, 8},
                        {1, 0.5, 0.5, 0.5},
                        /*s1=*/0.025,
                        /*rate=*/30.0,
                        /*duration_s=*/12.0,
                        /*seed=*/5,
                        /*use_lineage=*/false,
                        /*cpu_opt=*/true},
        EquivalenceCase{"high_join_selectivity",
                        {2, 5},
                        {1, 0.5},
                        /*s1=*/0.5,
                        /*rate=*/25.0},
        EquivalenceCase{"seed_sweep_a", {3, 7}, {1, 0.3}, 0.1, 30, 12, 101},
        EquivalenceCase{"seed_sweep_b", {3, 7}, {1, 0.3}, 0.1, 30, 12, 102},
        EquivalenceCase{"seed_sweep_c", {3, 7}, {1, 0.3}, 0.1, 30, 12, 103}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

// Theorem 3: the Mem-Opt chain's state memory equals the single join at the
// largest window, tuple for tuple, at every sampled instant.
TEST(MemOptMemoryTest, ChainStateEqualsSingleLargestJoin) {
  std::vector<ContinuousQuery> queries(3);
  for (int i = 0; i < 3; ++i) {
    queries[i].id = i;
    queries[i].name = "Q" + std::to_string(i + 1);
  }
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].window = WindowSpec::TimeSeconds(4);
  queries[2].window = WindowSpec::TimeSeconds(8);

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 20;
  spec.seed = 9;
  const Workload workload = GenerateWorkload(spec);

  const auto run = [&](SharingStrategy strategy,
                       const std::vector<ContinuousQuery>& qs) {
    Engine::Options options;
    options.strategy = strategy;
    return RunEngine(options, qs, workload);
  };
  const RunStats sliced_stats = run(SharingStrategy::kStateSlice, queries);
  // Reference: one regular join with the largest window only.
  const RunStats pullup_stats = run(SharingStrategy::kPullUp, {queries[2]});

  ASSERT_EQ(sliced_stats.memory_samples.size(),
            pullup_stats.memory_samples.size());
  // Identical arrivals + identical purge boundaries => identical state
  // tuple counts sample by sample (Theorem 3's equality, not just <=).
  for (size_t i = 0; i < sliced_stats.memory_samples.size(); ++i) {
    EXPECT_EQ(sliced_stats.memory_samples[i].state_tuples,
              pullup_stats.memory_samples[i].state_tuples)
        << "sample " << i;
  }
}

// Lemma 1: no tuple identity appears in two slices' states at once.
TEST(SliceDisjointnessTest, StatesArePairwiseDisjoint) {
  std::vector<ContinuousQuery> queries(3);
  for (int i = 0; i < 3; ++i) {
    queries[i].id = i;
    queries[i].name = "Q" + std::to_string(i + 1);
    queries[i].window = WindowSpec::TimeSeconds(2.0 * (i + 1));
  }
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 30;
  spec.duration_s = 15;
  spec.seed = 17;
  const Workload workload = GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);

  RunPlan(&built, workload);

  std::set<std::string> seen;
  for (const BuiltSlice& slice : built.slices) {
    for (const Tuple& t : slice.join->state_a().tuples()) {
      EXPECT_TRUE(seen.insert(t.DebugId()).second)
          << t.DebugId() << " present in two slices";
    }
  }
  std::set<std::string> seen_b;
  for (const BuiltSlice& slice : built.slices) {
    for (const Tuple& t : slice.join->state_b().tuples()) {
      EXPECT_TRUE(seen_b.insert(t.DebugId()).second)
          << t.DebugId() << " present in two slices";
    }
  }
}

// Count-based windows: the chain techniques carry over (Section 2's claim).
TEST(CountWindowChainTest, SlicedChainMatchesRegularCountJoin) {
  // Two count-window queries sharing a chain of two count slices.
  std::vector<ContinuousQuery> queries(2);
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::Count(5);
  queries[1].id = 1;
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::Count(12);

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = 10;
  spec.seed = 21;
  spec.join_selectivity = 0.1;
  const Workload workload = GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan sliced =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  RunPlan(&sliced, workload);

  BuiltPlan unshared = BuildUnsharedPlans(queries, options);
  RunPlan(&unshared, workload);

  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(sliced.sinks[q.id]->ResultMultiset(),
              unshared.sinks[q.id]->ResultMultiset())
        << q.DebugString();
  }
}

}  // namespace
}  // namespace stateslice
