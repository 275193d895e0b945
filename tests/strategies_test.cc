// Cross-strategy integration property: every sharing strategy — unshared,
// selection pull-up, stream partition with selection push-down, and the
// state-slice chain (Mem-Opt and CPU-Opt) — must deliver exactly the same
// result multiset to every query, and that multiset must equal the oracle.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunEngine;
using ::stateslice::testing::RunPlan;

struct StrategyCase {
  std::string name;
  WindowDistribution3 dist = WindowDistribution3::kUniform;
  double s_sigma = 0.5;
  double s1 = 0.1;
  double rate = 25.0;
  double duration_s = 10.0;
  uint64_t seed = 1;
};

class StrategiesTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(StrategiesTest, AllStrategiesAgreeWithOracle) {
  const StrategyCase& c = GetParam();
  // Scaled-down Section 7.2 workload: Q1 unfiltered, Q2/Q3 with σ.
  auto queries = MakeSection72Queries(c.dist, c.s_sigma);
  // Shrink windows 5x so short test runs still exercise full purging.
  for (auto& q : queries) q.window.extent /= 5;

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = c.rate;
  spec.duration_s = c.duration_s;
  spec.join_selectivity = c.s1;
  spec.seed = c.seed;
  const Workload workload = GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;

  ChainCostParams params;
  params.lambda_a = params.lambda_b = c.rate;
  params.s1 = c.s1;

  BuiltPlan unshared = BuildUnsharedPlans(queries, options);
  BuiltPlan pullup = BuildPullUpPlan(queries, options);
  BuiltPlan pushdown = BuildPushDownPlan(queries, options);
  BuiltPlan mem_opt =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  BuiltPlan cpu_opt = BuildStateSlicePlan(
      queries, BuildCpuOptChain(queries, params), options);

  RunPlan(&unshared, workload);
  RunPlan(&pullup, workload);
  RunPlan(&pushdown, workload);
  RunPlan(&mem_opt, workload);
  RunPlan(&cpu_opt, workload);

  for (const ContinuousQuery& q : queries) {
    const auto expected = OracleJoin(workload.stream_a, workload.stream_b,
                                     workload.condition, q);
    EXPECT_EQ(unshared.sinks[q.id]->ResultMultiset(), expected)
        << "unshared " << q.DebugString();
    EXPECT_EQ(pullup.sinks[q.id]->ResultMultiset(), expected)
        << "pullup " << q.DebugString();
    EXPECT_EQ(pushdown.sinks[q.id]->ResultMultiset(), expected)
        << "pushdown " << q.DebugString();
    EXPECT_EQ(mem_opt.sinks[q.id]->ResultMultiset(), expected)
        << "mem_opt " << q.DebugString();
    EXPECT_EQ(cpu_opt.sinks[q.id]->ResultMultiset(), expected)
        << "cpu_opt " << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StrategiesTest,
    ::testing::Values(
        StrategyCase{"uniform_mid", WindowDistribution3::kUniform, 0.5, 0.1},
        StrategyCase{"mostly_small", WindowDistribution3::kMostlySmall, 0.5,
                     0.1},
        StrategyCase{"mostly_large", WindowDistribution3::kMostlyLarge, 0.5,
                     0.1},
        StrategyCase{"low_sigma", WindowDistribution3::kUniform, 0.2, 0.1},
        StrategyCase{"high_sigma", WindowDistribution3::kUniform, 0.8, 0.1},
        StrategyCase{"low_s1", WindowDistribution3::kUniform, 0.5, 0.025},
        StrategyCase{"high_s1", WindowDistribution3::kUniform, 0.5, 0.4,
                     /*rate=*/20.0},
        StrategyCase{"other_seed", WindowDistribution3::kUniform, 0.5, 0.1,
                     25.0, 10.0, /*seed=*/99}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

TEST(StrategySinksTest, OrderedDeliveryEverywhere) {
  auto queries = MakeSection72Queries(WindowDistribution3::kUniform, 0.5);
  for (auto& q : queries) q.window.extent /= 5;
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = 10;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;

  BuiltPlan mem_opt =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  RunPlan(&mem_opt, workload);
  for (const ContinuousQuery& q : queries) {
    EXPECT_TRUE(mem_opt.sinks[q.id]->saw_ordered_stream())
        << q.DebugString();
  }

  BuiltPlan pushdown = BuildPushDownPlan(queries, options);
  RunPlan(&pushdown, workload);
  for (const ContinuousQuery& q : queries) {
    EXPECT_TRUE(pushdown.sinks[q.id]->saw_ordered_stream())
        << q.DebugString();
  }
}

TEST(PushDownDegenerateTest, NoSelectionsFallsBackToSharedJoin) {
  std::vector<ContinuousQuery> queries(2);
  queries[0] = {0, "Q1", WindowSpec::TimeSeconds(2), {}, {}};
  queries[1] = {1, "Q2", WindowSpec::TimeSeconds(4), {}, {}};
  WorkloadSpec spec;
  spec.duration_s = 8;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan plan = BuildPushDownPlan(queries, options);
  RunPlan(&plan, workload);
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(plan.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(PushDownDegenerateTest, AllFilteredSharesSelectionBelowJoin) {
  std::vector<ContinuousQuery> queries(2);
  queries[0] = {0, "Q1", WindowSpec::TimeSeconds(2),
                Predicate::WithSelectivity(0.4), {}};
  queries[1] = {1, "Q2", WindowSpec::TimeSeconds(4),
                Predicate::WithSelectivity(0.4), {}};
  WorkloadSpec spec;
  spec.duration_s = 8;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan plan = BuildPushDownPlan(queries, options);
  RunPlan(&plan, workload);
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(plan.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(StrategyCostTest, StateSliceUsesNoMoreMemoryThanAlternatives) {
  // The measured analogue of Fig. 17: average state tuples of the chain
  // must not exceed pull-up or push-down on the same workload.
  auto queries = MakeSection72Queries(WindowDistribution3::kUniform, 0.5);
  for (auto& q : queries) q.window.extent /= 5;
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 15;
  const Workload workload = GenerateWorkload(spec);
  const auto avg_state = [&](SharingStrategy strategy) {
    Engine::Options options;
    options.strategy = strategy;
    return RunEngine(options, queries, workload)
        .AvgStateTuples(SecondsToTicks(6.0));
  };
  const double m1 = avg_state(SharingStrategy::kPullUp);
  const double m2 = avg_state(SharingStrategy::kPushDown);
  const double m3 = avg_state(SharingStrategy::kStateSlice);
  EXPECT_LE(m3, m1 + 1e-9);
  EXPECT_LE(m3, m2 + 1e-9);
}

}  // namespace
}  // namespace stateslice
