// Validates the analytic cost model (Eqs. 1-3) against measured comparison
// counts and state sizes of the executable plans, on the two-query running
// example of Section 3 (Q1 = A[w1] |x| B[w1], Q2 = sigma(A)[w2] |x| B[w2]).
//
// For each parameter setting the bench prints predicted vs measured:
//   - state memory (tuples, time-averaged after warm-up), and
//   - CPU cost (comparisons per virtual second).
// Deviations beyond Poisson noise would indicate an implementation that
// does not execute the strategies the paper analyzes.
//
//   $ ./bench/bench_cost_model_validation [--quick]
//         [--json BENCH_cost_model_validation.json]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct Setting {
  double w1, w2, s_sigma, s1, rate;
};

constexpr Setting kSettings[] = {
    {5, 20, 0.5, 0.1, 40},    {5, 20, 0.2, 0.1, 40},
    {5, 20, 0.8, 0.1, 40},    {10, 30, 0.5, 0.025, 40},
    {2, 25, 0.5, 0.1, 40},    {5, 20, 0.5, 0.4, 30},
    {5, 20, 0.5, 0.1, 80},
};

std::vector<ContinuousQuery> TwoQueries(const Setting& s) {
  std::vector<ContinuousQuery> queries(2);
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(s.w1);
  queries[1].id = 1;
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(s.w2);
  queries[1].selection_a = Predicate::WithSelectivity(s.s_sigma);
  return queries;
}

void Report(BenchReport* report, const Setting& s, const char* strategy,
            const CostEstimate& predicted, const BenchRun& run) {
  const double mem_err =
      100.0 * (run.avg_state_tuples - predicted.memory_tuples) /
      predicted.memory_tuples;
  const double cpu_err =
      100.0 * (run.steady_comparisons_per_vsec - predicted.cpu_per_sec) /
      predicted.cpu_per_sec;
  std::printf("  %-22s mem %7.0f vs %7.0f tu (%+5.1f%%)   cpu %9.0f vs "
              "%9.0f cmp/s (%+5.1f%%)\n",
              strategy, predicted.memory_tuples, run.avg_state_tuples,
              mem_err, predicted.cpu_per_sec,
              run.steady_comparisons_per_vsec, cpu_err);
  JsonObject& row = report->AddRow();
  Set(&row, "w1", JsonScalar::Num(s.w1));
  Set(&row, "w2", JsonScalar::Num(s.w2));
  Set(&row, "s_sigma", JsonScalar::Num(s.s_sigma));
  Set(&row, "s1", JsonScalar::Num(s.s1));
  Set(&row, "rate", JsonScalar::Num(s.rate));
  Set(&row, "strategy", JsonScalar::Str(strategy));
  Set(&row, "predicted_memory_tuples", JsonScalar::Num(predicted.memory_tuples));
  Set(&row, "predicted_cpu_per_sec", JsonScalar::Num(predicted.cpu_per_sec));
  Set(&row, "memory_error_pct", JsonScalar::Num(mem_err));
  Set(&row, "cpu_error_pct", JsonScalar::Num(cpu_err));
  AddRunMetrics(&row, run);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 60 : 90;

  BenchReport report;
  report.bench = "cost_model_validation";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));

  std::printf("Cost-model validation: predicted (Eqs. 1-3) vs measured\n");
  std::printf("(%g-second runs; warm-up = w2; expect single-digit %% "
              "deviations,\n"
              "purge slightly above the model's 1-comparison-per-arrival "
              "idealization)\n\n", duration_s);
  for (const Setting& s : kSettings) {
    std::printf("w1=%g w2=%g Ss=%g S1=%g rate=%g:\n", s.w1, s.w2, s.s_sigma,
                s.s1, s.rate);
    const auto queries = TwoQueries(s);
    TwoQueryParams p;
    p.lambda = s.rate;
    p.w1 = s.w1;
    p.w2 = s.w2;
    p.s_sigma = s.s_sigma;
    p.s1 = s.s1;

    WorkloadSpec wspec;
    wspec.rate_a = wspec.rate_b = s.rate;
    wspec.duration_s = duration_s;
    wspec.join_selectivity = s.s1;
    wspec.seed = 7;
    const Workload workload = GenerateWorkload(wspec);
    const std::vector<Tuple> arrivals = MergedArrivals(workload);
    Engine::Options options;
    options.condition = workload.condition;
    const struct {
      SharingStrategy strategy;
      CostEstimate predicted;
    } arms[] = {{SharingStrategy::kPullUp, PullUpCost(p)},
                {SharingStrategy::kPushDown, PushDownCost(p)},
                {SharingStrategy::kStateSlice, StateSliceCost(p)}};
    for (const auto& arm : arms) {
      options.strategy = arm.strategy;
      Report(&report, s, Name(arm.strategy), arm.predicted,
             RunBench(options, queries, arrivals, s.w2));
    }
    std::printf("\n");
  }
  return FinishReport(args, report);
}
