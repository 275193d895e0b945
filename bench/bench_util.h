// Shared helpers for the figure-reproduction benches.
//
// Metric notes (see EXPERIMENTS.md):
//  - State memory is counted in tuples, exactly as Figures 17(a-f).
//  - The paper's CPU unit is comparisons per time unit (Section 3). Our C++
//    runtime is per-event-overhead bound rather than per-comparison bound
//    (a 2006 Java engine spends far more per comparison), so Figure-18
//    service rates are reported on the paper's own unit: results delivered
//    per modeled CPU-second, where a modeled CPU performs kComparisonsPerSec
//    comparisons per second. Wall-clock service rate is printed alongside.
#ifndef STATESLICE_BENCH_BENCH_UTIL_H_
#define STATESLICE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/stateslice.h"

namespace stateslice::bench {

// Nominal comparison throughput of the modeled CPU (used to convert
// measured comparison counts into the paper's service-rate unit).
inline constexpr double kComparisonsPerSec = 2.0e6;

// Outcome of one strategy run.
struct BenchRun {
  RunStats stats;
  double avg_state_tuples = 0.0;
  double comparisons_per_vsec = 0.0;
  double steady_comparisons_per_vsec = 0.0;  // after warm-up
  double service_rate_modeled = 0.0;  // results per modeled CPU-second
  double service_rate_wall = 0.0;     // results per wall-clock second
};

// Runs `built` over `workload`, registering every sink; warm-up for memory
// averaging and steady-state CPU accounting excludes the first `warmup_s`
// virtual seconds.
inline BenchRun RunBench(BuiltPlan* built, const Workload& workload,
                         double warmup_s) {
  StreamSource source_a("A", workload.stream_a);
  StreamSource source_b("B", workload.stream_b);
  ExecutorOptions exec_options;
  exec_options.cost_snapshot_time = SecondsToTicks(warmup_s);
  Executor exec(built->plan.get(),
                {{&source_a, built->entry}, {&source_b, built->entry}},
                exec_options);
  for (CountingSink* sink : built->sinks) {
    if (sink != nullptr) exec.AddSink(sink);
  }
  BenchRun run;
  run.stats = exec.Run();
  run.avg_state_tuples = run.stats.AvgStateTuples(SecondsToTicks(warmup_s));
  run.comparisons_per_vsec = run.stats.ComparisonsPerVirtualSecond();
  run.steady_comparisons_per_vsec =
      run.stats.SteadyComparisonsPerVirtualSecond();
  const double cpu_seconds =
      static_cast<double>(run.stats.cost.Total()) / kComparisonsPerSec;
  run.service_rate_modeled =
      cpu_seconds > 0
          ? static_cast<double>(run.stats.results_delivered) / cpu_seconds
          : 0.0;
  run.service_rate_wall = run.stats.ServiceRate();
  return run;
}

// Flattens one run's measurements into a report row: throughput, CPU in
// comparisons/s (total and steady-state), and state memory including the
// high-water mark. Used by every figure bench so the BENCH_*.json files
// share one metric vocabulary.
inline void AddRunMetrics(JsonObject* row, const BenchRun& run) {
  const double tuples = static_cast<double>(run.stats.input_tuples);
  Set(row, "input_tuples", JsonScalar::Num(tuples));
  Set(row, "events_processed",
      JsonScalar::Num(static_cast<double>(run.stats.events_processed)));
  Set(row, "results_delivered",
      JsonScalar::Num(static_cast<double>(run.stats.results_delivered)));
  Set(row, "wall_seconds", JsonScalar::Num(run.stats.wall_seconds));
  Set(row, "throughput_tuples_per_wall_sec",
      JsonScalar::Num(run.stats.wall_seconds > 0
                          ? tuples / run.stats.wall_seconds
                          : 0.0));
  Set(row, "service_rate_modeled", JsonScalar::Num(run.service_rate_modeled));
  Set(row, "service_rate_wall", JsonScalar::Num(run.service_rate_wall));
  Set(row, "comparisons_per_vsec", JsonScalar::Num(run.comparisons_per_vsec));
  Set(row, "steady_comparisons_per_vsec",
      JsonScalar::Num(run.steady_comparisons_per_vsec));
  Set(row, "total_comparisons",
      JsonScalar::Num(static_cast<double>(run.stats.cost.Total())));
  Set(row, "avg_state_tuples", JsonScalar::Num(run.avg_state_tuples));
  Set(row, "max_state_tuples",
      JsonScalar::Num(static_cast<double>(run.stats.MaxStateTuples())));
}

// The three shared strategies compared in Figures 17/18.
enum class Strategy { kPullUp, kPushDown, kStateSliceChain };

inline const char* Name(Strategy s) {
  switch (s) {
    case Strategy::kPullUp:
      return "Selection-PullUp";
    case Strategy::kPushDown:
      return "Selection-PushDown";
    case Strategy::kStateSliceChain:
      return "State-Slice-Chain";
  }
  return "?";
}

inline BuiltPlan BuildStrategy(Strategy s,
                               const std::vector<ContinuousQuery>& queries,
                               const BuildOptions& options) {
  switch (s) {
    case Strategy::kPullUp:
      return BuildPullUpPlan(queries, options);
    case Strategy::kPushDown:
      return BuildPushDownPlan(queries, options);
    case Strategy::kStateSliceChain:
      return BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  }
  SLICE_CHECK(false);
}

}  // namespace stateslice::bench

#endif  // STATESLICE_BENCH_BENCH_UTIL_H_
