// Shared helpers for the figure-reproduction benches.
//
// Every figure is measured under the Engine, the one driver of the
// library: RunBench registers the queries on a deterministic Engine and
// pushes the merged arrivals one at a time (auto_drain), which is CAPE's
// single-threaded round-robin discipline (paper Section 7.1). Plans the
// Engine deliberately does not build (hand-picked partitions,
// BuildOptions::use_key_index=false) run through RunBuiltPlan instead.
//
// Metric notes:
//  - State memory is counted in tuples, exactly as Figures 17(a-f).
//  - The paper's CPU unit is comparisons per time unit (Section 3). Our C++
//    runtime is per-event-overhead bound rather than per-comparison bound
//    (a 2006 Java engine spends far more per comparison), so Figure-18
//    service rates are reported on the paper's own unit: results delivered
//    per modeled CPU-second, where a modeled CPU performs kComparisonsPerSec
//    comparisons per second. Wall-clock service rate is printed alongside.
#ifndef STATESLICE_BENCH_BENCH_UTIL_H_
#define STATESLICE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
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
  double max_state_tuples = 0.0;
  double comparisons_per_vsec = 0.0;
  double steady_comparisons_per_vsec = 0.0;  // after warm-up
  double service_rate_modeled = 0.0;  // results per modeled CPU-second
  double service_rate_wall = 0.0;     // results per wall-clock second
};

// Fills the whole-run rates of `run` from its stats.
inline void DeriveRates(BenchRun* run) {
  run->comparisons_per_vsec = run->stats.ComparisonsPerVirtualSecond();
  const double cpu_seconds =
      static_cast<double>(run->stats.cost.Total()) / kComparisonsPerSec;
  run->service_rate_modeled =
      cpu_seconds > 0
          ? static_cast<double>(run->stats.results_delivered) / cpu_seconds
          : 0.0;
  run->service_rate_wall = run->stats.ServiceRate();
}

// Serves `queries` with an Engine built from `options` over `arrivals`
// (MergedArrivals of the workload: global timestamp order). The first
// `warmup_s` virtual seconds are excluded from the memory average and from
// the steady-state CPU rate.
inline BenchRun RunBench(const Engine::Options& options,
                         const std::vector<ContinuousQuery>& queries,
                         std::span<const Tuple> arrivals, double warmup_s) {
  Engine engine(options);
  for (const ContinuousQuery& q : queries) {
    if (!engine.RegisterQuery(q).valid()) {
      std::fprintf(stderr, "error: %s\n", engine.last_error().c_str());
      std::exit(1);
    }
  }
  const TimePoint warmup = SecondsToTicks(warmup_s);
  CostCounters at_warmup;
  bool warmed_up = false;
  for (const Tuple& t : arrivals) {
    // The plan is quiescent between pushes, so this is the cost of exactly
    // the arrivals before the warm-up boundary.
    if (!warmed_up && t.timestamp >= warmup) {
      at_warmup = engine.Snapshot().cost;
      warmed_up = true;
    }
    engine.Push(t.side, t);
  }
  engine.Finish();

  BenchRun run;
  run.stats = engine.Snapshot();
  // Memory is averaged over the sample_interval grid only. The Engine's
  // plan teardown appends one more sample at the last arrival's timestamp;
  // it is not a periodic observation, and counting it would weight the
  // end of the run (a grid-aligned duplicate keeps the grid sample).
  std::vector<MemorySample>& samples = run.stats.memory_samples;
  std::erase_if(samples, [&](const MemorySample& s) {
    return s.time % options.sample_interval != 0;
  });
  samples.erase(std::unique(samples.begin(), samples.end(),
                            [](const MemorySample& a, const MemorySample& b) {
                              return a.time == b.time;
                            }),
                samples.end());
  run.avg_state_tuples = run.stats.AvgStateTuples(warmup);
  run.max_state_tuples = static_cast<double>(run.stats.MaxStateTuples());
  DeriveRates(&run);
  const TimePoint end = run.stats.virtual_end_time;
  run.steady_comparisons_per_vsec =
      warmed_up && end > warmup
          ? static_cast<double>(run.stats.cost.Total() - at_warmup.Total()) /
                TicksToSeconds(end - warmup)
          : run.comparisons_per_vsec;
  return run;
}

// Builder-level arm for plans the Engine deliberately does not build:
// attaches the query sinks, replays `arrivals` through `built` with
// ReplayArrivals and reads the plan's counters and sinks. No memory is
// sampled and no warm-up cost is taken, so the state and steady-state
// fields are NaN (null in the JSON report: not measured).
inline BenchRun RunBuiltPlan(BuiltPlan* built,
                             std::span<const Tuple> arrivals) {
  AttachQuerySinks(built);
  BenchRun run;
  const auto start = std::chrono::steady_clock::now();
  run.stats.events_processed =
      ReplayArrivals(built->plan.get(), built->entry, arrivals);
  run.stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  run.stats.input_tuples = arrivals.size();
  run.stats.virtual_end_time = arrivals.empty() ? 0 : arrivals.back().timestamp;
  run.stats.cost = built->plan->cost_counters();
  for (const QuerySink* sink : built->sinks) {
    run.stats.results_delivered += sink->result_count();
  }
  DeriveRates(&run);
  run.avg_state_tuples = run.max_state_tuples =
      run.steady_comparisons_per_vsec = std::nan("");
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
  Set(row, "max_state_tuples", JsonScalar::Num(run.max_state_tuples));
}

// Row labels of the sharing strategies (Figures 17/18 name three).
inline const char* Name(SharingStrategy s) {
  switch (s) {
    case SharingStrategy::kPullUp:
      return "Selection-PullUp";
    case SharingStrategy::kPushDown:
      return "Selection-PushDown";
    case SharingStrategy::kStateSlice:
      return "State-Slice-Chain";
    case SharingStrategy::kUnshared:
      return "Unshared";
  }
  return "?";
}

}  // namespace stateslice::bench

#endif  // STATESLICE_BENCH_BENCH_UTIL_H_
