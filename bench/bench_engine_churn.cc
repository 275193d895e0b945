// Engine churn bench: how fast can queries enter/leave a live session, and
// what does steady-state ingestion throughput look like *while* the
// workload churns?
//
// For each configuration the bench opens one long-lived Engine, registers
// an initial query set, then streams a Poisson workload while
// registering/unregistering a query at a fixed virtual-time cadence
// (alternating, so the active set stays near its initial size). It
// reports:
//   - churn_ops_per_sec: churn operations per wall second, measured over
//     the register/unregister calls alone (migration/rebuild latency);
//   - throughput_tuples_per_wall_sec: end-to-end ingestion throughput of
//     the whole churning run (the regression-gate metric);
//   - migrations / rebuilds: which path served the churn.
//
// Configurations cover the in-place ChainMigrator path (state-slice,
// selection-free) and the drain-rebuild path (pull-up).
//
//   $ ./bench/bench_engine_churn [--quick] [--json BENCH_engine_churn.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct ChurnOutcome {
  double wall_seconds = 0;
  double churn_wall_seconds = 0;
  int churn_ops = 0;
  uint64_t input_tuples = 0;
  uint64_t results = 0;
  uint64_t migrations = 0;
  uint64_t rebuilds = 0;
};

ChurnOutcome RunChurn(SharingStrategy strategy, const Workload& workload,
                      double churn_period_s) {
  Engine::Options options;
  options.strategy = strategy;
  options.condition = workload.condition;
  Engine engine(options);

  // Initial set: four selection-free queries (keeps the state-slice
  // configuration migration-eligible).
  std::vector<QueryHandle> extra;
  for (double w : {2.0, 6.0, 10.0, 14.0}) {
    ContinuousQuery q;
    q.window = WindowSpec::TimeSeconds(w);
    const QueryHandle h = engine.RegisterQuery(q);
    SLICE_CHECK(h.valid());
  }

  std::vector<Tuple> merged = MergedArrivals(workload);

  ChurnOutcome outcome;
  TimePoint next_churn = SecondsToTicks(churn_period_s);
  // Rotate through interior windows so registrations keep splitting (and
  // compaction keeps merging) different boundaries.
  const double windows[] = {4.0, 8.0, 12.0, 5.0, 9.0, 13.0};
  size_t next_window = 0;
  const auto run_start = std::chrono::steady_clock::now();
  for (Tuple& t : merged) {
    if (t.timestamp >= next_churn) {
      const auto churn_start = std::chrono::steady_clock::now();
      if (extra.empty()) {
        ContinuousQuery q;
        q.window = WindowSpec::TimeSeconds(
            windows[next_window++ % (sizeof(windows) / sizeof(windows[0]))]);
        const QueryHandle h = engine.RegisterQuery(q);
        SLICE_CHECK(h.valid());
        extra.push_back(h);
      } else {
        const bool removed = engine.UnregisterQuery(extra.back());
        SLICE_CHECK(removed);
        extra.pop_back();
        engine.CompactChain();
      }
      outcome.churn_wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        churn_start)
              .count();
      ++outcome.churn_ops;
      next_churn += SecondsToTicks(churn_period_s);
    }
    engine.Push(t.side, std::move(t));
  }
  engine.Finish();
  outcome.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run_start)
                             .count();
  const RunStats stats = engine.Snapshot();
  outcome.input_tuples = stats.input_tuples;
  outcome.results = stats.results_delivered;
  outcome.migrations = engine.migrations();
  outcome.rebuilds = engine.rebuilds();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 40 : 90;
  const double rate = 40;
  const double churn_period_s = args.quick ? 4 : 5;

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = rate;
  wspec.duration_s = duration_s;
  wspec.join_selectivity = 0.05;
  wspec.seed = 7;
  const Workload workload = GenerateWorkload(wspec);

  BenchReport report;
  report.bench = "engine_churn";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("s1", JsonScalar::Num(wspec.join_selectivity));
  report.SetConfig("churn_period_s", JsonScalar::Num(churn_period_s));
  report.SetConfig("initial_queries", JsonScalar::Num(4));

  struct Config {
    const char* name;
    SharingStrategy strategy;
  };
  const Config configs[] = {
      {"slice-migrate", SharingStrategy::kStateSlice},
      {"pullup-rebuild", SharingStrategy::kPullUp},
  };

  std::printf("Engine churn: %g s @ %g t/s per stream, one churn op every "
              "%g virtual s\n\n", duration_s, rate, churn_period_s);
  std::printf("%16s %10s %12s %12s %10s %10s\n", "config", "churn ops",
              "ops/sec", "tuples/sec", "migrations", "rebuilds");
  for (const Config& config : configs) {
    const ChurnOutcome outcome =
        RunChurn(config.strategy, workload, churn_period_s);
    const double ops_per_sec =
        outcome.churn_wall_seconds > 0
            ? outcome.churn_ops / outcome.churn_wall_seconds
            : 0.0;
    const double throughput =
        outcome.wall_seconds > 0
            ? static_cast<double>(outcome.input_tuples) /
                  outcome.wall_seconds
            : 0.0;
    std::printf("%16s %10d %12.0f %12.0f %10llu %10llu\n", config.name,
                outcome.churn_ops, ops_per_sec, throughput,
                static_cast<unsigned long long>(outcome.migrations),
                static_cast<unsigned long long>(outcome.rebuilds));
    JsonObject& row = report.AddRow();
    Set(&row, "config", JsonScalar::Str(config.name));
    Set(&row, "churn_ops", JsonScalar::Num(outcome.churn_ops));
    Set(&row, "churn_ops_per_sec", JsonScalar::Num(ops_per_sec));
    Set(&row, "churn_wall_seconds",
        JsonScalar::Num(outcome.churn_wall_seconds));
    Set(&row, "input_tuples",
        JsonScalar::Num(static_cast<double>(outcome.input_tuples)));
    Set(&row, "results_delivered",
        JsonScalar::Num(static_cast<double>(outcome.results)));
    Set(&row, "wall_seconds", JsonScalar::Num(outcome.wall_seconds));
    Set(&row, "throughput_tuples_per_wall_sec", JsonScalar::Num(throughput));
    Set(&row, "migrations",
        JsonScalar::Num(static_cast<double>(outcome.migrations)));
    Set(&row, "rebuilds",
        JsonScalar::Num(static_cast<double>(outcome.rebuilds)));
  }
  std::printf("\nexpected: slice-migrate serves churn almost entirely in "
              "place (migrations >> rebuilds) so no operator state is ever "
              "rebuilt and surviving queries see zero result gap; "
              "pullup-rebuild flushes and rebuilds its (single-join) plan "
              "per op, resetting its window state each time.\n");
  return FinishReport(args, report);
}
