// Checkpoint bench: two arms.
//
//  1. ingest arm (the regression-gate metric): a plain streaming run over
//     the engine's ingestion path, which now carries STATESLICE_FAULT_POINT
//     hooks at every failure-prone seam. In a normal build those hooks
//     compile to ((void)0); this arm pins that claim by reporting
//     throughput_tuples_per_wall_sec, gated against bench/baseline.json
//     like every other bench. A regression here means the hooks stopped
//     being free.
//  2. snapshot arm: Checkpoint + Restore wall latency and snapshot size as
//     operator state grows (window extent sweep at fixed rate). These rows
//     carry no throughput metric so they stay out of the gate median.
//
//   $ ./bench/bench_checkpoint [--quick] [--json BENCH_checkpoint.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Engine::Options ChainOptions(const Workload& workload) {
  Engine::Options options;
  options.strategy = SharingStrategy::kStateSlice;
  options.condition = workload.condition;
  return options;
}

void RegisterWindows(Engine* engine, const std::vector<double>& windows_s) {
  for (double w : windows_s) {
    ContinuousQuery q;
    q.window = WindowSpec::TimeSeconds(w);
    const bool registered = engine->RegisterQuery(q).valid();
    SLICE_CHECK(registered);
  }
}

struct IngestOutcome {
  double wall_seconds = 0;
  uint64_t input_tuples = 0;
  uint64_t results = 0;
};

// Streams the whole workload through the engine with no checkpoints taken:
// every tuple crosses the engine.push fault seam, nothing else.
IngestOutcome RunIngest(const Workload& workload) {
  Engine engine(ChainOptions(workload));
  RegisterWindows(&engine, {2.0, 6.0, 10.0});
  std::vector<Tuple> merged = MergedArrivals(workload);
  const auto start = std::chrono::steady_clock::now();
  for (Tuple& t : merged) engine.Push(t.side, std::move(t));
  engine.Finish();
  IngestOutcome outcome;
  outcome.wall_seconds = Seconds(start);
  const RunStats stats = engine.Snapshot();
  outcome.input_tuples = stats.input_tuples;
  outcome.results = stats.results_delivered;
  return outcome;
}

struct SnapshotOutcome {
  uint64_t state_tuples = 0;
  size_t snapshot_bytes = 0;
  double checkpoint_ms = 0;
  double restore_ms = 0;
};

// Fills a chain with ~rate*2*window tuples of live state, then measures one
// Checkpoint and one Restore into a fresh engine.
SnapshotOutcome RunSnapshot(const Workload& workload, double window_s) {
  Engine engine(ChainOptions(workload));
  RegisterWindows(&engine, {window_s / 2, window_s});
  std::vector<Tuple> merged = MergedArrivals(workload);
  for (Tuple& t : merged) engine.Push(t.side, std::move(t));

  SnapshotOutcome outcome;
  for (const Engine::SliceInfo& s : engine.ChainSlices()) {
    outcome.state_tuples += s.state_tuples;
  }
  std::string snapshot;
  auto start = std::chrono::steady_clock::now();
  const bool checkpointed = engine.Checkpoint(&snapshot);
  SLICE_CHECK(checkpointed);
  outcome.checkpoint_ms = Seconds(start) * 1e3;
  outcome.snapshot_bytes = snapshot.size();

  Engine restored(ChainOptions(workload));
  start = std::chrono::steady_clock::now();
  const bool restored_ok = restored.Restore(snapshot);
  SLICE_CHECK(restored_ok);
  outcome.restore_ms = Seconds(start) * 1e3;
  SLICE_CHECK_EQ(restored.Snapshot().input_tuples,
                 engine.Snapshot().input_tuples);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 40 : 90;
  const double rate = 40;
  const int ingest_reps = 3;

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = rate;
  wspec.duration_s = duration_s;
  wspec.join_selectivity = 0.05;
  wspec.seed = 11;
  const Workload workload = GenerateWorkload(wspec);

  BenchReport report;
  report.bench = "checkpoint";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("s1", JsonScalar::Num(wspec.join_selectivity));
  report.SetConfig("ingest_reps", JsonScalar::Num(ingest_reps));

  std::printf("Checkpoint bench: %g s @ %g t/s per stream\n\n", duration_s,
              rate);
  std::printf("ingest arm (fault hooks compiled out):\n");
  std::printf("%6s %12s %12s\n", "rep", "tuples/sec", "results");
  for (int rep = 0; rep < ingest_reps; ++rep) {
    const IngestOutcome outcome = RunIngest(workload);
    const double throughput =
        outcome.wall_seconds > 0
            ? static_cast<double>(outcome.input_tuples) / outcome.wall_seconds
            : 0.0;
    std::printf("%6d %12.0f %12llu\n", rep, throughput,
                static_cast<unsigned long long>(outcome.results));
    JsonObject& row = report.AddRow();
    Set(&row, "arm", JsonScalar::Str("ingest"));
    Set(&row, "rep", JsonScalar::Num(rep));
    Set(&row, "input_tuples",
        JsonScalar::Num(static_cast<double>(outcome.input_tuples)));
    Set(&row, "results_delivered",
        JsonScalar::Num(static_cast<double>(outcome.results)));
    Set(&row, "wall_seconds", JsonScalar::Num(outcome.wall_seconds));
    Set(&row, "throughput_tuples_per_wall_sec", JsonScalar::Num(throughput));
  }

  std::printf("\nsnapshot arm (latency vs live state):\n");
  std::printf("%10s %12s %14s %14s %12s\n", "window s", "state tup",
              "checkpoint ms", "restore ms", "bytes");
  const double windows[] = {4.0, 16.0, static_cast<double>(duration_s) / 2};
  for (double window_s : windows) {
    const SnapshotOutcome outcome = RunSnapshot(workload, window_s);
    std::printf("%10g %12llu %14.2f %14.2f %12zu\n", window_s,
                static_cast<unsigned long long>(outcome.state_tuples),
                outcome.checkpoint_ms, outcome.restore_ms,
                outcome.snapshot_bytes);
    JsonObject& row = report.AddRow();
    Set(&row, "arm", JsonScalar::Str("snapshot"));
    Set(&row, "window_s", JsonScalar::Num(window_s));
    Set(&row, "state_tuples",
        JsonScalar::Num(static_cast<double>(outcome.state_tuples)));
    Set(&row, "checkpoint_ms", JsonScalar::Num(outcome.checkpoint_ms));
    Set(&row, "restore_ms", JsonScalar::Num(outcome.restore_ms));
    Set(&row, "snapshot_bytes",
        JsonScalar::Num(static_cast<double>(outcome.snapshot_bytes)));
  }

  std::printf("\nexpected: the ingest arm matches the other engine benches "
              "(the disabled fault hooks add zero instructions); snapshot "
              "latency and size grow linearly with live state while restore "
              "stays within a small factor of checkpoint (index rebuild on "
              "insert).\n");
  return FinishReport(args, report);
}
