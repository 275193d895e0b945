// Sharded-runtime scaling bench: key-partitioned shards against the
// deterministic single-threaded scheduler on a Zipf-skewed equi-join
// workload.
//
// The sharded runtime replicates the whole chain per key partition: every
// shard processes its keys independently on its own fixed worker, and the
// skewed (hot-key) shard's full ring makes the feeder wait, so the hot key
// serializes on its shard. This bench runs the same Engine workload under
// the deterministic scheduler (result oracle + 1x reference) and the
// sharded runtime at 1/2/4/8 shards, reporting ingest throughput and each
// row's speedup over deterministic mode.
//
// The speedups are recorded, not asserted: they depend on the machine.
// Result equality with the deterministic run is always CHECKed.
//
//   $ ./bench/bench_shard_scaling [--quick] [--json BENCH_....json]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct ShardRun {
  double wall_seconds = 0;
  uint64_t input_tuples = 0;
  uint64_t results = 0;
  int workers = 1;
};

// One Engine run over the merged arrivals. Each run builds a fresh
// Engine (join state is stateful) with the same four selection-free
// time-window queries sharing one Mem-Opt sliced chain.
ShardRun RunOnce(const Workload& workload, ExecutionMode mode, int shards,
                 size_t edge_capacity) {
  Engine::Options options;
  options.condition = workload.condition;
  options.mode = mode;
  options.shard_count = shards;
  options.parallel_edge_capacity = edge_capacity;
  Engine engine(options);
  for (double w : {2.0, 6.0, 10.0, 14.0}) {
    ContinuousQuery q;
    q.window = WindowSpec::TimeSeconds(w);
    const bool registered = engine.RegisterQuery(q).valid();
    SLICE_CHECK(registered);
  }

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const auto start = std::chrono::steady_clock::now();
  for (const Tuple& t : merged) {
    engine.Push(t.side, t);
  }
  engine.Finish();
  ShardRun out;
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  const RunStats stats = engine.Snapshot();
  out.input_tuples = stats.input_tuples;
  out.results = stats.results_delivered;
  out.workers = stats.worker_threads;
  return out;
}

double Throughput(const ShardRun& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.input_tuples) / r.wall_seconds
             : 0.0;
}

void AddRow(BenchReport* report, const char* mode, int workers,
            const ShardRun& run, double vs_deterministic) {
  JsonObject& row = report->AddRow();
  Set(&row, "mode", JsonScalar::Str(mode));
  Set(&row, "workers", JsonScalar::Num(workers));
  Set(&row, "input_tuples",
      JsonScalar::Num(static_cast<double>(run.input_tuples)));
  Set(&row, "results_delivered",
      JsonScalar::Num(static_cast<double>(run.results)));
  Set(&row, "wall_seconds", JsonScalar::Num(run.wall_seconds));
  Set(&row, "throughput_tuples_per_wall_sec",
      JsonScalar::Num(Throughput(run)));
  Set(&row, "speedup_vs_deterministic", JsonScalar::Num(vs_deterministic));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 30 : 90;
  const double rate = 60;
  const int64_t key_domain = 16;
  const double zipf_s = 1.2;  // hottest key draws ~40% of arrivals
  // Small ingress rings put the hot shard under backpressure.
  const size_t edge_capacity = 32;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = rate;
  wspec.duration_s = duration_s;
  wspec.seed = 23;
  Workload workload = GenerateWorkload(wspec);
  RekeyForEquiJoinZipf(&workload, key_domain, zipf_s, /*key_seed=*/97);

  BenchReport report;
  report.bench = "shard_scaling";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("key_domain", JsonScalar::Num(
      static_cast<double>(key_domain)));
  report.SetConfig("zipf_s", JsonScalar::Num(zipf_s));
  report.SetConfig("edge_capacity", JsonScalar::Num(
      static_cast<double>(edge_capacity)));
  report.SetConfig("num_queries", JsonScalar::Num(4));
  report.SetConfig("hardware_concurrency", JsonScalar::Num(hw));

  std::printf("sharded scaling (4 shared-chain queries, Zipf(%g) keys over "
              "%lld, %g t/s, %g s, %u hardware threads)\n\n",
              zipf_s, static_cast<long long>(key_domain), rate, duration_s,
              hw);

  const ShardRun det =
      RunOnce(workload, ExecutionMode::kDeterministic, 1, edge_capacity);
  const double det_tput = Throughput(det);

  std::printf("%-14s %8s %14s %12s\n", "mode", "workers", "tuples/s",
              "vs determ.");
  std::printf("%-14s %8d %14.0f %11.2fx\n", "deterministic", 1, det_tput,
              1.0);
  AddRow(&report, "deterministic", 1, det, 1.0);

  double sharded4_speedup = 0.0;
  for (const int shards : {1, 2, 4, 8}) {
    const ShardRun run =
        RunOnce(workload, ExecutionMode::kSharded, shards, edge_capacity);
    // Every shard count must deliver exactly the deterministic answer.
    SLICE_CHECK_EQ(run.results, det.results);
    const double speedup = det_tput > 0 ? Throughput(run) / det_tput : 0.0;
    if (shards == 4) sharded4_speedup = speedup;
    std::printf("%-14s %8d %14.0f %11.2fx\n",
                ("sharded-" + std::to_string(shards)).c_str(), run.workers,
                Throughput(run), speedup);
    AddRow(&report, "sharded", shards, run, speedup);
  }
  report.SetConfig("sharded4_speedup_vs_deterministic",
                   JsonScalar::Num(sharded4_speedup));

  std::printf("\nsharded-4 runs at %.2fx deterministic; the Zipf hot key "
              "serializes on its shard's worker.\n",
              sharded4_speedup);
  return FinishReport(args, report);
}
