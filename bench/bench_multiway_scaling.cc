// Multi-way scaling bench: one shared left-deep join tree vs unshared
// per-query trees as the stream count grows from 2 (the paper's binary
// setting) to 4.
//
// For each stream count N, three queries with different windows join the
// same N streams. "shared" builds ONE state-slice tree serving all three
// (slice states and intermediate composite streams shared); "unshared"
// builds one single-query tree per query, each fed the full input — the
// multi-way analogue of the no-sharing baseline. Reported: ingest
// throughput (tuples per wall second), comparisons, and state memory.
//
//   $ ./bench/bench_multiway_scaling [--quick] [--json BENCH_....json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

// Three N-way queries over windows 2/4/6 s sharing the chain-adjacent
// join-tree prefix.
std::vector<ContinuousQuery> MakeQueries(int num_streams) {
  const double windows[] = {2.0, 4.0, 6.0};
  std::vector<ContinuousQuery> queries(3);
  for (int q = 0; q < 3; ++q) {
    queries[q].id = q;
    queries[q].name = "Q" + std::to_string(q + 1);
    queries[q].window = WindowSpec::TimeSeconds(windows[q]);
    if (num_streams > 2) {
      for (int s = 0; s < num_streams; ++s) {
        queries[q].stream_names.push_back("S" + std::to_string(s));
      }
    }
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 40 : 75;
  const double warmup_s = 10;
  const double rate = 25;
  const double s1 = 0.025;

  BenchReport report;
  report.bench = "multiway_scaling";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(warmup_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("s1", JsonScalar::Num(s1));

  std::printf("Multi-way scaling: 3 queries (2/4/6 s windows), %g t/s per "
              "stream, S1=%g, %g s\n\n", rate, s1, duration_s);
  std::printf("%8s %14s %14s %14s %14s %10s\n", "streams", "shared tu/s",
              "unshared tu/s", "shared cmp/s", "unshared cmp/s", "mem ratio");

  for (int num_streams : {2, 3, 4}) {
    WorkloadSpec wspec;
    wspec.rate_a = wspec.rate_b = rate;
    wspec.duration_s = duration_s;
    wspec.join_selectivity = s1;
    wspec.seed = 11 + static_cast<uint64_t>(num_streams);
    const MultiWorkload workload =
        GenerateMultiWorkload(wspec, num_streams);
    const std::vector<ContinuousQuery> queries = MakeQueries(num_streams);
    const std::vector<Tuple> arrivals = MergedArrivals(workload);
    Engine::Options options;
    options.condition = workload.condition;

    // Shared: one tree for all queries.
    const BenchRun shared_run =
        RunBench(options, queries, arrivals, warmup_s);

    // Unshared: one single-query tree per query, each fed the full input.
    double unshared_wall = 0, unshared_cmp_vsec = 0, unshared_mem = 0;
    double unshared_tuples = 0;
    for (const ContinuousQuery& q : queries) {
      const BenchRun run = RunBench(options, {q}, arrivals, warmup_s);
      unshared_wall += run.stats.wall_seconds;
      unshared_cmp_vsec += run.comparisons_per_vsec;
      unshared_mem += run.avg_state_tuples;
      unshared_tuples = static_cast<double>(run.stats.input_tuples);
    }

    const double shared_tuples =
        static_cast<double>(shared_run.stats.input_tuples);
    const double shared_tps =
        shared_run.stats.wall_seconds > 0
            ? shared_tuples / shared_run.stats.wall_seconds
            : 0;
    const double unshared_tps =
        unshared_wall > 0 ? unshared_tuples / unshared_wall : 0;
    const double mem_ratio =
        shared_run.avg_state_tuples > 0
            ? unshared_mem / shared_run.avg_state_tuples
            : 0;
    std::printf("%8d %14.0f %14.0f %14.0f %14.0f %9.2fx\n", num_streams,
                shared_tps, unshared_tps, shared_run.comparisons_per_vsec,
                unshared_cmp_vsec, mem_ratio);

    JsonObject& shared_row = report.AddRow();
    Set(&shared_row, "section", JsonScalar::Str("stream_count_scaling"));
    Set(&shared_row, "num_streams", JsonScalar::Num(num_streams));
    Set(&shared_row, "plan", JsonScalar::Str("shared_tree"));
    AddRunMetrics(&shared_row, shared_run);

    JsonObject& unshared_row = report.AddRow();
    Set(&unshared_row, "section", JsonScalar::Str("stream_count_scaling"));
    Set(&unshared_row, "num_streams", JsonScalar::Num(num_streams));
    Set(&unshared_row, "plan", JsonScalar::Str("unshared_per_query"));
    Set(&unshared_row, "input_tuples", JsonScalar::Num(unshared_tuples));
    Set(&unshared_row, "wall_seconds", JsonScalar::Num(unshared_wall));
    Set(&unshared_row, "throughput_tuples_per_wall_sec",
        JsonScalar::Num(unshared_tps));
    Set(&unshared_row, "comparisons_per_vsec",
        JsonScalar::Num(unshared_cmp_vsec));
    Set(&unshared_row, "avg_state_tuples", JsonScalar::Num(unshared_mem));
  }

  std::printf("\nexpected: the shared tree's comparisons and state stay "
              "well below 3x a single tree (level-0/1 states and composite "
              "streams shared), while unshared grows with the query "
              "count at every arity.\n");
  return FinishReport(args, report);
}
