// Ablation: tuple lineage (Section 6.1) on vs off.
//
// With many filtered queries sharing a chain, inter-slice filters evaluate
// a disjunction per A tuple per slice. Lineage stamps every predicate
// outcome once at chain entry (charged with the paper's early-stop
// discipline) and downgrades each inter-slice filter to a bitmask test.
// This bench measures filter comparisons and wall time for both modes
// across query counts, holding results identical (equivalence asserted).
//
//   $ ./bench/bench_lineage_ablation [--quick]
//         [--json BENCH_lineage_ablation.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

std::vector<ContinuousQuery> FilteredQueries(int n) {
  // n queries, windows 2..2n s, every query with its own selection band so
  // disjunctions do not collapse.
  std::vector<ContinuousQuery> queries(n);
  for (int q = 0; q < n; ++q) {
    queries[q].id = q;
    queries[q].name = "Q" + std::to_string(q + 1);
    queries[q].window = WindowSpec::TimeSeconds(2.0 * (q + 1));
    const double lo = static_cast<double>(q) / (2.0 * n);
    queries[q].selection_a = Predicate::Range(lo, lo + 0.5);
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 30 : 45;

  BenchReport report;
  report.bench = "lineage_ablation";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(20));
  report.SetConfig("rate", JsonScalar::Num(40));
  report.SetConfig("s1", JsonScalar::Num(0.1));

  std::printf("Lineage ablation (Section 6.1): per-tuple predicate "
              "evaluation vs once-at-entry stamping\n");
  std::printf("%8s | %16s %16s | %12s %12s | %10s\n", "queries",
              "filter cmp/s off", "filter cmp/s on", "wall ms off",
              "wall ms on", "results");
  for (int n : {2, 4, 8, 16, 32}) {
    const auto queries = FilteredQueries(n);
    WorkloadSpec wspec;
    wspec.rate_a = wspec.rate_b = 40;
    wspec.duration_s = duration_s;
    wspec.join_selectivity = 0.1;
    wspec.seed = 42;
    const Workload workload = GenerateWorkload(wspec);

    const std::vector<Tuple> arrivals = MergedArrivals(workload);
    BenchRun runs[2];
    for (int mode = 0; mode < 2; ++mode) {
      Engine::Options options;
      options.condition = workload.condition;
      options.use_lineage = mode == 1;
      runs[mode] = RunBench(options, queries, arrivals, 20);
    }
    SLICE_CHECK_EQ(runs[0].stats.results_delivered,
                   runs[1].stats.results_delivered);
    const double secs = TicksToSeconds(runs[0].stats.virtual_end_time);
    for (int mode = 0; mode < 2; ++mode) {
      JsonObject& row = report.AddRow();
      Set(&row, "num_queries", JsonScalar::Num(n));
      Set(&row, "lineage", JsonScalar::Bool(mode == 1));
      Set(&row, "filter_comparisons_per_vsec",
          JsonScalar::Num(runs[mode].stats.cost.Get(CostCategory::kFilter) /
                          secs));
      AddRunMetrics(&row, runs[mode]);
    }
    std::printf("%8d | %16.0f %16.0f | %12.1f %12.1f | %10llu\n", n,
                runs[0].stats.cost.Get(CostCategory::kFilter) / secs,
                runs[1].stats.cost.Get(CostCategory::kFilter) / secs,
                runs[0].stats.wall_seconds * 1e3,
                runs[1].stats.wall_seconds * 1e3,
                static_cast<unsigned long long>(
                    runs[0].stats.results_delivered));
  }
  std::printf("\nexpected: identical results; lineage turns the per-slice "
              "disjunction evaluations into one early-stop pass per tuple, "
              "so filter comparisons grow much more slowly with the query "
              "count.\n");
  return FinishReport(args, report);
}
