// Ablation bench: how the chain's slice count drives overhead, and how the
// sharing strategies scale with the number of registered queries.
//
// Part 1 sweeps the number of slices for a fixed workload (all partitions
// of a 12-boundary chain into k equal groups) and reports events, purge
// comparisons and routing comparisons per input tuple — the terms the
// CPU-Opt optimizer (Section 5.2) trades against each other. It also
// prints the measured per-event overhead relative to one probe comparison,
// which is the empirical basis for ChainCostParams::c_sys.
//
// Part 2 scales the query count (all sharing a chain vs unshared joins) to
// show the multi-query scalability motivation of Section 1.
//
//   $ ./bench/bench_chain_scaling [--quick] [--json BENCH_chain_scaling.json]
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

ChainPartition GroupedPartition(int boundaries, int groups) {
  ChainPartition p;
  for (int g = 1; g <= groups; ++g) {
    int end = boundaries * g / groups - 1;
    if (!p.slice_end_boundaries.empty() &&
        end <= p.slice_end_boundaries.back()) {
      end = p.slice_end_boundaries.back() + 1;
    }
    p.slice_end_boundaries.push_back(end);
  }
  p.slice_end_boundaries.back() = boundaries - 1;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  // Warm-up is 30 virtual seconds everywhere, so quick runs must stay
  // above it; they trade steady-state window for wall time.
  const double part1_duration_s = args.quick ? 45 : 60;
  const double part2_duration_s = args.quick ? 35 : 45;

  BenchReport report;
  report.bench = "chain_scaling";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("part1_duration_s", JsonScalar::Num(part1_duration_s));
  report.SetConfig("part2_duration_s", JsonScalar::Num(part2_duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(30));
  report.SetConfig("rate", JsonScalar::Num(40));
  report.SetConfig("s1", JsonScalar::Num(0.025));

  // ---------------- Part 1: slice count vs overhead --------------------
  const auto queries =
      MakeSection73Queries(WindowDistributionN::kUniformN, 12);
  const ChainSpec spec = BuildChainSpec(queries);
  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = 40;
  wspec.duration_s = part1_duration_s;
  wspec.join_selectivity = 0.025;
  wspec.seed = 5;
  const Workload workload = GenerateWorkload(wspec);
  const std::vector<Tuple> arrivals = MergedArrivals(workload);
  BuildOptions options;
  options.condition = workload.condition;

  std::printf("Part 1: overhead vs slice count (12 uniform queries, 40 t/s, "
              "S1=0.025, %g s)\n", wspec.duration_s);
  std::printf("%7s %12s %12s %12s %12s %12s\n", "slices", "events/tu",
              "purge/tu", "route/tu", "probe/tu", "wall ms");
  for (int groups : {1, 2, 3, 4, 6, 12}) {
    ChainPlan chain;
    chain.spec = spec;
    chain.partition = GroupedPartition(spec.num_boundaries(), groups);
    ValidatePartition(chain.spec, chain.partition);
    // Hand-picked partitions are builder-level: the Engine builds only the
    // Mem-Opt and CPU-Opt chains.
    BuiltPlan built = BuildStateSlicePlan(queries, chain, options);
    const BenchRun run = RunBuiltPlan(&built, arrivals);
    const double tuples = static_cast<double>(run.stats.input_tuples);
    std::printf("%7d %12.1f %12.2f %12.2f %12.1f %12.1f\n",
                chain.partition.num_slices(),
                run.stats.events_processed / tuples,
                run.stats.cost.Get(CostCategory::kPurge) / tuples,
                run.stats.cost.Get(CostCategory::kRoute) / tuples,
                run.stats.cost.Get(CostCategory::kProbe) / tuples,
                run.stats.wall_seconds * 1e3);
    JsonObject& row = report.AddRow();
    Set(&row, "section", JsonScalar::Str("slice_count_overhead"));
    Set(&row, "num_slices", JsonScalar::Num(chain.partition.num_slices()));
    Set(&row, "events_per_tuple",
        JsonScalar::Num(run.stats.events_processed / tuples));
    Set(&row, "purge_per_tuple",
        JsonScalar::Num(run.stats.cost.Get(CostCategory::kPurge) / tuples));
    Set(&row, "route_per_tuple",
        JsonScalar::Num(run.stats.cost.Get(CostCategory::kRoute) / tuples));
    Set(&row, "probe_per_tuple",
        JsonScalar::Num(run.stats.cost.Get(CostCategory::kProbe) / tuples));
    AddRunMetrics(&row, run);
  }

  // c_sys calibration: time one probe comparison and one queue hop.
  {
    JoinState js(WindowSpec::Count(4096));
    for (int i = 0; i < 4096; ++i) {
      Tuple t;
      t.side = StreamSide::kA;
      t.seq = i;
      t.timestamp = i;
      t.key = i % 16;
      js.Insert(t);
    }
    Tuple probe;
    probe.side = StreamSide::kB;
    probe.key = 3;
    const JoinCondition cond = JoinCondition::EquiKey();
    std::vector<Tuple> matches;
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t comparisons = 0;
    for (int i = 0; i < 2000; ++i) {
      matches.clear();
      comparisons +=
          js.Probe(probe, cond,
                   [&matches](const Tuple& e) { matches.push_back(e); })
              .comparisons;
    }
    const auto t1 = std::chrono::steady_clock::now();
    EventQueue q("q");
    const auto t2 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000000; ++i) {
      q.Push(probe);
      q.Pop();
    }
    const auto t3 = std::chrono::steady_clock::now();
    const double ns_per_cmp =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(comparisons);
    const double ns_per_hop =
        std::chrono::duration<double, std::nano>(t3 - t2).count() / 1e6;
    std::printf("\ncalibration: %.2f ns/probe-comparison, %.1f ns/queue-hop "
                "=> c_sys ~ %.0f comparison-equivalents/hop\n",
                ns_per_cmp, ns_per_hop, ns_per_hop / ns_per_cmp);
    JsonObject& row = report.AddRow();
    Set(&row, "section", JsonScalar::Str("c_sys_calibration"));
    Set(&row, "ns_per_probe_comparison", JsonScalar::Num(ns_per_cmp));
    Set(&row, "ns_per_queue_hop", JsonScalar::Num(ns_per_hop));
    Set(&row, "c_sys_comparison_equivalents",
        JsonScalar::Num(ns_per_hop / ns_per_cmp));
  }

  // ---------------- Part 2: query-count scalability ---------------------
  std::printf("\nPart 2: scaling the number of shared queries "
              "(Small-Large windows, 40 t/s, S1=0.025, %g s)\n",
              part2_duration_s);
  std::printf("%8s %16s %16s %16s\n", "queries", "chain cmp/s",
              "unshared cmp/s", "chain/unshared");
  for (int n : {4, 8, 12, 24, 36}) {
    const auto qs = MakeSection73Queries(WindowDistributionN::kSmallLargeN, n);
    WorkloadSpec w2 = wspec;
    w2.duration_s = part2_duration_s;
    const Workload load = GenerateWorkload(w2);
    const std::vector<Tuple> load_arrivals = MergedArrivals(load);
    Engine::Options opt;
    opt.condition = load.condition;
    const BenchRun chain_run = RunBench(opt, qs, load_arrivals, 30);
    opt.strategy = SharingStrategy::kUnshared;
    const BenchRun unshared_run = RunBench(opt, qs, load_arrivals, 30);
    std::printf("%8d %16.0f %16.0f %15.2fx\n", n,
                chain_run.comparisons_per_vsec,
                unshared_run.comparisons_per_vsec,
                unshared_run.comparisons_per_vsec /
                    chain_run.comparisons_per_vsec);
    const struct {
      const char* plan;
      const BenchRun* run;
    } outcomes[] = {{"chain", &chain_run}, {"unshared", &unshared_run}};
    for (const auto& outcome : outcomes) {
      JsonObject& row = report.AddRow();
      Set(&row, "section", JsonScalar::Str("query_count_scaling"));
      Set(&row, "num_queries", JsonScalar::Num(n));
      Set(&row, "plan", JsonScalar::Str(outcome.plan));
      AddRunMetrics(&row, *outcome.run);
    }
  }
  std::printf("\nexpected: chain comparisons stay ~flat with query count "
              "(states shared), unshared grows ~linearly; per-slice "
              "overhead terms grow with slice count, routing with merged "
              "span — the CPU-Opt trade-off.\n");
  return FinishReport(args, report);
}
