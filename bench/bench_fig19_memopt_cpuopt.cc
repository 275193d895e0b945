// Figure 19 — Mem-Opt vs CPU-Opt chain service-rate comparison over the
// Section 7.3 workloads (Table 4 window distributions, no selections,
// S1 = 0.025, 12/24/36 queries).
//
// Panels (as in the paper):
//   (a) Uniform,      12 queries
//   (b) Mostly-Small, 12 queries
//   (c) Small-Large,  12 queries
//   (d) Small-Large,  24 queries
//   (e) Small-Large,  36 queries
//
// The Mem-Opt/CPU-Opt gap is driven by per-operator overheads (more slices
// mean more purging, queue hops and union punctuations), which is exactly
// what this runtime's wall clock measures, so wall-clock service rate is
// the primary metric here. Events processed per input tuple is printed as
// the overhead proxy, plus comparisons/s for completeness.
//
//   $ ./bench/bench_fig19_memopt_cpuopt [--quick]
//         [--json BENCH_fig19_memopt_cpuopt.json]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct Panel {
  const char* label;
  WindowDistributionN dist;
  int num_queries;
};

constexpr Panel kPanels[] = {
    {"(a) Uniform, 12 queries", WindowDistributionN::kUniformN, 12},
    {"(b) Mostly-Small, 12 queries", WindowDistributionN::kMostlySmallN, 12},
    {"(c) Small-Large, 12 queries", WindowDistributionN::kSmallLargeN, 12},
    {"(d) Small-Large, 24 queries", WindowDistributionN::kSmallLargeN, 24},
    {"(e) Small-Large, 36 queries", WindowDistributionN::kSmallLargeN, 36},
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 30 : 90;
  const double rates[] = {20, 40, 60, 80};
  constexpr double kS1 = 0.025;

  BenchReport report;
  report.bench = "fig19_memopt_cpuopt";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(30));
  report.SetConfig("s1", JsonScalar::Num(kS1));
  report.SetConfig("repetitions", JsonScalar::Num(2));

  std::printf("Figure 19: Mem-Opt vs CPU-Opt chains, S1=%.3f, %g-second "
              "runs (best of 2)\n\n", kS1, duration_s);
  for (const Panel& panel : kPanels) {
    const auto queries = MakeSection73Queries(panel.dist, panel.num_queries);
    std::printf("=== %s ===\n", panel.label);
    // Both chains are fixed per query set, like the paper's fixed shared
    // plans; the optimizer is calibrated at the 40 t/s midpoint. The
    // Engine builds the same chains from its objective and cost_params.
    ChainCostParams params;
    params.lambda_a = params.lambda_b = 40;
    params.s1 = kS1;
    const ChainPlan mem_opt = BuildMemOptChain(queries);
    const ChainPlan cpu_opt = BuildCpuOptChain(queries, params);
    std::printf("  chains: Mem-Opt %d slices, CPU-Opt %d slices\n",
                mem_opt.partition.num_slices(),
                cpu_opt.partition.num_slices());
    std::printf("%6s | %14s %14s | %12s %12s | %12s %12s\n", "rate",
                "MemOpt wall/s", "CpuOpt wall/s", "MemOpt ev/tu",
                "CpuOpt ev/tu", "MemOpt cmp/s", "CpuOpt cmp/s");
    for (double rate : rates) {
      WorkloadSpec wspec;
      wspec.rate_a = wspec.rate_b = rate;
      wspec.duration_s = duration_s;
      wspec.join_selectivity = kS1;
      wspec.seed = 19000 + static_cast<uint64_t>(rate);
      const Workload workload = GenerateWorkload(wspec);
      const std::vector<Tuple> arrivals = MergedArrivals(workload);
      Engine::Options mem_options;
      mem_options.condition = workload.condition;
      Engine::Options cpu_options = mem_options;
      cpu_options.objective = ChainObjective::kCpuOpt;
      cpu_options.cost_params = params;

      // Two repetitions, keep the faster wall clock (scheduling noise).
      BenchRun mem_run, cpu_run;
      for (int rep = 0; rep < 2; ++rep) {
        const BenchRun r1 = RunBench(mem_options, queries, arrivals, 30);
        if (rep == 0 || r1.stats.wall_seconds < mem_run.stats.wall_seconds) {
          mem_run = r1;
        }
        const BenchRun r2 = RunBench(cpu_options, queries, arrivals, 30);
        if (rep == 0 || r2.stats.wall_seconds < cpu_run.stats.wall_seconds) {
          cpu_run = r2;
        }
      }

      const double mem_ev =
          static_cast<double>(mem_run.stats.events_processed) /
          static_cast<double>(mem_run.stats.input_tuples);
      const double cpu_ev =
          static_cast<double>(cpu_run.stats.events_processed) /
          static_cast<double>(cpu_run.stats.input_tuples);
      const struct {
        const char* chain;
        int slices;
        const BenchRun* run;
        double events_per_tuple;
      } outcomes[] = {
          {"mem_opt", mem_opt.partition.num_slices(), &mem_run, mem_ev},
          {"cpu_opt", cpu_opt.partition.num_slices(), &cpu_run, cpu_ev},
      };
      for (const auto& outcome : outcomes) {
        JsonObject& row = report.AddRow();
        Set(&row, "panel", JsonScalar::Str(panel.label));
        Set(&row, "num_queries", JsonScalar::Num(panel.num_queries));
        Set(&row, "rate", JsonScalar::Num(rate));
        Set(&row, "chain", JsonScalar::Str(outcome.chain));
        Set(&row, "num_slices", JsonScalar::Num(outcome.slices));
        Set(&row, "events_per_tuple",
            JsonScalar::Num(outcome.events_per_tuple));
        AddRunMetrics(&row, *outcome.run);
      }
      std::printf("%6.0f | %14.0f %14.0f | %12.1f %12.1f | %12.0f %12.0f\n",
                  rate, mem_run.service_rate_wall, cpu_run.service_rate_wall,
                  mem_ev, cpu_ev, mem_run.comparisons_per_vsec,
                  cpu_run.comparisons_per_vsec);
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): (a) CPU-Opt == Mem-Opt for uniform windows;\n"
      "(b)/(c) CPU-Opt merges the packed windows and wins ~20-30%%; the\n"
      "advantage grows with the number of queries ((d) and (e)).\n");
  return FinishReport(args, report);
}
