// Figure 17 — measured state-memory comparison (tuples) of the three
// sharing strategies over the Section 7.2 workload grid.
//
// Panels (as in the paper):
//   (a) Mostly-Small windows, S1=0.1,   Ss=0.5
//   (b) Uniform windows,      S1=0.1,   Ss=0.5
//   (c) Mostly-Large windows, S1=0.1,   Ss=0.5
//   (d) Uniform windows,      S1=0.025, Ss=0.2
//   (e) Uniform windows,      S1=0.025, Ss=0.5
//   (f) Uniform windows,      S1=0.025, Ss=0.8
// Stream rates sweep 20..80 tuples/sec; runs last 90 virtual seconds.
//
//   $ ./bench/bench_fig17_memory [--quick] [--json BENCH_fig17_memory.json]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct Panel {
  const char* label;
  WindowDistribution3 dist;
  double s1;
  double s_sigma;
};

constexpr Panel kPanels[] = {
    {"(a) Mostly-Small, S1=0.1, Ss=0.5", WindowDistribution3::kMostlySmall,
     0.1, 0.5},
    {"(b) Uniform, S1=0.1, Ss=0.5", WindowDistribution3::kUniform, 0.1, 0.5},
    {"(c) Mostly-Large, S1=0.1, Ss=0.5", WindowDistribution3::kMostlyLarge,
     0.1, 0.5},
    {"(d) Uniform, S1=0.025, Ss=0.2", WindowDistribution3::kUniform, 0.025,
     0.2},
    {"(e) Uniform, S1=0.025, Ss=0.5", WindowDistribution3::kUniform, 0.025,
     0.5},
    {"(f) Uniform, S1=0.025, Ss=0.8", WindowDistribution3::kUniform, 0.025,
     0.8},
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 45 : 90;
  const double rates[] = {20, 40, 60, 80};

  BenchReport report;
  report.bench = "fig17_memory";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(30));
  report.SetConfig("comparisons_per_sec", JsonScalar::Num(kComparisonsPerSec));

  std::printf("Figure 17: state memory usage (avg tuples after warm-up), "
              "%g-second runs\n\n", duration_s);
  for (const Panel& panel : kPanels) {
    std::printf("=== %s ===\n", panel.label);
    std::printf("%6s %20s %20s %20s\n", "rate", "Selection-PullUp",
                "State-Slice-Chain", "Selection-PushDown");
    const auto queries = MakeSection72Queries(panel.dist, panel.s_sigma);
    for (double rate : rates) {
      WorkloadSpec wspec;
      wspec.rate_a = wspec.rate_b = rate;
      wspec.duration_s = duration_s;
      wspec.join_selectivity = panel.s1;
      wspec.seed = 17000 + static_cast<uint64_t>(rate);
      const Workload workload = GenerateWorkload(wspec);
      const std::vector<Tuple> arrivals = MergedArrivals(workload);
      Engine::Options options;
      options.condition = workload.condition;

      double mem[3] = {};
      const SharingStrategy order[] = {SharingStrategy::kPullUp,
                                       SharingStrategy::kStateSlice,
                                       SharingStrategy::kPushDown};
      for (int s = 0; s < 3; ++s) {
        options.strategy = order[s];
        // Warm-up: one full largest window (30 s).
        const BenchRun run =
            RunBench(options, queries, arrivals, /*warmup_s=*/30);
        mem[s] = run.avg_state_tuples;
        JsonObject& row = report.AddRow();
        Set(&row, "panel", JsonScalar::Str(panel.label));
        Set(&row, "s1", JsonScalar::Num(panel.s1));
        Set(&row, "s_sigma", JsonScalar::Num(panel.s_sigma));
        Set(&row, "rate", JsonScalar::Num(rate));
        Set(&row, "strategy", JsonScalar::Str(Name(order[s])));
        AddRunMetrics(&row, run);
      }
      std::printf("%6.0f %17.0f tu %17.0f tu %17.0f tu\n", rate, mem[0],
                  mem[1], mem[2]);
    }
    std::printf("\n");
  }
  std::printf("expected shape (paper): State-Slice-Chain lowest everywhere "
              "(20-30%% below the alternatives); PushDown ~= PullUp for "
              "mid Ss; memory insensitive to S1.\n");
  return FinishReport(args, report);
}
