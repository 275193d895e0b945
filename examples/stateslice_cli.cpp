// stateslice_cli — run ad-hoc shared window-join workloads from the shell,
// through the Engine facade.
//
// Usage:
//   stateslice_cli [options] "QUERY 1" "QUERY 2" ...
//
// Each positional argument is a mini-CQL query, e.g.
//   "SELECT * FROM A a, B b WHERE a.key = b.key AND a.Value > 0.5 WINDOW 20 s"
//
// Options:
//   --strategy=slice|slice-cpu|pullup|pushdown|unshared   (default slice)
//   --rate=<tuples/sec per stream>                        (default 40)
//   --duration=<virtual seconds>                          (default 90)
//   --s1=<join selectivity>                               (default 0.1)
//   --seed=<rng seed>                                     (default 1)
//   --late=<K>       register the last K queries mid-stream (online churn
//                    demo; default 0)
//   --dot            print the operator DAG and exit
//
// Prints per-query result counts, state-memory and comparison-cost
// statistics for the chosen sharing strategy.
#include <cstdio>
#include <utility>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/stateslice.h"

using namespace stateslice;

namespace {

struct CliOptions {
  std::string strategy = "slice";
  double rate = 40;
  double duration_s = 90;
  double s1 = 0.1;
  uint64_t seed = 1;
  int late = 0;
  bool dot_only = false;
  std::vector<std::string> query_texts;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stateslice_cli [--strategy=slice|slice-cpu|pullup|"
               "pushdown|unshared]\n"
               "                      [--rate=N] [--duration=S] [--s1=X] "
               "[--seed=N]\n"
               "                      [--late=K] [--dot]\n"
               "                      \"SELECT ... WINDOW n s\" ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseArg(argv[i], "--strategy", &value)) {
      cli.strategy = value;
    } else if (ParseArg(argv[i], "--rate", &value)) {
      cli.rate = std::atof(value.c_str());
    } else if (ParseArg(argv[i], "--duration", &value)) {
      cli.duration_s = std::atof(value.c_str());
    } else if (ParseArg(argv[i], "--s1", &value)) {
      cli.s1 = std::atof(value.c_str());
    } else if (ParseArg(argv[i], "--seed", &value)) {
      cli.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--late", &value)) {
      cli.late = std::atoi(value.c_str());
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      cli.dot_only = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage();
    } else {
      cli.query_texts.push_back(argv[i]);
    }
  }
  if (cli.query_texts.empty()) {
    // Demo default: the paper's motivating pair, scaled to seconds.
    cli.query_texts = {
        "SELECT A.* FROM Temperature A, Humidity B "
        "WHERE A.LocationId = B.LocationId WINDOW 10 s",
        "SELECT A.* FROM Temperature A, Humidity B "
        "WHERE A.LocationId = B.LocationId AND A.Value > 0.9 WINDOW 60 s",
    };
    std::printf("(no queries given; running the paper's motivating "
                "example)\n");
  }
  if (cli.late < 0 ||
      cli.late >= static_cast<int>(cli.query_texts.size())) {
    std::fprintf(stderr, "--late must leave at least one initial query\n");
    return Usage();
  }

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = cli.rate;
  wspec.duration_s = cli.duration_s;
  wspec.join_selectivity = cli.s1;
  wspec.seed = cli.seed;
  const Workload workload = GenerateWorkload(wspec);

  Engine::Options options;
  options.condition = workload.condition;
  if (cli.strategy == "slice") {
    options.strategy = SharingStrategy::kStateSlice;
  } else if (cli.strategy == "slice-cpu") {
    options.strategy = SharingStrategy::kStateSlice;
    options.objective = ChainObjective::kCpuOpt;
    options.cost_params.lambda_a = options.cost_params.lambda_b = cli.rate;
    options.cost_params.s1 = cli.s1;
  } else if (cli.strategy == "pullup") {
    options.strategy = SharingStrategy::kPullUp;
  } else if (cli.strategy == "pushdown") {
    options.strategy = SharingStrategy::kPushDown;
  } else if (cli.strategy == "unshared") {
    options.strategy = SharingStrategy::kUnshared;
  } else {
    std::fprintf(stderr, "unknown strategy '%s'\n", cli.strategy.c_str());
    return Usage();
  }
  Engine engine(options);

  const int initial =
      static_cast<int>(cli.query_texts.size()) - cli.late;
  std::vector<QueryHandle> handles;
  for (int q = 0; q < initial; ++q) {
    const QueryHandle h = engine.RegisterQuery(cli.query_texts[q]);
    if (!h.valid()) {
      std::fprintf(stderr, "rejected: %s\n  in: %s\n",
                   engine.last_error().c_str(),
                   cli.query_texts[q].c_str());
      return 1;
    }
    handles.push_back(h);
  }

  if (cli.dot_only) {
    std::printf("%s", engine.PlanDot().c_str());
    return 0;
  }

  std::vector<Tuple> merged = MergedArrivals(workload);

  // Late registrations spread evenly over the first half of the run.
  size_t fed = 0;
  for (int q = initial; q < static_cast<int>(cli.query_texts.size());
       ++q) {
    const size_t target =
        merged.size() * static_cast<size_t>(q - initial + 1) /
        (static_cast<size_t>(cli.late) + 1) / 2;
    for (; fed < target; ++fed) {
      engine.Push(merged[fed].side, std::move(merged[fed]));
    }
    // Flush same-timestamp stragglers: registration advances the session
    // watermark past the last arrival.
    while (fed < merged.size() &&
           merged[fed].timestamp <= engine.watermark()) {
      engine.Push(merged[fed].side, std::move(merged[fed]));
      ++fed;
    }
    const QueryHandle h = engine.RegisterQuery(cli.query_texts[q]);
    if (!h.valid()) {
      std::fprintf(stderr, "rejected: %s\n  in: %s\n",
                   engine.last_error().c_str(),
                   cli.query_texts[q].c_str());
      return 1;
    }
    std::printf(">>> Q%d registered online at t=%.1f s\n", q + 1,
                TicksToSeconds(engine.watermark()));
    handles.push_back(h);
  }
  for (; fed < merged.size(); ++fed) {
    engine.Push(merged[fed].side, std::move(merged[fed]));
  }
  engine.Finish();

  const RunStats stats = engine.Snapshot();
  std::printf("\nstrategy=%s rate=%.0f t/s duration=%.0f s S1=%g seed=%llu\n",
              cli.strategy.c_str(), cli.rate, cli.duration_s, cli.s1,
              static_cast<unsigned long long>(cli.seed));
  std::printf("%llu inputs -> %llu results in %.1f ms wall "
              "(%llu migrations, %llu rebuilds)\n",
              static_cast<unsigned long long>(stats.input_tuples),
              static_cast<unsigned long long>(stats.results_delivered),
              stats.wall_seconds * 1e3,
              static_cast<unsigned long long>(engine.migrations()),
              static_cast<unsigned long long>(engine.rebuilds()));
  for (size_t q = 0; q < handles.size(); ++q) {
    std::printf("  Q%-3zu %10llu results\n", q + 1,
                static_cast<unsigned long long>(
                    engine.ResultCount(handles[q])));
  }
  std::printf("state memory: avg %.0f tuples, peak %zu\n",
              stats.AvgStateTuples(SecondsToTicks(cli.duration_s / 3.0)),
              stats.MaxStateTuples());
  std::printf("cpu: %.0f comparisons/s (%s)\n",
              stats.ComparisonsPerVirtualSecond(),
              stats.cost.DebugString().c_str());
  return 0;
}
