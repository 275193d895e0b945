// Batch-ingestion throughput bench: the span-based PushBatch path against
// per-event Push over identical feeds (ISSUE 7).
//
// Scenario: micro-batching sources over a stream-table-style enrichment
// join. Each stream of a binary equi-join chain (5 shared windows) buffers
// `B` arrivals and flushes them as one burst, so the merged feed consists
// of alternating same-stream runs of length B — the shape a network
// receive buffer or upstream queue hands an ingestion thread. The A stream
// is a reference stream (female tuples fill window state), the B stream a
// lookup stream (male tuples purge + probe): the paper's one-way roles
// (Fig. 6). For each burst length B the bench runs two arms over the
// byte-identical merged sequence:
//   - scalar:  one Engine::Push per event (each push drains the plan to
//              quiescence — the pre-batching discipline);
//   - batched: one Engine::PushBatch span per burst (one scheduler sweep
//              amortized over B events), with the run-length knob set to
//              the burst so one OnRun visit digests a whole burst.
// speedup = batched / scalar throughput at the same B. The per-event arm's
// cost is flat in B, so the sweep isolates exactly what batching buys:
// fewer quiescence sweeps and run-granular queue transfer.
//
// The regression gate (bench/check_regression.py) tracks the batched
// arm's throughput; the B >= 64 rows are additionally expected to hold a
// >= 1.5x speedup (printed and recorded per row as `speedup_vs_scalar`).
//
//   $ ./bench/bench_batch_throughput [--quick] [--json out.json]
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

// A globally ordered feed whose same-stream runs all have length `burst`:
// one global Poisson arrival process at 2*rate, sides assigned in blocks,
// keys uniform over `domain` (equi-join selectivity 1/domain).
std::vector<Tuple> BurstyEquiFeed(double rate, double duration_s,
                                  int64_t domain, int burst, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> merged;
  double now = 0.0;
  const double total_s = duration_s;
  uint32_t seq[2] = {0, 0};
  StreamId side = StreamSide::kA;
  int in_burst = 0;
  while (now < total_s) {
    now += rng.NextExponential(2 * rate);
    if (now >= total_s) break;
    Tuple t;
    t.timestamp = SecondsToTicks(now);
    t.key = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(domain)));
    t.value = rng.NextDouble();
    t.side = side;
    // One-way roles (paper Fig. 6): the A stream is a reference stream
    // (female: fills window state), the B stream a lookup stream (male:
    // purges + probes). Halves per-event state traffic in both arms, the
    // shape of a stream-table-style enrichment join.
    t.role = side == StreamSide::kA ? TupleRole::kFemale : TupleRole::kMale;
    t.seq = ++seq[side];
    merged.push_back(t);
    if (++in_burst == burst) {
      in_burst = 0;
      side = side == StreamSide::kA ? StreamSide::kB : StreamSide::kA;
    }
  }
  return merged;
}

struct ArmOutcome {
  double wall_seconds = 0;
  uint64_t input_tuples = 0;
  uint64_t results = 0;
};

ArmOutcome RunArmOnce(const std::vector<Tuple>& merged, bool batched,
                      int burst) {
  Engine::Options options;
  options.condition = JoinCondition::EquiKey();
    Engine engine(options);
  for (double w : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    ContinuousQuery q;
    q.window = WindowSpec::TimeSeconds(w);
    const bool registered = engine.RegisterQuery(q).valid();
    SLICE_CHECK(registered);
  }

  const auto start = std::chrono::steady_clock::now();
  if (batched) {
    size_t i = 0;
    while (i < merged.size()) {
      const size_t n =
          std::min(static_cast<size_t>(burst), merged.size() - i);
      engine.PushBatch(merged[i].side, std::span(merged).subspan(i, n));
      i += n;
    }
  } else {
    for (const Tuple& t : merged) engine.Push(t.side, t);
  }
  engine.Finish();

  ArmOutcome outcome;
  outcome.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const RunStats stats = engine.Snapshot();
  outcome.input_tuples = stats.input_tuples;
  outcome.results = stats.results_delivered;
  return outcome;
}

double Throughput(const ArmOutcome& o) {
  return o.wall_seconds > 0
             ? static_cast<double>(o.input_tuples) / o.wall_seconds
             : 0.0;
}

// Best of `reps` fresh-engine runs (standard microbench noise floor).
ArmOutcome RunArm(const std::vector<Tuple>& merged, bool batched, int burst,
                  int reps) {
  ArmOutcome best;
  for (int r = 0; r < reps; ++r) {
    ArmOutcome o = RunArmOnce(merged, batched, burst);
    if (r == 0 || Throughput(o) > Throughput(best)) best = o;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 60 : 150;
  const int reps = 5;
  const double rate = 2000;  // per stream; ingestion-bound, not join-bound
  const int64_t domain = 1 << 20;

  BenchReport report;
  report.bench = "batch_throughput";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("key_domain", JsonScalar::Num(static_cast<double>(domain)));
  report.SetConfig("queries", JsonScalar::Num(5));

  std::printf("Batch ingestion: binary equi chain (5 windows), %g s @ %g "
              "t/s per stream, key domain %lld\n\n",
              duration_s, rate, static_cast<long long>(domain));
  std::printf("%8s %10s %14s %14s %10s\n", "burst", "events", "scalar t/s",
              "batched t/s", "speedup");
  bool speedup_ok = true;
  for (const int burst : {1, 4, 16, 64, 256}) {
    const std::vector<Tuple> merged = BurstyEquiFeed(
        rate, duration_s, domain, burst, 20060600 + burst);
    const ArmOutcome scalar = RunArm(merged, /*batched=*/false, burst, reps);
    const ArmOutcome batched = RunArm(merged, /*batched=*/true, burst, reps);
    SLICE_CHECK_EQ(scalar.results, batched.results);  // same multiset size
    const double scalar_tps = Throughput(scalar);
    const double batched_tps = Throughput(batched);
    const double speedup = scalar_tps > 0 ? batched_tps / scalar_tps : 0.0;
    if (burst >= 64 && speedup < 1.5) speedup_ok = false;
    std::printf("%8d %10zu %14.0f %14.0f %9.2fx\n", burst, merged.size(),
                scalar_tps, batched_tps, speedup);

    JsonObject& row = report.AddRow();
    Set(&row, "burst", JsonScalar::Num(burst));
    Set(&row, "input_tuples",
        JsonScalar::Num(static_cast<double>(batched.input_tuples)));
    Set(&row, "results_delivered",
        JsonScalar::Num(static_cast<double>(batched.results)));
    Set(&row, "wall_seconds", JsonScalar::Num(batched.wall_seconds));
    Set(&row, "throughput_tuples_per_wall_sec", JsonScalar::Num(batched_tps));
    Set(&row, "scalar_throughput_tuples_per_wall_sec",
        JsonScalar::Num(scalar_tps));
    Set(&row, "speedup_vs_scalar", JsonScalar::Num(speedup));
  }
  std::printf("\nexpected: speedup grows with the burst length (fewer "
              "quiescence sweeps per event) and holds >= 1.5x from burst "
              "64 up%s\n", speedup_ok ? "" : "  ** NOT MET **");
  return FinishReport(args, report);
}
