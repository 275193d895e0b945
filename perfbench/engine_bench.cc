// Engine benchmark: one closed-loop client of the public Engine API over
// three workloads, checked against an independent exact oracle.
//
//   engine_bench --workload chain-det|chain-sharded|churn-det
//                --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). An operation is one PushBatch, RegisterQuery,
// UnregisterQuery, Checkpoint or Restore call. README.md next to this file
// describes the workloads and the metrics.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "src/api/engine.h"
#include "src/core/chain_builder.h"
#include "src/core/shared_plan_builder.h"
#include "src/query/parser.h"

namespace perfbench {
namespace {

using stateslice::ContinuousQuery;
using stateslice::Engine;
using stateslice::ExecutionMode;
using stateslice::JoinResult;
using stateslice::QueryHandle;
using stateslice::RunStats;
using stateslice::StreamId;
using stateslice::Tuple;

constexpr int64_t kUsPerS = 1'000'000;
// Where traced runs write their spans, relative to the working directory.
constexpr char kTraceDir[] = ".bench_out";
// Join key of the boundary markers (outside every drawn key domain).
constexpr int64_t kMarkerKey = -1;
// Exponent of the Zipf key distribution of every workload.
constexpr double kZipfS = 0.5;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0) || args->seconds > 600) {
    *error = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

// ----------------------------------------------------------- statistics

// The middle value (the mean of the two middle values for an even count).
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Resident set size of this process, from /proc/self/statm.
double RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;  // NOLINT(runtime/int): statm format
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------- input

// splitmix64: the benchmark's own generator, independent of the library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct InputSpec {
  int burst_size;      // tuples per PushBatch
  int64_t spacing_us;  // virtual time per tuple slot (both streams)
  int key_domain;
  int bursts;          // block length; even (bursts alternate A, B)
  // Churn calls fall between each A burst and the B burst after it: give
  // the last tuple of each A burst and the first tuple of each B burst the
  // marker key (see README).
  bool boundary_markers;
};

struct Burst {
  StreamId stream;
  uint32_t begin;  // index into Block::tuples[stream]
  uint32_t count;
};

// One seeded block of bursts. Bursts alternate stream 0 (A) and stream 1
// (B) and own disjoint virtual-time intervals, so timestamps are strictly
// increasing across the merged input. The block is replayed with a time
// and sequence shift as often as a run needs.
struct Block {
  std::vector<Tuple> tuples[2];
  std::vector<Burst> bursts;
  std::vector<uint32_t> burst_of[2];  // local tuple index -> local burst
  int64_t span_us = 0;
};

Block MakeBlock(const InputSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  std::vector<double> cdf(static_cast<size_t>(spec.key_domain));
  double total = 0;
  for (int k = 0; k < spec.key_domain; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf[static_cast<size_t>(k)] = total;
  }
  Block block;
  const int per_stream = spec.bursts / 2 * spec.burst_size;
  for (auto& v : block.tuples) v.reserve(static_cast<size_t>(per_stream));
  for (auto& v : block.burst_of) v.reserve(static_cast<size_t>(per_stream));
  int64_t slot = 0;
  for (int k = 0; k < spec.bursts; ++k) {
    const StreamId s = (k % 2 == 0) ? 0 : 1;
    std::vector<Tuple>& out = block.tuples[s];
    block.bursts.push_back(
        Burst{s, static_cast<uint32_t>(out.size()),
              static_cast<uint32_t>(spec.burst_size)});
    for (int i = 0; i < spec.burst_size; ++i, ++slot) {
      Tuple t;
      t.timestamp = kUsPerS + slot * spec.spacing_us +
                    static_cast<int64_t>(rng.Below(
                        static_cast<uint64_t>(spec.spacing_us)));
      const double u = rng.Uniform() * total;
      t.key = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      t.value = rng.Uniform();
      t.seq = static_cast<uint32_t>(out.size());
      t.side = s;
      if (spec.boundary_markers) {
        const bool last_of_a = s == 0 && i == spec.burst_size - 1;
        const bool first_of_b = s == 1 && i == 0;
        if (last_of_a || first_of_b) {
          t.key = kMarkerKey;
          t.value = 1.0;
        }
      }
      out.push_back(t);
      block.burst_of[s].push_back(static_cast<uint32_t>(k));
    }
  }
  block.span_us = slot * spec.spacing_us;
  return block;
}

// Hands out the block's bursts in push order, replay-shifted.
class Feeder {
 public:
  explicit Feeder(const Block* block) : block_(block) {}

  std::span<const Tuple> Next(StreamId* stream) {
    const uint64_t n = block_->bursts.size();
    const uint64_t replay = next_ / n;
    const Burst& b = block_->bursts[next_ % n];
    const std::vector<Tuple>& src = block_->tuples[b.stream];
    const int64_t shift = static_cast<int64_t>(replay) * block_->span_us;
    const uint32_t seq_shift = static_cast<uint32_t>(replay * src.size());
    staging_.assign(src.begin() + b.begin, src.begin() + b.begin + b.count);
    for (Tuple& t : staging_) {
      t.timestamp += shift;
      t.seq += seq_shift;
    }
    *stream = b.stream;
    ++next_;
    tuples_ += b.count;
    last_ts_ = staging_.back().timestamp;
    return staging_;
  }

  uint64_t next_burst() const { return next_; }
  uint64_t tuples() const { return tuples_; }
  int64_t last_timestamp() const { return last_ts_; }
  int64_t virtual_us() const { return last_ts_ - kUsPerS; }

  // Global index of the burst that carried stream `s`'s tuple `seq`.
  uint64_t BurstOf(int s, uint32_t seq) const {
    const uint64_t len = block_->tuples[s].size();
    return (seq / len) * block_->bursts.size() +
           block_->burst_of[s][seq % len];
  }

  // Every tuple handed out so far, per stream, in push order.
  void Materialize(std::vector<Tuple>* a, std::vector<Tuple>* b) const {
    std::vector<Tuple>* out[2] = {a, b};
    Feeder replay(block_);
    StreamId s = 0;
    for (uint64_t i = 0; i < next_; ++i) {
      const std::span<const Tuple> burst = replay.Next(&s);
      out[s]->insert(out[s]->end(), burst.begin(), burst.end());
    }
  }

 private:
  const Block* block_;
  std::vector<Tuple> staging_;
  uint64_t next_ = 0;
  uint64_t tuples_ = 0;
  int64_t last_ts_ = 0;
};

// ------------------------------------------------------- result delivery

// Per-burst PushBatch start times, indexed by global burst number.
constexpr size_t kStartRing = size_t{1} << 18;

// Shared by every subscriber of one session. Callbacks run on the caller
// thread (deterministic mode) or the merge worker (sharded mode); the
// caller reads the samples only after Drain/Finish has joined the workers.
struct ResultProbe {
  const Feeder* feeder = nullptr;
  std::vector<std::atomic<int64_t>> starts =
      std::vector<std::atomic<int64_t>>(kStartRing);
  std::atomic<bool> recording{false};
  uint32_t tick = 0;
  // Written by the delivering thread only; read by the caller.
  std::atomic<uint64_t> callbacks{0};
  // (callback time in ns, latency in us), in delivery order.
  std::vector<std::pair<int64_t, double>> latency;

  void StampBurst(uint64_t burst) {
    starts[burst % kStartRing].store(NowNs(), std::memory_order_relaxed);
  }

  // Samples one result in 64: from the start of the PushBatch that carried
  // its newest constituent to this callback.
  void OnResult(const JoinResult& r) {
    callbacks.store(callbacks.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    if (++tick < 64) return;
    tick = 0;
    if (!recording.load(std::memory_order_relaxed)) return;
    const bool a_newer = r.a.timestamp >= r.b.timestamp;
    const uint64_t burst =
        feeder->BurstOf(a_newer ? 0 : 1, a_newer ? r.a.seq : r.b.seq);
    const int64_t start =
        starts[burst % kStartRing].load(std::memory_order_relaxed);
    const int64_t now = NowNs();
    latency.emplace_back(now, static_cast<double>(now - start) / 1e3);
  }
};

struct QueryState {
  std::string cql;
  QueryHandle handle;
  OracleQuery oracle;
  Digest delivered;   // every result delivered
  Digest straddling;  // the delivered results that straddle a rebuild cutoff
  // Straddling results by cutoff index, kept until no further one can be
  // owed (see Bench::Settle); a result of a settled cutoff is a duplicate.
  std::map<size_t, std::unordered_set<uint64_t>> open;
  size_t settled = 0;  // cutoffs below this index are settled
  bool active = true;
};

std::string Cql(int64_t window_ms, bool filtered) {
  return std::string("SELECT A.* FROM A A, B B WHERE A.key = B.key") +
         (filtered ? " AND A.Value > 0.5" : "") + " WINDOW " +
         std::to_string(window_ms) + " ms";
}

// ------------------------------------------------------------- reporting

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // name -> (value, unit), in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

void Print(const Outcome& out) {
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "engine_bench: CHECK FAILED: %s\n", e.c_str());
  }
  for (const auto& [name, vu] : out.metrics) {
    std::printf("%-34s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------- workloads

// Everything a workload varies.
struct WorkloadSpec {
  ExecutionMode mode;
  int shards;
  InputSpec input;
  std::vector<int64_t> windows_ms;  // the initial (long-lived) queries
  // The timed phase is split evenly over `sessions` fresh sessions, each
  // set up anew; `setups` (at least `sessions`) set-ups are timed in all.
  int sessions;
  int setups;
  // Peak RSS is sampled from the first set-up through this many rounds of
  // the first session's timed phase: a fixed amount of work, because a
  // session's history (and so its memory) grows with every round. Early
  // rounds sit on either side of a heap growth step, depending on the seed.
  uint64_t rss_rounds;
  int64_t warmup_us;                // virtual time fed during set-up
  bool churn_rounds;                // churn-det round shape
};

WorkloadSpec ChainSpec(ExecutionMode mode) {
  return WorkloadSpec{
      .mode = mode,
      .shards = mode == ExecutionMode::kSharded ? 2 : 0,
      .input = {.burst_size = 64,
                .spacing_us = 1000,  // 1,000 tuples/s over both streams
                .key_domain = 5000,
                .bursts = 8192,
                .boundary_markers = false},
      .windows_ms = {1000, 2000, 3000, 5000, 7000, 10000, 12000, 15000,
                     18000, 20000, 25000, 30000},
      .sessions = 8,
      .setups = 8,
      .rss_rounds = 32,
      .warmup_us = 30 * kUsPerS,
      .churn_rounds = false,
  };
}

WorkloadSpec ChurnSpec() {
  return WorkloadSpec{
      .mode = ExecutionMode::kDeterministic,
      .shards = 0,
      .input = {.burst_size = 32,
                .spacing_us = 2500,  // 400 tuples/s over both streams
                .key_domain = 200,
                .bursts = 32 * 64,   // 64 churn cycles of 16 (A, B) pairs
                .boundary_markers = true},
      .windows_ms = {5000, 2000},  // anchors: present for the whole session
      .sessions = 1,
      .setups = 15,
      .rss_rounds = 128,
      .warmup_us = 5 * kUsPerS,
      .churn_rounds = true,
  };
}

// Transient query windows drawn from the seed (churn).
constexpr int64_t kTransientMs[] = {500,  1000, 1500, 2500,
                                    3000, 3500, 4000, 4500};

class Bench {
 public:
  Bench(const Args& args, WorkloadSpec spec)
      : args_(args), spec_(std::move(spec)),
        block_(MakeBlock(spec_.input, args.seed)), rng_(args.seed ^ 0xC0FFEE) {}

  Outcome Run();

 private:
  Engine::Options Options() const {
    Engine::Options o;
    o.mode = spec_.mode;
    o.shard_count = spec_.shards;
    return o;
  }

  void SampleRss() {
    if (rss_open_) peak_rss_ = std::max(peak_rss_, RssBytes());
  }

  uint64_t Delivered() const {
    uint64_t n = 0;
    for (const auto& q : queries_) n += q->delivered.count;
    return n;
  }

  // One fresh session: engine, initial queries, warm-up feed. Returns the
  // wall time it took.
  double SetUp();
  void Push(bool timed);
  // Makes one churn call: `call` runs the Engine method and reports
  // success. Phase 0/1 (unfiltered/filtered) calls are timed operations;
  // phase -1 marks set-up registrations.
  bool Churn(int phase, bool reg, const std::function<bool()>& call);
  // Registers and subscribes `cql`; nullptr (and a failed check) when the
  // engine rejects it.
  QueryState* Register(const std::string& cql, OracleQuery oq, int phase);
  bool Unregister(QueryState* q, int phase);
  void Subscribe(QueryState* q);
  // The subscriber callback of query `q`: folds `r` into its digest and,
  // when `r` straddles a rebuild cutoff, checks it on its own against the
  // exact semantics and against duplicates.
  void OnResult(QueryState* q, const JoinResult& r);
  // After a Drain: settles every cutoff that no further straddling result
  // of a query can be owed for, freeing its duplicate set.
  void Settle();
  void Round();
  double Drain();
  void TimedPhase(double seconds);
  void ChurnCall(int step);
  // Drains and checkpoints the session, retires its engine and restores the
  // snapshot into a fresh engine that carries the session on. With
  // `probe`, the snapshot is first restored into a probe engine that takes
  // the churn probe and is discarded, so the probe never alters the session
  // and no two engines run at once.
  void Failover(bool probe);
  std::unique_ptr<Engine> RestoreFresh(const std::string& snapshot);
  void ChurnProbe(int calls_per_phase);
  void Verify();
  void EndToEndMetrics(const std::vector<double>& setup_s);
  void LayerMetrics();
  double CallbackCostNs();

  const Args& args_;
  WorkloadSpec spec_;
  Block block_;
  Rng rng_;
  Tracer tracer_;
  Outcome out_;

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Feeder> feeder_;
  std::unique_ptr<ResultProbe> probe_;
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::vector<QueryState*> transients_;  // churn pool, oldest first
  QueryState* filtered_ = nullptr;

  // Rebuild cutoffs seen so far, the churn call that produced each, and
  // the straddling results delivered for each: all whose earliest
  // straddled cutoff it is, and those that straddle it alone.
  std::vector<int64_t> cutoffs_;
  std::vector<uint64_t> cutoff_call_;
  std::vector<uint64_t> straddle_delivered_;
  std::vector<uint64_t> sole_delivered_;
  uint64_t churn_calls_ = 0;
  bool probing_ = false;  // churn calls go to a probe engine
  std::vector<double> churn_ms_[2];  // [0] unfiltered, [1] filtered phase
  std::vector<double> checkpoint_ms_;
  std::vector<double> restore_ms_;
  size_t checkpoint_bytes_ = 0;
  uint64_t lost_results_ = 0;
  uint64_t lossy_calls_ = 0;

  // Timed phase: input, deliveries and wall time, and the input rate of
  // each window of whole rounds lasting at least kWindowSeconds.
  static constexpr double kWindowSeconds = 0.5;
  // Chain workloads: failovers in the closing steps of each session.
  static constexpr int kClosingFailovers = 4;
  // Over every session's timed phase: per window, the input rate and the
  // median latency of the results delivered in it.
  std::vector<double> window_tps_;
  std::vector<double> window_latency_us_;
  uint64_t timed_tuples_ = 0;
  uint64_t timed_results_ = 0;
  double timed_s_ = 0;

  // Sampled until spec_.rss_rounds rounds of the first session.
  double rss_base_ = 0;
  double peak_rss_ = 0;
  bool rss_open_ = true;

  uint64_t migrations_ = 0;  // churn calls served in place
  uint64_t rebuilds_ = 0;    // churn calls that drain-rebuilt

  // Traced run: time and input of the untraced and traced rounds, callbacks
  // over the timed phases, counters around the last session's timed phase,
  // and the counters of the engine last restored (Snapshot() of a live
  // session reports no physical cost; a restored one reports the session's).
  double round_s_[2] = {0, 0};
  uint64_t round_tuples_[2] = {0, 0};
  std::vector<double> drain_ms_;
  uint64_t timed_callbacks_ = 0;
  RunStats stats_begin_;
  RunStats stats_end_;
  RunStats stats_restored_;
};


void Bench::Push(bool timed) {
  StreamId stream = 0;
  const uint64_t burst = feeder_->next_burst();
  const std::span<const Tuple> tuples = feeder_->Next(&stream);
  probe_->StampBurst(burst);
  {
    Tracer::Scope span(&tracer_, "api.PushBatch");
    engine_->PushBatch(stream, tuples);
  }
  // PushBatch reports a rejected batch only through rejected_tuples(),
  // which Verify checks once for the whole run.
  if (timed) out_.Op(true);
}

void Bench::Subscribe(QueryState* q) {
  Tracer::Scope span(&tracer_, "api.Subscribe");
  if (!engine_->Subscribe(q->handle,
                          [this, q](const JoinResult& r) { OnResult(q, r); })) {
    out_.Fail("Subscribe rejected: " + engine_->last_error());
  }
}

bool Bench::Churn(int phase, bool reg, const std::function<bool()>& call) {
  const size_t cutoffs_before = engine_->rebuild_cutoffs().size();
  const uint64_t migrations_before = engine_->migrations();
  const uint64_t rebuilds_before = engine_->rebuilds();
  const int64_t start = NowNs();
  bool ok = false;
  {
    Tracer::Scope span(&tracer_,
                       reg ? "api.RegisterQuery" : "api.UnregisterQuery");
    ok = call();
  }
  const int64_t end = NowNs();
  if (!ok) {
    out_.Fail(std::string(reg ? "RegisterQuery" : "UnregisterQuery") +
              " rejected: " + engine_->last_error());
  }
  if (phase < 0) return ok;  // set-up registration: not a timed operation
  churn_ms_[phase].push_back(static_cast<double>(end - start) / 1e6);
  out_.Op(ok);
  migrations_ += engine_->migrations() - migrations_before;
  rebuilds_ += engine_->rebuilds() - rebuilds_before;
  ++churn_calls_;
  if (probing_) return ok;  // the probe engine's cutoffs are not the session's
  const std::vector<stateslice::TimePoint>& cuts = engine_->rebuild_cutoffs();
  for (size_t i = cutoffs_before; i < cuts.size(); ++i) {
    cutoffs_.push_back(cuts[i]);
    cutoff_call_.push_back(churn_calls_ - 1);
    straddle_delivered_.push_back(0);
    sole_delivered_.push_back(0);
  }
  return ok;
}

void Bench::OnResult(QueryState* q, const JoinResult& r) {
  const uint64_t hash = PairHash(r.a.seq, r.b.seq);
  q->delivered.Add(hash);
  probe_->OnResult(r);
  // Only churn-det records cutoffs, and it delivers on the caller thread.
  const int64_t lo = std::min(r.a.timestamp, r.b.timestamp);
  if (cutoffs_.empty() || lo >= cutoffs_.back()) return;
  const int64_t hi = std::max(r.a.timestamp, r.b.timestamp);
  const auto cut = std::upper_bound(cutoffs_.begin(), cutoffs_.end(), lo);
  if (*cut > hi) return;
  // A pair the documented semantics let the rebuild at `cut` drop: the
  // oracle's owed set leaves it out, so check it here.
  const size_t c = static_cast<size_t>(cut - cutoffs_.begin());
  q->straddling.Add(hash);
  ++straddle_delivered_[c];
  if (cut + 1 == cutoffs_.end() || *(cut + 1) > hi) ++sole_delivered_[c];
  const OracleQuery& oq = q->oracle;
  if (r.a.key != r.b.key || hi - lo >= oq.window || lo < oq.from ||
      hi >= oq.to || (oq.filtered && !(r.a.value > oq.a_value_above))) {
    out_.Fail(q->cql + " delivered a pair the exact oracle does not owe it");
  }
  if (c < q->settled || !q->open[c].insert(hash).second) {
    out_.Fail(q->cql + " delivered a straddling pair twice");
  }
}

void Bench::Settle() {
  // A pair straddling cutoff c has both constituents within the window of
  // c, so once the input has passed c + window and been drained, no
  // further one is owed; inactive queries are owed nothing more.
  const int64_t next_ts = feeder_->last_timestamp() + 1;
  for (const auto& q : queries_) {
    while (q->settled < cutoffs_.size() &&
           (!q->active || cutoffs_[q->settled] + q->oracle.window <= next_ts)) {
      q->open.erase(q->settled++);
    }
  }
}

QueryState* Bench::Register(const std::string& cql, OracleQuery oq,
                            int phase) {
  auto q = std::make_unique<QueryState>();
  q->cql = cql;
  const bool saw_input = feeder_->tuples() > 0;
  if (!Churn(phase, true, [&] {
        q->handle = engine_->RegisterQuery(cql);
        return q->handle.valid();
      })) {
    return nullptr;
  }
  // Fresh-start semantics: the query observes arrivals after the last one.
  oq.from = saw_input ? feeder_->last_timestamp() + 1 : 0;
  if (engine_->ResultsFrom(q->handle) != oq.from) {
    out_.Fail("ResultsFrom disagrees with the registration point");
  }
  q->oracle = oq;
  Subscribe(q.get());
  queries_.push_back(std::move(q));
  return queries_.back().get();
}

bool Bench::Unregister(QueryState* q, int phase) {
  if (!Churn(phase, false,
             [&] { return engine_->UnregisterQuery(q->handle); })) {
    return false;
  }
  // Delivery stops with the last arrival before the call.
  q->oracle.to = feeder_->last_timestamp() + 1;
  q->active = false;
  return true;
}

double Bench::SetUp() {
  // Tear the previous session down first so set-ups do not overlap.
  engine_.reset();
  queries_.clear();
  transients_.clear();
  filtered_ = nullptr;
  cutoffs_.clear();
  cutoff_call_.clear();
  straddle_delivered_.clear();
  sole_delivered_.clear();
  feeder_ = std::make_unique<Feeder>(&block_);
  probe_ = std::make_unique<ResultProbe>();
  probe_->feeder = feeder_.get();
  Rng pool_rng(args_.seed ^ 0x5EED);

  if (rss_base_ == 0) {
    // The memory baseline: input generated, no engine constructed yet.
    rss_base_ = RssBytes();
    peak_rss_ = rss_base_;
  }
  const int64_t start = NowNs();
  engine_ = std::make_unique<Engine>(Options());
  for (const int64_t w : spec_.windows_ms) {
    Register(Cql(w, false), OracleQuery{.window = w * 1000}, -1);
  }
  if (spec_.churn_rounds) {
    for (int i = 0; i < 3; ++i) {
      const int64_t w = kTransientMs[pool_rng.Below(std::size(kTransientMs))];
      QueryState* q =
          Register(Cql(w, false), OracleQuery{.window = w * 1000}, -1);
      if (q != nullptr) transients_.push_back(q);
    }
  }
  while (feeder_->tuples() == 0 || feeder_->virtual_us() < spec_.warmup_us ||
         feeder_->next_burst() % 2 != 0) {
    Push(false);
  }
  engine_->Drain();
  const double seconds = SecondsSince(start);
  SampleRss();
  return seconds;
}

// One churn-det call. Steps 0-7 form the unfiltered phase (only
// selection-free queries active); step 8 registers the filtered query and
// step 15 removes it, so steps 8-15 form the filtered phase.
void Bench::ChurnCall(int step) {
  const int phase = step >= 8 ? 1 : 0;
  if (step == 8) {
    filtered_ = Register(Cql(3000, true),
                         OracleQuery{.window = 3000 * 1000,
                                     .filtered = true,
                                     .a_value_above = 0.5},
                         phase);
  } else if (step == 15) {
    if (filtered_ != nullptr) Unregister(filtered_, phase);
    filtered_ = nullptr;
  } else if (step % 2 == 0) {
    const int64_t w = kTransientMs[rng_.Below(std::size(kTransientMs))];
    QueryState* q =
        Register(Cql(w, false), OracleQuery{.window = w * 1000}, phase);
    if (q != nullptr) transients_.push_back(q);
  } else if (!transients_.empty()) {
    Unregister(transients_.front(), phase);
    transients_.erase(transients_.begin());
  }
}

void Bench::Round() {
  Tracer::Scope span(&tracer_, "bench.round");
  if (spec_.churn_rounds) {
    for (int cycle = 0; cycle < 4; ++cycle) {
      for (int step = 0; step < 16; ++step) {
        Push(true);  // A burst
        ChurnCall(step);
        Push(true);  // B burst
      }
    }
    Failover(false);
  } else {
    for (int i = 0; i < 32; ++i) Push(true);
  }
  SampleRss();
}

double Bench::Drain() {
  const int64_t start = NowNs();
  {
    Tracer::Scope span(&tracer_, "api.Drain");
    engine_->Drain();
  }
  return static_cast<double>(NowNs() - start) / 1e6;
}

void Bench::TimedPhase(double seconds) {
  probe_->recording.store(true, std::memory_order_relaxed);
  if (args_.trace) stats_begin_ = engine_->Snapshot();
  const uint64_t tuples0 = feeder_->tuples();
  const uint64_t results0 = Delivered();
  const uint64_t callbacks0 = probe_->callbacks.load();
  const int64_t start = NowNs();
  // A traced run traces every other round: the untraced rounds, which see
  // the same session, give the reference throughput for the overhead.
  uint64_t round = 0;
  int64_t window_start = start;
  uint64_t window_tuples = tuples0;
  std::vector<int64_t> window_ends;
  do {
    const int traced = args_.trace ? static_cast<int>(round % 2) : 0;
    tracer_.set_enabled(traced == 1);
    const int64_t round_start = NowNs();
    const uint64_t n = feeder_->tuples();
    Round();
    round_s_[traced] += SecondsSince(round_start);
    round_tuples_[traced] += feeder_->tuples() - n;
    ++round;
    if (round == spec_.rss_rounds) rss_open_ = false;
    const double window_s = SecondsSince(window_start);
    if (window_s >= kWindowSeconds) {
      window_tps_.push_back(
          static_cast<double>(feeder_->tuples() - window_tuples) / window_s);
      window_start = NowNs();
      window_ends.push_back(window_start);
      window_tuples = feeder_->tuples();
    }
  } while (SecondsSince(start) < seconds || (args_.trace && round % 2 == 1));
  tracer_.set_enabled(args_.trace);
  drain_ms_.push_back(Drain());
  timed_s_ += SecondsSince(start);
  timed_tuples_ += feeder_->tuples() - tuples0;
  timed_results_ += Delivered() - results0;
  timed_callbacks_ += probe_->callbacks.load() - callbacks0;
  probe_->recording.store(false, std::memory_order_relaxed);
  // The results delivered after the last whole window (the final Drain's
  // included) fall in no window.
  std::vector<double> in_window;
  auto sample = probe_->latency.begin();
  for (const int64_t end : window_ends) {
    in_window.clear();
    for (; sample != probe_->latency.end() && sample->first < end; ++sample) {
      in_window.push_back(sample->second);
    }
    if (!in_window.empty()) window_latency_us_.push_back(Median(in_window));
  }
  std::fprintf(stderr,
               "engine_bench: session timed %.2f s, %.0f tuples/s\n",
               SecondsSince(start),
               static_cast<double>(feeder_->tuples() - tuples0) /
                   SecondsSince(start));
  if (args_.trace) {
    Tracer::Scope span(&tracer_, "api.Snapshot");
    stats_end_ = engine_->Snapshot();
  }
}

std::unique_ptr<Engine> Bench::RestoreFresh(const std::string& snapshot) {
  auto fresh = std::make_unique<Engine>(Options());
  const int64_t start = NowNs();
  bool ok = false;
  {
    Tracer::Scope span(&tracer_, "api.Restore");
    ok = fresh->Restore(snapshot);
  }
  restore_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
  out_.Op(ok);
  if (!ok) out_.Fail("Restore failed: " + fresh->last_error());
  SampleRss();
  return fresh;
}

void Bench::Failover(bool probe) {
  Tracer::Scope failover_span(&tracer_, "bench.failover");
  // Drain first, so checkpoint_ms times the snapshot of a quiet session and
  // not the backlog a sharded engine carries under load (api.drain_ms).
  Drain();
  Settle();
  std::string snapshot;
  const int64_t start = NowNs();
  bool ok = false;
  {
    Tracer::Scope span(&tracer_, "api.Checkpoint");
    ok = engine_->Checkpoint(&snapshot);
  }
  checkpoint_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
  out_.Op(ok);
  if (!ok) out_.Fail("Checkpoint failed: " + engine_->last_error());
  checkpoint_bytes_ = snapshot.size();
  SampleRss();
  // What the session delivered up to the snapshot; retiring its engine
  // must not deliver more (the restored engine owes everything after).
  std::vector<Digest> at_snapshot;
  for (const auto& q : queries_) at_snapshot.push_back(q->delivered);
  engine_.reset();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i]->delivered != at_snapshot[i]) {
      out_.Fail("results delivered after the checkpoint");
    }
  }
  if (probe) {
    engine_ = RestoreFresh(snapshot);
    probing_ = true;
    ChurnProbe(12);
    probing_ = false;
    engine_.reset();
  }
  engine_ = RestoreFresh(snapshot);
  for (const auto& q : queries_) {
    if (q->active) Subscribe(q.get());
  }
  if (args_.trace) stats_restored_ = engine_->Snapshot();
}

void Bench::ChurnProbe(int calls_per_phase) {
  // Runs on a restored copy of the warmed session that receives no input,
  // so the calls cost no results: they time plan surgery alone. Phase 0
  // churns selection-free queries; phase 1 registers a filtered query
  // first and removes it last. The first calls on a restored engine pay
  // one-off start-up costs, so one untimed pair (phase -1) goes first.
  Tracer::Scope probe_span(&tracer_, "bench.churn_probe");
  const int64_t windows_ms[] = {4000, 8000, 16000, 24000};
  QueryHandle pooled;
  QueryHandle filtered;
  for (int phase = -1; phase < 2; ++phase) {
    const int calls = phase < 0 ? 2 : calls_per_phase;
    for (int i = 0; i < calls; ++i) {
      if (phase == 1 && i == 0) {
        Churn(phase, true, [&] {
          filtered = engine_->RegisterQuery(Cql(10000, true));
          return filtered.valid();
        });
      } else if (phase == 1 && i == calls - 1) {
        Churn(phase, false, [&] { return engine_->UnregisterQuery(filtered); });
      } else if (!pooled.valid()) {
        Churn(phase, true, [&] {
          pooled = engine_->RegisterQuery(Cql(windows_ms[i / 2 % 4], false));
          return pooled.valid();
        });
      } else {
        Churn(phase, false, [&] { return engine_->UnregisterQuery(pooled); });
        pooled = QueryHandle{};
      }
    }
  }
}

void Bench::Verify() {
  if (engine_->rejected_tuples() != 0) {
    out_.Fail("engine rejected " + std::to_string(engine_->rejected_tuples()) +
              " tuples: " + engine_->last_error());
  }
  std::vector<Tuple> a;
  std::vector<Tuple> b;
  feeder_->Materialize(&a, &b);
  std::vector<OracleQuery> oracle_queries;
  for (const auto& q : queries_) oracle_queries.push_back(q->oracle);
  const OracleResult r = RunOracle(a, b, oracle_queries, cutoffs_);
  // owed ⊆ delivered ⊆ exact: the results that straddle no cutoff must be
  // exactly the owed set; the straddling ones were checked one by one on
  // delivery (OnResult).
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryState& q = *queries_[i];
    const Digest settled = q.delivered - q.straddling;
    if (settled != r.owed[i]) {
      out_.Fail("query " + std::to_string(i) + " (" + q.cql + ") delivered " +
                std::to_string(settled.count) +
                " results that straddle no rebuild cutoff, the documented "
                "semantics owe " +
                std::to_string(r.owed[i].count) + " (exact oracle " +
                std::to_string(r.exact[i].count) + ")");
    }
  }
  // Straddling pairs that never arrived are lost. A churn call fails when
  // its rebuild cost a registered query results the exact oracle owes it:
  // when a pair that straddles its cutoff alone never arrived (a pair that
  // straddles several may have been dropped by a later rebuild). The
  // boundary markers give every cutoff such a pair.
  std::vector<bool> lossy_call(churn_calls_, false);
  for (size_t c = 0; c < cutoffs_.size(); ++c) {
    if (straddle_delivered_[c] > r.straddling_at_cutoff[c] ||
        sole_delivered_[c] > r.sole_at_cutoff[c]) {
      out_.Fail("more straddling results delivered than the exact oracle "
                "holds at cutoff " + std::to_string(cutoffs_[c]));
      continue;
    }
    lost_results_ += r.straddling_at_cutoff[c] - straddle_delivered_[c];
    if (sole_delivered_[c] < r.sole_at_cutoff[c]) {
      lossy_call[cutoff_call_[c]] = true;
    }
  }
  for (const bool lossy : lossy_call) {
    if (!lossy) continue;
    ++lossy_calls_;
    ++out_.failed;
  }
}

double Bench::CallbackCostNs() {
  // The subscriber callback on a stand-in query, after the timed phase,
  // with results newer than every cutoff (the common case).
  QueryState stand_in;
  const stateslice::ResultCallback callback =
      [this, &stand_in](const JoinResult& r) { OnResult(&stand_in, r); };
  JoinResult r;
  r.a.timestamp = r.b.timestamp = std::numeric_limits<int64_t>::max() / 2;
  constexpr int kCalls = 1 << 21;
  const int64_t start = NowNs();
  for (int i = 0; i < kCalls; ++i) {
    r.a.seq = static_cast<uint32_t>(i);
    callback(r);
  }
  const double ns = static_cast<double>(NowNs() - start) / kCalls;
  if (stand_in.delivered.count != kCalls) {
    out_.Fail("callback calibration miscounted");
  }
  return ns;
}

void Bench::EndToEndMetrics(const std::vector<double>& setup_s) {
  out_.Metric("setup_s", Median(setup_s), "s");
  // Throughput: the median window rate, which a passing stall on the
  // shared machine cannot drag; results follow input at the phase's
  // measured ratio (all of them are delivered by the final Drain).
  const double tuples_per_s = Median(window_tps_);
  out_.Metric("tuples_per_s", tuples_per_s, "1/s");
  out_.Metric("results_per_s",
              tuples_per_s * static_cast<double>(timed_results_) /
                  static_cast<double>(timed_tuples_),
              "1/s");
  out_.Metric("latency_p50_us", Median(window_latency_us_), "us");
  out_.Metric("peak_rss_mb", (peak_rss_ - rss_base_) / (1024.0 * 1024.0),
              "MB");
  out_.Metric("checkpoint_ms", Median(checkpoint_ms_), "ms");
  out_.Metric("restore_ms", Median(restore_ms_), "ms");
  // Churn samples are the mean of two consecutive calls of one phase:
  // registrations and removals cost differently, and the median of an
  // even mix of single calls would sit in the gap between the two.
  std::vector<double> pairs[2];
  for (int phase = 0; phase < 2; ++phase) {
    for (size_t i = 0; i + 1 < churn_ms_[phase].size(); i += 2) {
      const std::vector<double>& calls = churn_ms_[phase];
      pairs[phase].push_back((calls[i] + calls[i + 1]) / 2);
    }
  }
  out_.Metric("churn_unfiltered_p50_ms", Median(pairs[0]), "ms");
  out_.Metric("churn_filtered_p50_ms", Median(pairs[1]), "ms");
  std::fprintf(stderr,
               "engine_bench: %zu rate windows, %zu latency windows, "
               "%zu/%zu churn pair samples, "
               "%zu checkpoints, %zu restores, %" PRIu64 " lost results\n",
               window_tps_.size(), window_latency_us_.size(), pairs[0].size(),
               pairs[1].size(), checkpoint_ms_.size(), restore_ms_.size(),
               lost_results_);
}

void Bench::LayerMetrics() {
  // Self time is taken over the workload's own spans, before the parse
  // and plan-build measurements below add theirs to the trace.
  std::map<std::string, double> self = tracer_.SelfSecondsByLayer();
  tracer_.set_enabled(true);
  // query: ParseQuery over the workload's CQL texts, timed in bulk.
  std::vector<std::string> texts;
  for (const int64_t w : spec_.windows_ms) texts.push_back(Cql(w, false));
  texts.push_back(Cql(3000, true));
  constexpr int kParseReps = 200;
  double parse_us = 0;
  {
    Tracer::Scope span(&tracer_, "query.ParseQuery");
    const int64_t start = NowNs();
    for (int rep = 0; rep < kParseReps; ++rep) {
      for (const std::string& text : texts) {
        if (!stateslice::ParseQuery(text).ok) out_.Fail("parse: " + text);
      }
    }
    parse_us = static_cast<double>(NowNs() - start) / 1e3 /
               (kParseReps * static_cast<double>(texts.size()));
  }
  // core: Mem-Opt tree + plan build over the initial query set.
  std::vector<ContinuousQuery> initial;
  for (size_t i = 0; i < spec_.windows_ms.size(); ++i) {
    ContinuousQuery q = stateslice::ParseQuery(texts[i]).query;
    q.id = static_cast<int>(i);
    q.name = "Q" + std::to_string(i);
    initial.push_back(q);
  }
  std::vector<double> build_ms;
  size_t slices = 0;
  for (int rep = 0; rep < 21; ++rep) {
    Tracer::Scope span(&tracer_, "core.BuildStateSlicePlan");
    const int64_t start = NowNs();
    const stateslice::JoinTreePlan tree = stateslice::BuildMemOptTree(initial);
    const stateslice::BuiltPlan built =
        stateslice::BuildStateSlicePlan(initial, tree);
    build_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    slices = built.slices.size();
  }

  const double tuples = static_cast<double>(stats_end_.input_tuples -
                                            stats_begin_.input_tuples);
  const auto per_tuple = [&](uint64_t end, uint64_t begin) {
    return tuples > 0 ? static_cast<double>(end - begin) / tuples : 0.0;
  };
  const stateslice::CostCounters& c1 = stats_end_.cost;
  const stateslice::CostCounters& c0 = stats_begin_.cost;
  using stateslice::CostCategory;
  using stateslice::PhysCategory;
  const auto logical = [&](CostCategory c) {
    return per_tuple(c1.Get(c), c0.Get(c));
  };
  // Physical counts over the whole session up to the last restore: only a
  // restored engine reports them (see CHANGES.md).
  const auto physical = [&](PhysCategory c) {
    const double n = static_cast<double>(stats_restored_.input_tuples);
    return n > 0 ? static_cast<double>(stats_restored_.cost.GetPhysical(c)) / n
                 : 0.0;
  };
  const double calls = static_cast<double>(churn_calls_);
  // Calibrated callback time over the timed phases, against the time the
  // caller spent in PushBatch, from the share of the traced rounds' time
  // spent there. Sharded mode runs the callbacks on the merge worker, never
  // inside PushBatch.
  const double untraced_tps =
      static_cast<double>(round_tuples_[0]) / round_s_[0];
  const double traced_tps = static_cast<double>(round_tuples_[1]) / round_s_[1];
  double traced_push_s = 0;
  for (const double us : tracer_.DurationsUs("api.PushBatch")) {
    traced_push_s += us / 1e6;
  }
  const double push_share = traced_push_s / round_s_[1];
  double callback_share = 0;
  if (spec_.mode == ExecutionMode::kDeterministic && push_share > 0) {
    callback_share = CallbackCostNs() * 1e-9 *
                     static_cast<double>(timed_callbacks_) /
                     (timed_s_ * push_share);
  }

  out_.Metric("api.push_batch_us", Median(tracer_.DurationsUs("api.PushBatch")),
              "us");
  out_.Metric("api.register_us", Mean(tracer_.DurationsUs("api.RegisterQuery")),
              "us");
  out_.Metric("api.unregister_us",
              Mean(tracer_.DurationsUs("api.UnregisterQuery")), "us");
  out_.Metric("api.migrations",
              calls > 0 ? static_cast<double>(migrations_) / calls : 0,
              "1/call");
  out_.Metric("api.rebuilds",
              calls > 0 ? static_cast<double>(rebuilds_) / calls : 0,
              "1/call");
  out_.Metric("api.rebuild_lost_results",
              lossy_calls_ > 0 ? static_cast<double>(lost_results_) /
                                     static_cast<double>(lossy_calls_)
                               : 0,
              "1/call");
  out_.Metric("api.checkpoint_bytes", static_cast<double>(checkpoint_bytes_),
              "bytes");
  out_.Metric("api.drain_ms", Median(drain_ms_), "ms");
  out_.Metric("query.parse_us", parse_us, "us");
  out_.Metric("core.plan_build_ms", Median(build_ms), "ms");
  out_.Metric("core.slices", static_cast<double>(slices), "count");
  out_.Metric("operators.probe_cmp_per_tuple", logical(CostCategory::kProbe),
              "1/tuple");
  out_.Metric("operators.purge_cmp_per_tuple", logical(CostCategory::kPurge),
              "1/tuple");
  out_.Metric("operators.route_cmp_per_tuple", logical(CostCategory::kRoute),
              "1/tuple");
  out_.Metric("operators.union_cmp_per_tuple", logical(CostCategory::kUnion),
              "1/tuple");
  out_.Metric("operators.key_lookups_per_tuple",
              physical(PhysCategory::kKeyLookup), "1/tuple");
  out_.Metric("operators.entries_visited_per_tuple",
              physical(PhysCategory::kEntryVisit), "1/tuple");
  out_.Metric("operators.index_upkeep_per_tuple",
              physical(PhysCategory::kIndexUpkeep), "1/tuple");
  out_.Metric("operators.state_tuples_peak",
              static_cast<double>(stats_end_.MaxStateTuples()), "tuples");
  out_.Metric("runtime.events_per_tuple",
              per_tuple(stats_end_.events_processed,
                        stats_begin_.events_processed),
              "1/tuple");
  out_.Metric("runtime.results_per_tuple",
              per_tuple(stats_end_.results_delivered,
                        stats_begin_.results_delivered),
              "1/tuple");
  out_.Metric("runtime.callback_share", callback_share, "ratio");
  out_.Metric("runtime.ring_events_per_tuple",
              per_tuple(stats_end_.parallel_edge_events,
                        stats_begin_.parallel_edge_events),
              "1/tuple");
  out_.Metric("runtime.ring_hwm",
              static_cast<double>(stats_end_.parallel_edge_high_water_mark),
              "events");
  out_.Metric("runtime.shard_steals",
              1000 * per_tuple(stats_end_.shard_steals,
                               stats_begin_.shard_steals),
              "1/ktuple");
  out_.Metric("runtime.shard_spilled_runs",
              1000 * per_tuple(stats_end_.shard_spilled_runs,
                               stats_begin_.shard_spilled_runs),
              "1/ktuple");

  // Tracing overhead and per-layer self time over the traced part of the
  // run. Callbacks run inside PushBatch in deterministic mode, so their
  // calibrated cost moves from the api layer to the sink layer there.
  out_.Metric("trace.tuples_per_s_untraced", untraced_tps, "1/s");
  out_.Metric("trace.tuples_per_s_traced", traced_tps, "1/s");
  out_.Metric("trace.overhead_pct",
              untraced_tps > 0 ? 100.0 * (1.0 - traced_tps / untraced_tps) : 0,
              "%");
  const double sink_s = callback_share * traced_push_s;
  self["api"] -= sink_s;
  self["sink"] = sink_s;
  double total = 0;
  for (const auto& [layer, s] : self) total += s;
  for (const char* layer : {"api", "sink", "bench"}) {
    out_.Metric(std::string("trace.self_share.") + layer,
                total > 0 ? self[layer] / total : 0, "ratio");
  }
  ::mkdir(kTraceDir, 0755);  // EEXIST is fine
  const std::string path = std::string(kTraceDir) + "/trace-" +
                           args_.workload + "-" + std::to_string(args_.seed) +
                           ".json";
  if (!tracer_.WriteJson(path)) {
    std::fprintf(stderr, "engine_bench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "engine_bench: %zu spans written to %s\n",
                 tracer_.size(), path.c_str());
  }
}

Outcome Bench::Run() {
  std::vector<double> setup_s;
  for (int i = spec_.sessions; i < spec_.setups; ++i) {
    setup_s.push_back(SetUp());
  }
  // The timed phase is spread over fresh sessions, each with its own
  // engine, so that a slow spell of the shared machine, or one engine's
  // cost level, meets every kind of sample (input windows, failovers,
  // set-ups) alike rather than the one taken while it lasts.
  for (int session = 0; session < spec_.sessions; ++session) {
    setup_s.push_back(SetUp());
    TimedPhase(args_.seconds / spec_.sessions);
    if (!spec_.churn_rounds) {
      // Closing steps on the drained session: failovers, each through a
      // probe engine that takes the churn probe, then a tail of input into
      // the engine restored last.
      for (int i = 0; i < kClosingFailovers; ++i) Failover(true);
      Tracer::Scope span(&tracer_, "bench.tail");
      for (int i = 0; i < 64; ++i) Push(true);
    }
    {
      Tracer::Scope span(&tracer_, "api.Finish");
      engine_->Finish();
    }
    SampleRss();
    rss_open_ = false;
    tracer_.set_enabled(false);
    Verify();
  }
  if (args_.trace) {
    LayerMetrics();
  } else {
    EndToEndMetrics(setup_s);
  }
  return out_;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "engine_bench: %s\n", error.c_str());
    return 2;
  }
  const bool oracle_ok = perfbench::OracleSelfTest(&error);
  perfbench::WorkloadSpec spec;
  if (args.workload == "chain-det") {
    spec = perfbench::ChainSpec(stateslice::ExecutionMode::kDeterministic);
  } else if (args.workload == "chain-sharded") {
    spec = perfbench::ChainSpec(stateslice::ExecutionMode::kSharded);
  } else if (args.workload == "churn-det") {
    spec = perfbench::ChurnSpec();
  } else {
    std::fprintf(stderr, "engine_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, std::move(spec));
  perfbench::Outcome out = bench.Run();
  if (!oracle_ok) out.Fail(error);
  perfbench::Print(out);
  return 0;
}
