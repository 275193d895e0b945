// Engine: the long-lived streaming facade over the stateslice library.
//
// The low-level layer (chain builders + shared-plan builders +
// ReplayArrivals) is batch-shaped: callers build one plan for a fixed query
// set, replay pre-materialized arrivals through it, and drive ChainMigrator
// by hand. The paper's setting, however, is a *continuously running*
// multi-query system where subscriptions enter and leave while the shared
// sliced chain keeps serving results (Section 5.3, Section 7). Engine
// packages that lifecycle, and is also the driver of the paper's figure
// reproductions (bench/bench_util.h):
//
//   Engine engine({.strategy = SharingStrategy::kStateSlice});
//   QueryHandle q1 = engine.RegisterQuery(
//       "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 10 s");
//   engine.Subscribe(q1, [](const JoinResult& r) { ... });
//   engine.Push(StreamSide::kA, tuple);       // push-based ingestion
//   QueryHandle q2 = engine.RegisterQuery(...);  // online, mid-stream
//   engine.Push(StreamSide::kB, tuple);
//   engine.Finish();
//   RunStats stats = engine.Snapshot();
//
// Multi-way queries (FROM S1, S2, S3, ...) are served by the kStateSlice
// strategy as a left-deep tree of sliced chains shared across queries with
// compatible join-tree prefixes (binary queries share the tree's level 0).
// Registering or removing queries on a multi-level tree always takes the
// drain-flush-rebuild path: in-place ChainMigrator migration is defined
// for single binary chains only, and the rebuild's cutoff is recorded in
// rebuild_cutoffs() exactly like any other rebuild.
//
// Online registration semantics (fresh start): a query registered while
// the engine is running delivers exactly the join over tuples pushed at or
// after its registration (Engine::ResultsFrom). On a selection-free
// state-slice chain the engine routes registration through ChainMigrator —
// the shared slice states keep serving the existing queries with zero
// downtime, and the newcomer's QuerySink drops pairs that join
// pre-registration state (its fresh-start cutoff). For every other
// configuration (pull-up, push-down, unshared, lineage mode, selections,
// count windows) the engine falls back to a drain-rebuild path: the
// current plan is flushed (all held results are delivered) and a fresh
// shared plan over the updated query set takes over, so churn works for
// *every* sharing strategy. Each rebuild resets operator state at a cutoff
// recorded in rebuild_cutoffs(): result pairs whose constituents straddle
// a rebuild cutoff are not produced, so a query's cumulative delivery is
// exactly the windowed join over its post-ResultsFrom suffix, segmented by
// the later cutoffs.
//
// Session history: the engine keeps the live queries (at most
// kMaxQueries) apart from the removed ones. A removed query leaves a
// retired entry of its final totals keyed by handle token, plus a running
// sum of their deliveries, so churn, validation, plan builds and result
// harvesting walk the live queries only, and a long-churning session's
// cost does not grow with the number of queries it has ever seen. What
// still grows per event is the rebuild_cutoffs() list and the memory
// sample series (one entry per rebuild / sample interval).
//
// Threading: the Engine itself is single-caller (one thread invokes its
// methods). ExecutionMode::kDeterministic runs everything on that thread.
// ExecutionMode::kSharded adds key-partitioned data parallelism: arrivals
// are hash-routed by join key into Options::shard_count independent
// replicas of the shared plan (one fixed worker each; a full shard ring
// makes Push wait, so a hot key serializes on its shard), and a
// merge plan re-establishes global timestamp order before the sinks — see
// src/runtime/sharded_scheduler.h. Sharded mode requires the equi-key join
// condition (so equal keys meet in one replica) and time-based windows
// (count windows depend on the global arrival sequence). Query churn on a
// running sharded engine always takes the drain-rebuild path, and the
// query sinks — what Subscribe/ResultCount/CollectedResults observe —
// live on the merge plan alone. The merge releases results as the
// slowest shard's watermark advances, so a mid-stream ResultCount can
// trail the deterministic engine; after Finish() (or any drain-rebuild)
// the delivered results are multiset- and order-identical. Subscription
// callbacks fire on the merge worker thread. Push hands tuples to the
// workers, and surgery points (register/unregister/snapshot/drain)
// briefly pause them: workers are joined, the plan is mutated on the
// caller thread, and fresh workers resume. Subscribe/Unsubscribe pause
// them too, but only to edit a query's callback list.
#ifndef STATESLICE_API_ENGINE_H_
#define STATESLICE_API_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/query_handle.h"
#include "src/api/subscription.h"
#include "src/common/thread_annotations.h"
#include "src/core/chain_builder.h"
#include "src/core/cost_model.h"
#include "src/core/migration.h"
#include "src/core/shared_plan_builder.h"
#include "src/core/sharded_plan.h"
#include "src/operators/sliced_window_join.h"
#include "src/query/query.h"
#include "src/runtime/execution_mode.h"
#include "src/runtime/metrics.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/sharded_scheduler.h"

namespace stateslice {

// Multi-query sharing strategies the engine can serve a workload with
// (the paper's Section 3 baselines plus its Section 4-6 contribution).
enum class SharingStrategy {
  kStateSlice,  // sliced chain (Sections 4-6); see ChainObjective
  kPullUp,      // naive sharing with selection pull-up (Fig. 3)
  kPushDown,    // stream partition with selection push-down (Fig. 4)
  kUnshared,    // one join per query (no sharing baseline)
};

// Which chain the state-slice strategy builds (Section 5).
enum class ChainObjective {
  kMemOpt,  // one slice per distinct window — minimal state memory
  kCpuOpt,  // Dijkstra-optimal merge pattern under the CPU cost model
};

// Streams are identified by their 0-based FROM-list position (StreamId,
// src/common/tuple.h): binary joins ingest streams 0 and 1 (the
// StreamSide::kA / kB constants), an N-way workload ingests 0..N-1.
// Tuples pushed into streams no active query reads are dropped (counted
// in dropped_tuples).

// Engine internals at namespace scope so the checkpoint codec
// (src/api/checkpoint.cc) can visit them: each struct is written and read
// by one field list there, in member order.

// What a removed query leaves behind: its final totals only (no query, no
// name), so a long session's history costs a few words per query.
struct RetiredQuery {
  uint64_t token = 0;
  TimePoint results_from = 0;
  uint64_t delivered = 0;
  std::map<std::string, int> collected;  // empty unless collect_results
};

// The session's scalars and churn history.
struct SessionCounters {
  uint64_t next_token = 1;
  TimePoint watermark = 0;
  TimePoint next_sample = 0;
  bool finished = false;
  uint64_t input_tuples = 0;
  uint64_t dropped_tuples = 0;
  uint64_t rejected_tuples = 0;
  std::vector<uint64_t> rejected_by_stream =
      std::vector<uint64_t>(kMaxStreams, 0);
  uint64_t migrations = 0;
  uint64_t rebuilds = 0;
  std::vector<TimePoint> rebuild_cutoffs;
  // Sharded-mode Poll bookkeeping: events reported by finished worker
  // segments that Poll has not returned yet.
  uint64_t poll_pending = 0;
};

// Metrics folded in from finished plan epochs and scheduler segments.
struct SessionMetrics {
  uint64_t events = 0;
  uint64_t edge_events = 0;
  uint64_t edge_hwm = 0;
  CostCounters cost;
  std::vector<MemorySample> memory_samples;
};

// A long-lived multi-query streaming session.
class Engine {
 public:
  struct Options {
    SharingStrategy strategy = SharingStrategy::kStateSlice;
    ChainObjective objective = ChainObjective::kMemOpt;
    // State-slice only: lineage bitmask filtering (Section 6.1).
    bool use_lineage = false;
    // Keep per-query result multisets (CollectedResults); costs memory.
    bool collect_results = false;
    ExecutionMode mode = ExecutionMode::kDeterministic;
    // kSharded: key-partitioned plan replicas (one worker each);
    // 0 = hardware_concurrency() - 1, at least 1.
    int shard_count = 0;
    // kSharded: capacity of each shard's ingress ring, in events.
    size_t parallel_edge_capacity = 256;
    JoinCondition condition = JoinCondition::EquiKey();
    // CPU-Opt objective inputs (stream rates, S1, C_sys).
    ChainCostParams cost_params;
    // Virtual-time spacing of memory samples (deterministic mode).
    Duration sample_interval = kTicksPerSecond;
    // Deterministic mode: process each pushed tuple to quiescence (the
    // tuple-at-a-time discipline of CAPE's round-robin scheduler, Section
    // 7.1, that the paper's cost analysis assumes). When false, Push only
    // enqueues and the caller drives processing with Poll()/Drain().
    bool auto_drain = true;
    // Run length: max events a scheduler visit drains from one queue into
    // an Operator::OnRun call. 0 keeps the per-mode defaults (8 for the
    // deterministic round-robin quantum — the paper-faithful CAPE setting
    // the figure benches assume — and the sharded scheduler's own
    // per-ring quantum). Larger runs amortize dispatch at the cost of
    // per-queue latency; event order within a queue is unaffected.
    int run_length = 0;
  };

  Engine();  // default options
  explicit Engine(Options options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- query churn ------------------------------------------------------
  // Registers a continuous query (id is assigned by the engine; an empty
  // name gets a generated one). Returns an invalid handle and sets
  // last_error() when the query is rejected (bad window, mixed window
  // kinds, a selection the chosen strategy cannot serve, capacity).
  // Registering on a running engine advances the session watermark one
  // tick past the last arrival (see Push), which pins ResultsFrom exactly
  // between the pre- and post-registration arrivals.
  QueryHandle RegisterQuery(const ContinuousQuery& query);

  // Parses `cql` with ParseQuery and registers the result. Parse errors
  // surface through last_error().
  QueryHandle RegisterQuery(std::string_view cql);

  // Removes a query: its results stop and it is retired. A retired query
  // keeps only its final totals (ResultsFrom, ResultCount and, with
  // collect_results, CollectedResults), answered by a token lookup in
  // O(log retired); its definition and name are dropped, and its handle
  // turns inactive for good. Snapshot().results_delivered keeps counting
  // retired deliveries through a running total. Returns false (with
  // last_error) for unknown/inactive handles.
  bool UnregisterQuery(QueryHandle handle);

  // Message for the most recent rejected call.
  const std::string& last_error() const { return last_error_; }

  // --- ingestion --------------------------------------------------------
  // Pushes one tuple into `stream`. Tuples must arrive in global
  // non-decreasing timestamp order (the paper's Section 2 assumption).
  // A malformed arrival — negative stream id, NaN value, a timestamp
  // before watermark() or outside [kMinTime+1, kMaxTime) — is rejected,
  // not ingested: it is counted in rejected_tuples(), a one-line reason
  // lands in last_error(), and the watermark does not advance. Note that
  // churn operations advance the watermark one tick past the last
  // arrival, so a tuple pushed after a registration must not tie with
  // pre-registration arrivals. A well-formed tuple pushed while no query
  // is registered is dropped (counted in dropped_tuples); one pushed into
  // a stream id no active query reads is rejected, with the watermark
  // advancing in both cases (the arrival is real — only its payload is
  // unreadable). Must not be called after Finish (CHECK) or on a
  // poisoned() engine (rejected).
  void Push(StreamId stream, const Tuple& tuple);
  // Move spelling. Tuple is trivially copyable today, so this costs the
  // same as the const& overload; it exists so call sites that hand over
  // ownership (and any future non-trivial tuple payload) take the move
  // path: `engine.Push(side, std::move(t))`.
  void Push(StreamId stream, Tuple&& tuple);

  // Pushes a timestamp-ordered batch into `stream` as one run: the batch
  // is validated (non-decreasing timestamps, first >= watermark()),
  // converted to events, and fed to the scheduler in a single visit —
  // auto_drain drains once per batch, not per tuple, which is where the
  // batched ingest throughput comes from (bench_batch_throughput).
  // Any contiguous range binds: `PushBatch(s, vec)`, a subspan, a C array.
  // Deterministic-mode memory sampling is batch-granular: samples due
  // within the batch are taken against the pre-batch state.
  void PushBatch(StreamId stream, std::span<const Tuple> tuples);
  // Move overload (API parity with Push; see the Push(Tuple&&) note). The
  // vector is consumed and left empty.
  void PushBatch(StreamId stream, std::vector<Tuple>&& tuples);

  // Deterministic mode with auto_drain=false: processes up to `max_events`
  // pending events and returns how many ran (< max_events implies
  // quiescence). In sharded mode the workers process continuously; Poll
  // never runs work itself and instead returns the number of events the
  // workers processed since the last Poll (a relaxed snapshot;
  // `max_events` is ignored). Returns 0 on an idle engine.
  uint64_t Poll(uint64_t max_events = 4096);

  // Processes everything in flight. In deterministic mode this drains the
  // plan to quiescence on the calling thread. In sharded mode it is a
  // barrier: workers are joined (draining all in-flight events), their
  // counters fold into the engine totals, and fresh workers resume —
  // expensive, so prefer Poll for progress monitoring.
  void Drain();

  // Declares end of input: flushes end-of-stream punctuations, delivers
  // all held results, and retires the plan. Terminal — no further Push or
  // churn; counts and Snapshot stay readable.
  void Finish();

  // --- results ----------------------------------------------------------
  // Adds `callback` to the query's subscriber list; the query's sink runs
  // it once per delivered JoinResult, across migrations and plan
  // rebuilds. Subscribe and Unsubscribe only edit that list (pausing the
  // sharded workers meanwhile); they make no plan surgery. A query's
  // subscriptions end when it is unregistered.
  SubscriptionId Subscribe(QueryHandle handle, ResultCallback callback);
  bool Unsubscribe(SubscriptionId id);

  // Results delivered to the query so far (across all plan epochs). On a
  // running sharded engine this briefly pauses the workers for a
  // consistent read — prefer one Snapshot() over per-handle loops there.
  uint64_t ResultCount(QueryHandle handle);

  // Result multiset (JoinPairKey -> count) delivered to the query, across
  // all plan epochs. Requires Options::collect_results. Same sharded-mode
  // pause note as ResultCount.
  std::map<std::string, int> CollectedResults(QueryHandle handle);

  // The query observes tuples with timestamp >= this cutoff (set once, at
  // registration): its cumulative delivered results are exactly the
  // windowed join over that suffix, minus pairs split by a later rebuild
  // cutoff (see rebuild_cutoffs). 0 for queries registered before the
  // first push.
  TimePoint ResultsFrom(QueryHandle handle) const;

  bool IsActive(QueryHandle handle) const;

  // --- maintenance ------------------------------------------------------
  // State-slice chains only: merges adjacent slices whose shared boundary
  // no longer carries a registered query (Section 5.3's compaction).
  // Returns the number of merges performed (0 when not applicable).
  int CompactChain();

  // --- fault tolerance (checkpoint/restore) -----------------------------
  // Serializes the engine's complete logical state — registered queries,
  // the live chain/tree structure (including migration-created boundaries),
  // every slice's join-state contents, buffered union events, watermarks,
  // and accumulated counters — into a versioned, checksummed binary
  // snapshot. The engine is quiesced first (in-flight events are drained;
  // this only advances work an uninterrupted run performs anyway) and
  // keeps running afterwards. Returns false with last_error() when the
  // state is not serializable (a selection outside the CQL dialect, a
  // poisoned engine). A torn write is detectable: Restore verifies a
  // trailing CRC-32 over the whole snapshot.
  bool Checkpoint(std::string* out);

  // Rebuilds the serialized engine into *this*, which must be freshly
  // constructed with the same Options (a fingerprint in the snapshot is
  // verified field by field). Query handles from the checkpointed engine
  // remain valid against the restored one; subscriptions are not part of
  // the snapshot and must be re-established with Subscribe. After a
  // successful restore, subsequent pushes yield results byte-identical to
  // an uninterrupted run. On any failure — bad magic, version or options
  // mismatch, checksum mismatch, truncation, structural inconsistency —
  // the engine reports a diagnostic through last_error(), never crashes,
  // and becomes poisoned(): ingestion and churn are rejected, while
  // Snapshot/Finish/Drain/Poll stay safe and idempotent.
  bool Restore(std::string_view snapshot);

  // True after a failed Restore: the engine holds no usable state and
  // rejects ingestion/churn, but introspection stays available.
  bool poisoned() const { return poisoned_; }

  // Asserts (CHECK-fails on violation) the structural invariants of the
  // current plan: chain spec/partition/slice consistency and per-state
  // key-index consistency, on every shard replica in sharded mode. No-op
  // for non-chain strategies or an idle engine. Briefly pauses workers.
  void CheckPlanInvariants();

  // --- introspection ----------------------------------------------------
  // Unified run metrics across all plan epochs: volumes, cost counters,
  // memory samples, wall/virtual time. Briefly pauses the workers in
  // sharded mode so the numbers are a consistent quiescent snapshot.
  RunStats Snapshot();

  // Live slice ranges and state sizes of the current chain (empty for
  // non-chain strategies or an idle engine).
  struct SliceInfo {
    SliceRange range;
    size_t state_tuples = 0;
  };
  std::vector<SliceInfo> ChainSlices();

  // Graphviz DOT of the current shared plan (builds the plan if queries
  // are registered but nothing was pushed yet; empty string when idle).
  std::string PlanDot();

  size_t active_queries() const { return active_.size(); }
  TimePoint watermark() const { return session_.watermark; }
  bool running() const {
    return built_.plan != nullptr || sharded_ != nullptr;
  }
  bool finished() const { return session_.finished; }
  uint64_t input_tuples() const { return session_.input_tuples; }
  uint64_t dropped_tuples() const { return session_.dropped_tuples; }
  // Arrivals bounced at ingestion with a one-line reason in last_error():
  // NaN values, out-of-order or out-of-range timestamps, streams no active
  // query reads (see Push). Per-stream counts index by stream id; pushes
  // with an invalid id count in the total only.
  uint64_t rejected_tuples() const { return session_.rejected_tuples; }
  const std::vector<uint64_t>& rejected_by_stream() const {
    return session_.rejected_by_stream;
  }
  // Churn operations served in place by ChainMigrator — registrations,
  // removals, and CompactChain passes — without a plan rebuild.
  uint64_t migrations() const { return session_.migrations; }
  // Drain-rebuild transitions; each entry of rebuild_cutoffs() is the
  // cutoff timestamp of one rebuild (operator state reset at that point).
  uint64_t rebuilds() const { return session_.rebuilds; }
  const std::vector<TimePoint>& rebuild_cutoffs() const {
    return session_.rebuild_cutoffs;
  }
  const Options& options() const { return options_; }

 private:
  // A registered query (at most kMaxQueries of them are live).
  struct QueryRecord {
    uint64_t token = 0;
    ContinuousQuery query;  // id = dense id in the current plan epoch
    TimePoint results_from = 0;
    uint64_t delivered = 0;                 // finalized plan epochs
    std::map<std::string, int> collected;   // finalized plan epochs
    // Subscribed callbacks. The query's sink reads them through this
    // pointer, which stays valid while the record moves in active_.
    std::unique_ptr<std::vector<Subscriber>> subscribers =
        std::make_unique<std::vector<Subscriber>>();
  };

  // The live record for `token`, or nullptr (a linear scan over at most
  // kMaxQueries records).
  QueryRecord* FindActive(uint64_t token);
  const QueryRecord* FindActive(uint64_t token) const;
  // The retired entry for `token`, or nullptr (O(log retired)).
  const RetiredQuery* FindRetired(uint64_t token) const;
  // Moves active_[index] into retired_ with its finalized totals.
  void Retire(size_t index);
  bool ValidateNewQuery(const ContinuousQuery& query, std::string* error)
      const;
  void RecomputeMaxStreams();

  // Bounces `count` arrivals attributed to `stream` (invalid ids count in
  // the total only) and records `reason` in last_error_.
  void RejectPush(StreamId stream, uint64_t count, std::string reason);

  // Plan-surgery exclusion (checked under Clang -Wthread-safety): the
  // methods below mutate plan structure or the fold-in metric accumulators,
  // which in sharded mode are also touched when workers are joined. They
  // require surgery_cap_ — the "workers are quiescent and this thread has
  // the engine to itself" capability. QuiesceForSurgery (and PauseSharded,
  // which joins the workers) establish it; surgery entry points that are
  // trivially exclusive (idle engine, deterministic mode) assert it with a
  // justification comment.

  // Builds the shared plan over the active queries (dense ids in record
  // order), from `chain` when given, else from the recomputed chain/tree,
  // and binds each query's sink to its subscriber list. Sharded workers
  // stay parked: callers start them with ResumeAfterSurgery.
  void BuildPlan(const ChainPlan* chain = nullptr)
      STATESLICE_REQUIRES(surgery_cap_);
  void EnsureBuilt();
  // Harvests sinks, folds metrics, flushes (FinishAll) and destroys the
  // current plan. The engine is idle afterwards.
  void TearDownPlan() STATESLICE_REQUIRES(surgery_cap_);
  // Sharded: drains every replica (flushing it with end-of-stream
  // punctuations first when `flush`), relays each replica's exit-tap tail
  // into the merge plan, then drains the merge plan. Returns the plans'
  // state and queue sizes before any flush.
  MemorySample DrainShardsIntoMerge(bool flush)
      STATESLICE_REQUIRES(surgery_cap_);
  // Every live plan: the shard replicas then the merge plan, or built_.
  std::vector<BuiltPlan*> LivePlans();
  void HarvestSinks() STATESLICE_REQUIRES(surgery_cap_);
  // Adds query `qid`'s live sink count and collected multiset on the
  // result plan `plan` to the given totals.
  static void FoldLiveResults(const BuiltPlan& plan, int qid,
                              uint64_t* delivered,
                              std::map<std::string, int>* collected);
  // The folded cost accumulators plus the live plans' counters, logical
  // and physical.
  CostCounters TotalCost() STATESLICE_REQUIRES(surgery_cap_);

  // Launch / join the shard workers + merge worker over sharded_.
  // PauseSharded folds their counters; after it returns no other thread
  // touches engine state, which is exactly surgery_cap_.
  void StartSharded();
  void PauseSharded() STATESLICE_ASSERT_CAPABILITY(surgery_cap_);
  int ShardCount() const;
  // The result plan, which alone carries the query sinks: the merge plan
  // in sharded mode, built_ otherwise. Valid only while running().
  BuiltPlan& result_plan() {
    return sharded_ != nullptr ? sharded_->merge : built_;
  }
  // Brings the plan to a quiescent, deterministic-mode state so plan
  // surgery is legal; ResumeAfterSurgery restarts the workers if needed.
  void QuiesceForSurgery() STATESLICE_ASSERT_CAPABILITY(surgery_cap_);
  void ResumeAfterSurgery();

  bool CanMigrateAdd(const ContinuousQuery& query) const;
  bool CanMigrateRemove() const;
  // The cutoff new arrivals are guaranteed to be at or beyond.
  TimePoint Cutoff() const { return session_.watermark + 1; }

  void SampleMemory() STATESLICE_REQUIRES(surgery_cap_);

  Options options_;
  std::string last_error_;
  SessionCounters session_;
  std::vector<QueryRecord> active_;  // live queries, registration order
  // Removed queries, sorted by token: a flat map, so Checkpoint scans it
  // contiguously and lookups binary-search it. Retire inserts in token
  // order; an entry is shifted only by the later retirement of a query
  // that was active when it retired (at most kMaxQueries - 1 of them), so
  // insertion is amortized O(1).
  std::vector<RetiredQuery> retired_;
  uint64_t retired_delivered_ = 0;  // sum of retired_[*].delivered

  BuiltPlan built_;  // built_.plan == nullptr while idle
  std::unique_ptr<RoundRobinScheduler> det_scheduler_;
  // kSharded: the shard replicas + merge plan (built_ stays empty), and
  // the scheduler threading them while running.
  std::unique_ptr<ShardedPlanSet> sharded_;
  std::unique_ptr<ShardedScheduler> shard_scheduler_;
  int last_shard_count_ = 0;

  int max_streams_ = 0;  // streams read by active queries (Push drop check)
  // Reused PushBatch staging run (single-caller engine: one suffices).
  EventRun batch_run_;
  // Sharded-mode Poll bookkeeping (single-caller thread): how much of the
  // *current* worker segment's total_processed() Poll already reported.
  uint64_t poll_segment_reported_ = 0;
  // Set when a Restore failed partway: the engine rejects ingestion and
  // registration but keeps answering snapshots (see poisoned()).
  bool poisoned_ = false;
  // Guarded by the surgery capability: folds happen at pause/teardown
  // points, reads at quiescent snapshots.
  SessionMetrics metrics_ STATESLICE_GUARDED_BY(surgery_cap_);
  std::chrono::steady_clock::time_point created_;

  // "Workers quiescent, this thread owns the engine" (see the surgery
  // section above).
  ThreadRole surgery_cap_;
};

}  // namespace stateslice

#endif  // STATESLICE_API_ENGINE_H_
