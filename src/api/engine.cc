#include "src/api/engine.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/fault_point.h"
#include "src/query/parser.h"

namespace stateslice {
namespace {

// Folds `from` into `into` category by category, logical and physical
// (CostCounters are atomic sums, not directly addable).
void AddCost(const CostCounters& from, CostCounters* into) {
  for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
    const auto category = static_cast<CostCategory>(c);
    into->Add(category, from.Get(category));
  }
  for (int c = 0; c < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++c) {
    const auto category = static_cast<PhysCategory>(c);
    into->AddPhysical(category, from.GetPhysical(category));
  }
}

void MergeMultiset(const std::map<std::string, int>& from,
                   std::map<std::string, int>* into) {
  for (const auto& [key, count] : from) (*into)[key] += count;
}

}  // namespace

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(Options options)
    : options_(std::move(options)),
      created_(std::chrono::steady_clock::now()) {}

Engine::~Engine() {
  if (shard_scheduler_ != nullptr) PauseSharded();
}

// ------------------------------------------------------------ query churn

Engine::QueryRecord* Engine::FindActive(uint64_t token) {
  for (QueryRecord& r : active_) {
    if (r.token == token) return &r;
  }
  return nullptr;
}

const Engine::QueryRecord* Engine::FindActive(uint64_t token) const {
  for (const QueryRecord& r : active_) {
    if (r.token == token) return &r;
  }
  return nullptr;
}

const RetiredQuery* Engine::FindRetired(uint64_t token) const {
  const auto it = std::lower_bound(
      retired_.begin(), retired_.end(), token,
      [](const RetiredQuery& r, uint64_t t) { return r.token < t; });
  return it != retired_.end() && it->token == token ? &*it : nullptr;
}

void Engine::Retire(size_t index) {
  QueryRecord& rec = active_[index];
  retired_delivered_ += rec.delivered;
  const auto pos = std::upper_bound(
      retired_.begin(), retired_.end(), rec.token,
      [](uint64_t t, const RetiredQuery& r) { return t < r.token; });
  retired_.insert(pos, RetiredQuery{.token = rec.token,
                                    .results_from = rec.results_from,
                                    .delivered = rec.delivered,
                                    .collected = std::move(rec.collected)});
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(index));
}

void Engine::RecomputeMaxStreams() {
  int n = 0;
  for (const QueryRecord& r : active_) {
    n = std::max(n, r.query.num_streams());
  }
  max_streams_ = n;
}

bool Engine::ValidateNewQuery(const ContinuousQuery& query,
                              std::string* error) const {
  if (session_.finished) {
    *error = "engine already finished";
    return false;
  }
  if (poisoned_) {
    *error = "engine poisoned by a failed Restore";
    return false;
  }
  if (query.window.extent <= 0) {
    *error = "window must be positive";
    return false;
  }
  if (options_.mode == ExecutionMode::kSharded) {
    // Key partitioning only covers predicates that pair equal keys (so a
    // key's matches all live in one shard) over time windows (count
    // windows depend on the global arrival sequence).
    if (options_.condition.kind != JoinCondition::Kind::kEquiKey) {
      *error = "sharded execution requires the equi-key join condition";
      return false;
    }
    if (query.window.kind != WindowKind::kTime) {
      *error = "sharded execution requires time-based windows";
      return false;
    }
  }
  if (active_queries() >= static_cast<size_t>(kMaxQueries)) {
    // Lineage tracks one bit per query; the stream count of each query
    // does not consume capacity.
    *error = "query capacity reached";
    return false;
  }
  const int n = query.num_streams();
  if (n < 2) {
    // A non-empty stream_names list must name every stream (a 1-entry
    // list is a malformed spec, not a binary default).
    *error = "a query needs at least two streams";
    return false;
  }
  if (n > kMaxStreams) {
    *error = "query exceeds the " + std::to_string(kMaxStreams) +
             "-stream limit";
    return false;
  }
  if (!query.join_anchors.empty()) {
    if (static_cast<int>(query.join_anchors.size()) != n - 1) {
      *error = "join_anchors must have one entry per stream after the first";
      return false;
    }
    for (int k = 0; k < n - 1; ++k) {
      if (query.join_anchors[k] < 0 || query.join_anchors[k] > k) {
        *error = "join anchor must reference an earlier stream";
        return false;
      }
    }
  }
  if (query.extra_selections.size() >
      static_cast<size_t>(n > 2 ? n - 2 : 0)) {
    *error = "more selections than streams beyond the binary pair";
    return false;
  }
  if (n > 2) {
    if (options_.strategy != SharingStrategy::kStateSlice) {
      *error = "multi-way queries require the state-slice strategy";
      return false;
    }
    if (options_.use_lineage) {
      *error = "lineage mode is binary-only";
      return false;
    }
    if (query.window.kind != WindowKind::kTime) {
      *error = "multi-way queries require time-based windows";
      return false;
    }
  }
  if (!active_.empty() &&
      active_.front().query.window.kind != query.window.kind) {
    *error = "mixed time- and count-based windows are unsupported";
    return false;
  }
  // Join-tree-prefix compatibility: streams are positional, so the shared
  // tree serves the new query iff its anchors agree with every active
  // query on the common prefix.
  for (const QueryRecord& r : active_) {
    const int shared = std::min(n, r.query.num_streams()) - 1;
    for (int k = 0; k < shared; ++k) {
      if (query.anchor(k) != r.query.anchor(k)) {
        *error = "join-tree prefix is incompatible with registered queries";
        return false;
      }
    }
  }
  if ((options_.strategy == SharingStrategy::kStateSlice ||
       options_.strategy == SharingStrategy::kPushDown) &&
      n == 2 && !query.selection_b.IsTrue()) {
    // Binary chains push σ down on stream 0 only. Multi-way terminals
    // gate every stream's σ at their tree level instead, so the
    // restriction applies to the binary (level-0) queries alone.
    *error = "B-side selections are unsupported by this sharing strategy";
    return false;
  }
  if (options_.strategy == SharingStrategy::kPushDown &&
      !query.selection_a.IsTrue()) {
    for (const QueryRecord& r : active_) {
      if (r.query.selection_a.IsTrue()) continue;
      if (r.query.selection_a.description() !=
          query.selection_a.description()) {
        *error = "push-down sharing requires one shared selection predicate";
        return false;
      }
    }
  }
  return true;
}

QueryHandle Engine::RegisterQuery(const ContinuousQuery& query) {
  std::string error;
  if (!ValidateNewQuery(query, &error)) {
    last_error_ = std::move(error);
    return {};
  }
  QueryRecord rec;
  rec.token = session_.next_token++;
  rec.query = query;
  rec.query.id = 0;  // dense id assigned at (re)build / migration
  if (rec.query.name.empty()) {
    rec.query.name = "Q" + std::to_string(rec.token);
  }
  const uint64_t token = rec.token;

  // Until the first arrival there is nothing to cut off — whether or not
  // a plan was already built lazily (e.g. by PlanDot).
  const bool saw_input = (session_.input_tuples + session_.dropped_tuples) > 0;
  const TimePoint cutoff = saw_input ? Cutoff() : 0;
  rec.results_from = cutoff;

  if (!running()) {
    // Idle (or lazy pre-build): the query joins the next plan. Tuples
    // seen so far were either dropped or belong to a torn-down plan, so
    // the query observes arrivals from here on.
    active_.push_back(std::move(rec));
    RecomputeMaxStreams();
    session_.watermark = std::max(session_.watermark, cutoff);
    return {token};
  }

  QuiesceForSurgery();
  STATESLICE_FAULT_POINT("engine.migrate_add");
  if (CanMigrateAdd(rec.query)) {
    // In-place registration (Section 5.3): the shared slice states keep
    // serving the existing queries; the newcomer's sink cutoff gives it
    // fresh-start semantics.
    ChainMigrator migrator(&built_);
    rec.query.id =
        migrator.AddQuery(rec.query.window, rec.query.name, cutoff);
    ValidateBuiltChain(built_);
    built_.sinks[rec.query.id]->set_subscribers(rec.subscribers.get());
    ++session_.migrations;
    active_.push_back(std::move(rec));
  } else {
    // Drain-rebuild: flush and retire the current plan, then stand up a
    // fresh shared plan over the updated query set. Works for every
    // strategy; operator state resets at `cutoff`.
    TearDownPlan();
    active_.push_back(std::move(rec));
    if (cutoff > 0) session_.rebuild_cutoffs.push_back(cutoff);
    ++session_.rebuilds;
    BuildPlan();
  }
  RecomputeMaxStreams();
  // Registration advances the session watermark to the cutoff: arrivals
  // after the registration cannot tie with arrivals before it, so both
  // churn paths deliver exactly the post-cutoff join to the newcomer.
  session_.watermark = std::max(session_.watermark, cutoff);
  ResumeAfterSurgery();
  return {token};
}

QueryHandle Engine::RegisterQuery(std::string_view cql) {
  const ParseResult parsed = ParseQuery(std::string(cql));
  if (!parsed.ok) {
    last_error_ = "parse error: " + parsed.error;
    return {};
  }
  return RegisterQuery(parsed.query);
}

bool Engine::UnregisterQuery(QueryHandle handle) {
  if (poisoned_) {
    last_error_ = "engine poisoned by a failed Restore";
    return false;
  }
  QueryRecord* rec = FindActive(handle.token);
  if (rec == nullptr) {
    last_error_ = "unknown or inactive query handle";
    return false;
  }
  const size_t index = static_cast<size_t>(rec - active_.data());
  if (!running()) {
    Retire(index);
  } else {
    QuiesceForSurgery();
    STATESLICE_FAULT_POINT("engine.migrate_remove");
    if (active_queries() == 1) {
      // Last query out: flush and idle the engine.
      TearDownPlan();
      Retire(index);
    } else if (CanMigrateRemove()) {
      FoldLiveResults(built_, rec->query.id, &rec->delivered,
                      &rec->collected);
      ChainMigrator migrator(&built_);
      migrator.RemoveQuery(rec->query.id);
      ValidateBuiltChain(built_);
      ++session_.migrations;
      Retire(index);
    } else {
      TearDownPlan();  // harvests every query, including this one
      Retire(index);
      if ((session_.input_tuples + session_.dropped_tuples) > 0) {
        const TimePoint cutoff = Cutoff();
        session_.rebuild_cutoffs.push_back(cutoff);
        // The rebuild advances the watermark so post-rebuild arrivals
        // cannot tie with pre-rebuild state (see RegisterQuery).
        session_.watermark = cutoff;
      }
      ++session_.rebuilds;
      BuildPlan();
    }
    ResumeAfterSurgery();
  }
  RecomputeMaxStreams();
  return true;
}

bool Engine::CanMigrateAdd(const ContinuousQuery& query) const {
  if (options_.strategy != SharingStrategy::kStateSlice ||
      options_.use_lineage) {
    return false;
  }
  // Sharded churn always drains and rebuilds: ChainMigrator would have to
  // mutate every replica plus the merge plan in lock-step.
  if (options_.mode == ExecutionMode::kSharded) return false;
  // In-place migration is binary-chain-only: a multi-way newcomer, or any
  // running multi-level tree, rebuilds (cutoff recorded in
  // rebuild_cutoffs).
  if (query.num_streams() > 2 || built_.num_levels != 1) {
    return false;
  }
  if (!query.Unfiltered() || query.window.kind != WindowKind::kTime) {
    return false;
  }
  for (const QueryRecord& r : active_) {
    if (!r.query.Unfiltered()) return false;
  }
  if (built_.slices.empty()) return false;
  // The window must land inside the chain span, and if it splits a slice,
  // that slice must be router-free (merged slices re-split via rebuild).
  for (const BuiltSlice& slice : built_.slices) {
    const SliceRange r = slice.join->range();
    if (r.kind != WindowKind::kTime) return false;
    if (query.window.extent == r.end) return true;
    if (query.window.extent > r.start && query.window.extent < r.end) {
      return slice.result_producer == static_cast<Operator*>(slice.join);
    }
  }
  return false;  // window exceeds the chain span
}

bool Engine::CanMigrateRemove() const {
  if (options_.strategy != SharingStrategy::kStateSlice ||
      options_.use_lineage || built_.slices.empty() ||
      built_.num_levels != 1) {
    return false;
  }
  if (options_.mode == ExecutionMode::kSharded) return false;  // see Add
  for (const QueryRecord& r : active_) {
    if (!r.query.Unfiltered()) return false;
  }
  return true;
}

// -------------------------------------------------------------- lifecycle

void Engine::BuildPlan(const ChainPlan* chain) {
  SLICE_CHECK(!running());
  std::vector<ContinuousQuery> queries;
  queries.reserve(active_.size());
  for (QueryRecord& r : active_) {
    r.query.id = static_cast<int>(queries.size());
    queries.push_back(r.query);
  }
  SLICE_CHECK(!queries.empty());

  BuildOptions bopt;
  bopt.condition = options_.condition;
  bopt.collect_results = options_.collect_results;
  bopt.use_lineage = options_.use_lineage &&
                     options_.strategy == SharingStrategy::kStateSlice;
  // Resolve the state-slice tree once; sharded mode builds one plan per
  // replica from the same tree. The tree builders yield a single-level
  // tree for binary workloads, which BuildStateSlicePlan wires exactly as
  // the historical chain.
  JoinTreePlan tree;
  if (options_.strategy == SharingStrategy::kStateSlice && chain == nullptr) {
    tree = options_.objective == ChainObjective::kMemOpt
               ? BuildMemOptTree(queries)
               : BuildCpuOptTree(queries, options_.cost_params);
  }
  const auto build_one = [&](const BuildOptions& opt) -> BuiltPlan {
    switch (options_.strategy) {
      case SharingStrategy::kStateSlice:
        return chain != nullptr ? BuildStateSlicePlan(queries, *chain, opt)
                                : BuildStateSlicePlan(queries, tree, opt);
      case SharingStrategy::kPullUp:
        return BuildPullUpPlan(queries, opt);
      case SharingStrategy::kPushDown:
        return BuildPushDownPlan(queries, opt);
      case SharingStrategy::kUnshared:
        return BuildUnsharedPlans(queries, opt);
    }
    SLICE_CHECK(false);  // unreachable: exhaustive switch
    return BuiltPlan{};
  };
  if (options_.mode == ExecutionMode::kSharded) {
    // Key-partitioned replicas; the merge plan carries the sinks.
    const int shards = ShardCount();
    last_shard_count_ = shards;
    sharded_ = std::make_unique<ShardedPlanSet>(BuildShardedPlanSet(
        shards, queries, bopt, [&] { return build_one(bopt); }));
  } else {
    built_ = build_one(bopt);
    AttachQuerySinks(&built_);
    // run_length == 0 keeps the paper-faithful default quantum of 8.
    det_scheduler_ = std::make_unique<RoundRobinScheduler>(
        built_.plan.get(), options_.run_length > 0 ? options_.run_length : 8);
  }
  for (const QueryRecord& r : active_) {
    result_plan().sinks[r.query.id]->set_subscribers(r.subscribers.get());
  }
}

void Engine::EnsureBuilt() {
  // Idle engine: no plan, hence no scheduler and no worker threads — the
  // (single) caller thread trivially has the engine to itself.
  surgery_cap_.Assert();
  if (!running() && !session_.finished && active_queries() > 0) {
    BuildPlan();
    ResumeAfterSurgery();
  }
}

void Engine::FoldLiveResults(const BuiltPlan& plan, int qid,
                             uint64_t* delivered,
                             std::map<std::string, int>* collected) {
  const QuerySink& sink = *plan.sinks[qid];
  *delivered += sink.result_count();
  MergeMultiset(sink.ResultMultiset(), collected);
}

void Engine::HarvestSinks() {
  // In sharded mode the sinks live on the merge plan.
  for (QueryRecord& r : active_) {
    FoldLiveResults(result_plan(), r.query.id, &r.delivered, &r.collected);
  }
}

std::vector<BuiltPlan*> Engine::LivePlans() {
  std::vector<BuiltPlan*> plans;
  if (sharded_ != nullptr) {
    for (BuiltPlan& shard : sharded_->shards) plans.push_back(&shard);
    plans.push_back(&sharded_->merge);
  } else if (built_.plan != nullptr) {
    plans.push_back(&built_);
  }
  return plans;
}

CostCounters Engine::TotalCost() {
  CostCounters cost = metrics_.cost;
  for (const BuiltPlan* plan : LivePlans()) {
    AddCost(plan->plan->cost_counters(), &cost);
  }
  return cost;
}

MemorySample Engine::DrainShardsIntoMerge(bool flush) {
  MemorySample sizes{.time = session_.watermark};
  const int nq = sharded_->num_queries();
  EventRun relay;
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    QueryPlan* plan = sharded_->shards[s].plan.get();
    RoundRobinScheduler drain(plan);
    drain.RunUntilQuiescent();
    sizes.state_tuples += plan->TotalStateSize();
    sizes.queue_events += plan->TotalQueueSize();
    if (flush) {
      plan->FinishAll();
      drain.RunUntilQuiescent();
    }
    metrics_.events += drain.total_processed();
    for (int q = 0; q < nq; ++q) {
      while (sharded_->exits[s][q]->DrainRun(&relay, 256) > 0) {
        sharded_->merge_entries[s][q]->PushRun(&relay);
      }
    }
    SLICE_CHECK_EQ(plan->TotalQueueSize(), 0u);
  }
  QueryPlan* merge = sharded_->merge.plan.get();
  RoundRobinScheduler mdrain(merge);
  mdrain.RunUntilQuiescent();
  metrics_.events += mdrain.total_processed();
  sizes.state_tuples += merge->TotalStateSize();
  sizes.queue_events += merge->TotalQueueSize();
  return sizes;
}

void Engine::TearDownPlan() {
  SLICE_CHECK(running());
  if (sharded_ != nullptr) {
    PauseSharded();  // no-op if already paused
    // Flush each replica (its kMaxTime punctuations let the merge unions
    // release everything) into the merge plan, then flush the merge.
    metrics_.memory_samples.push_back(DrainShardsIntoMerge(/*flush=*/true));
    RoundRobinScheduler mdrain(sharded_->merge.plan.get());
    sharded_->merge.plan->FinishAll();
    mdrain.RunUntilQuiescent();
    metrics_.events += mdrain.total_processed();
    HarvestSinks();
    metrics_.cost = TotalCost();
    sharded_.reset();
    return;
  }
  RoundRobinScheduler drain(built_.plan.get());
  drain.RunUntilQuiescent();
  metrics_.memory_samples.push_back(MemorySample{
      .time = session_.watermark,
      .state_tuples = built_.plan->TotalStateSize(),
      .queue_events = built_.plan->TotalQueueSize(),
  });
  // Flush end-of-stream punctuations so order-preserving unions release
  // every held result before the plan goes away.
  built_.plan->FinishAll();
  drain.RunUntilQuiescent();
  metrics_.events += drain.total_processed();
  if (det_scheduler_ != nullptr) {
    metrics_.events += det_scheduler_->total_processed();
    det_scheduler_.reset();
  }
  HarvestSinks();
  metrics_.cost = TotalCost();
  built_ = BuiltPlan{};
}

int Engine::ShardCount() const {
  if (options_.shard_count > 0) return options_.shard_count;
  const unsigned hw = std::thread::hardware_concurrency();  // may be 0
  return static_cast<int>(hw > 1 ? hw - 1 : 1);
}

void Engine::StartSharded() {
  SLICE_CHECK(sharded_ != nullptr);
  SLICE_CHECK(shard_scheduler_ == nullptr);
  ShardedSchedulerOptions sopt;
  sopt.ring_capacity = options_.parallel_edge_capacity;
  if (options_.run_length > 0) sopt.quantum = options_.run_length;
  shard_scheduler_ =
      std::make_unique<ShardedScheduler>(sharded_.get(), sopt);
  shard_scheduler_->Start();
}

void Engine::PauseSharded() {
  if (shard_scheduler_ == nullptr) return;
  shard_scheduler_->FinishInput();
  shard_scheduler_->Join();
  session_.poll_pending +=
      shard_scheduler_->total_processed() - poll_segment_reported_;
  poll_segment_reported_ = 0;
  metrics_.events += shard_scheduler_->total_processed();
  metrics_.edge_events += shard_scheduler_->edges_total_pushed();
  metrics_.edge_hwm = std::max<uint64_t>(
      metrics_.edge_hwm, shard_scheduler_->edges_high_water_mark());
  shard_scheduler_.reset();
}

void Engine::QuiesceForSurgery() {
  if (shard_scheduler_ != nullptr) {
    PauseSharded();
  } else if (det_scheduler_ != nullptr) {
    det_scheduler_->RunUntilQuiescent();
  }
}

void Engine::ResumeAfterSurgery() {
  if (running() && !session_.finished &&
      options_.mode == ExecutionMode::kSharded &&
      shard_scheduler_ == nullptr) {
    StartSharded();
  }
}

// --------------------------------------------------------------- ingestion

void Engine::SampleMemory() {
  metrics_.memory_samples.push_back(MemorySample{
      .time = session_.next_sample,
      .state_tuples = built_.plan->TotalStateSize(),
      .queue_events = built_.plan->TotalQueueSize(),
  });
}

void Engine::Push(StreamId stream, const Tuple& tuple) {
  Push(stream, Tuple(tuple));
}

void Engine::RejectPush(StreamId stream, uint64_t count,
                        std::string reason) {
  session_.rejected_tuples += count;
  if (stream >= 0 && stream < static_cast<StreamId>(kMaxStreams)) {
    session_.rejected_by_stream[stream] += count;
  }
  last_error_ = std::move(reason);
}

void Engine::Push(StreamId stream, Tuple&& tuple) {
  SLICE_CHECK(!session_.finished);
  STATESLICE_FAULT_POINT("engine.push");
  if (poisoned_) {
    RejectPush(stream, 1, "push rejected: engine poisoned by failed Restore");
    return;
  }
  if (stream < 0) {
    RejectPush(stream, 1,
               "push rejected: negative stream id " + std::to_string(stream));
    return;
  }
  if (std::isnan(tuple.value)) {
    RejectPush(stream, 1,
               "push rejected: NaN value on stream " + std::to_string(stream));
    return;
  }
  // The paper's Section 2 assumption: globally ordered arrivals. Sentinel
  // times are reserved (kMinTime parks restored union buffers, kMaxTime is
  // the end-of-stream punctuation).
  if (tuple.timestamp <= kMinTime || tuple.timestamp >= kMaxTime ||
      tuple.timestamp < session_.watermark) {
    RejectPush(stream, 1,
               "push rejected: out-of-order or out-of-range timestamp " +
                   std::to_string(tuple.timestamp) + " on stream " +
                   std::to_string(stream) + " (watermark " +
                   std::to_string(session_.watermark) + ")");
    return;
  }
  tuple.side = stream;
  if (active_queries() == 0) {
    // Well-formed arrival with nobody registered: a drop, not a reject.
    ++session_.dropped_tuples;
    session_.watermark = tuple.timestamp;
    return;
  }
  if (stream >= max_streams_) {
    // The arrival is real (watermark advances) but no active query reads
    // this stream id, so its payload is unreadable.
    RejectPush(stream, 1,
               "push rejected: stream " + std::to_string(stream) +
                   " is not read by any active query");
    session_.watermark = tuple.timestamp;
    return;
  }
  EnsureBuilt();
  if (options_.mode == ExecutionMode::kDeterministic) {
    // Deterministic mode: no worker threads exist, so the caller thread is
    // trivially exclusive (memory sampling touches guarded accumulators).
    surgery_cap_.Assert();
    while (tuple.timestamp >= session_.next_sample) {
      SampleMemory();
      session_.next_sample += options_.sample_interval;
    }
  }
  session_.watermark = tuple.timestamp;
  ++session_.input_tuples;
  if (shard_scheduler_ != nullptr) {
    shard_scheduler_->PushEntry(Event(std::move(tuple)));
  } else {
    built_.entry->Push(std::move(tuple));
    if (options_.auto_drain && det_scheduler_ != nullptr) {
      det_scheduler_->RunUntilQuiescent();
    }
  }
}

void Engine::PushBatch(StreamId stream, std::span<const Tuple> tuples) {
  SLICE_CHECK(!session_.finished);
  STATESLICE_FAULT_POINT("engine.push_batch");
  if (tuples.empty()) return;
  if (poisoned_) {
    RejectPush(stream, tuples.size(),
               "batch rejected: engine poisoned by failed Restore");
    return;
  }
  if (stream < 0) {
    RejectPush(stream, tuples.size(),
               "batch rejected: negative stream id " +
                   std::to_string(stream));
    return;
  }
  // Validate the whole batch up front (well-formed values, ordered within
  // the batch, first at or beyond the session watermark) so a rejection
  // never leaves a half-ingested batch behind: the batch bounces as a
  // unit, naming the first offending index.
  TimePoint prev = session_.watermark;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    if (std::isnan(t.value)) {
      RejectPush(stream, tuples.size(),
                 "batch rejected: NaN value at index " + std::to_string(i) +
                     " on stream " + std::to_string(stream));
      return;
    }
    if (t.timestamp <= kMinTime || t.timestamp >= kMaxTime ||
        t.timestamp < prev) {
      RejectPush(stream, tuples.size(),
                 "batch rejected: out-of-order or out-of-range timestamp " +
                     std::to_string(t.timestamp) + " at index " +
                     std::to_string(i) + " on stream " +
                     std::to_string(stream));
      return;
    }
    prev = t.timestamp;
  }
  const TimePoint last = tuples.back().timestamp;
  if (active_queries() == 0) {
    session_.dropped_tuples += tuples.size();
    session_.watermark = last;
    return;
  }
  if (stream >= max_streams_) {
    RejectPush(stream, tuples.size(),
               "batch rejected: stream " + std::to_string(stream) +
                   " is not read by any active query");
    session_.watermark = last;
    return;
  }
  EnsureBuilt();
  if (options_.mode == ExecutionMode::kDeterministic) {
    // Same exclusivity argument as Push. Sampling is batch-granular: all
    // samples due within the batch observe the pre-batch state.
    surgery_cap_.Assert();
    while (last >= session_.next_sample) {
      SampleMemory();
      session_.next_sample += options_.sample_interval;
    }
  }
  session_.watermark = last;
  session_.input_tuples += tuples.size();
  if (shard_scheduler_ != nullptr) {
    // Stage the batch in the reused run buffer; the router partitions the
    // run.
    batch_run_.clear();
    batch_run_.reserve(tuples.size());
    for (const Tuple& t : tuples) {
      Tuple staged = t;
      staged.side = stream;
      batch_run_.push_back(Event(std::move(staged)));
    }
    shard_scheduler_->PushEntryRun(&batch_run_);
  } else {
    // Deterministic mode owns the entry queue outright: write each event
    // straight into the ring (no staging round trip), then drain once for
    // the whole batch — the amortization PushBatch exists for.
    for (const Tuple& t : tuples) {
      Tuple staged = t;
      staged.side = stream;
      built_.entry->Push(Event(std::move(staged)));
    }
    if (options_.auto_drain && det_scheduler_ != nullptr) {
      det_scheduler_->RunUntilQuiescent();
    }
  }
}

void Engine::PushBatch(StreamId stream, std::vector<Tuple>&& tuples) {
  // Tuple is trivially copyable, so consuming the vector buys nothing
  // today; the overload fixes the API shape for non-trivial payloads.
  PushBatch(stream, std::span<const Tuple>(tuples));
  tuples.clear();
}

uint64_t Engine::Poll(uint64_t max_events) {
  if (shard_scheduler_ != nullptr) {
    // Report the workers' progress since the last Poll. The engine is
    // single-caller, so plain counters suffice; PauseSharded folds a
    // finishing segment's remainder into session_.poll_pending.
    const uint64_t current = shard_scheduler_->total_processed();
    const uint64_t delta =
        session_.poll_pending + (current - poll_segment_reported_);
    poll_segment_reported_ = current;
    session_.poll_pending = 0;
    return delta;
  }
  // A paused or finished sharded engine still owes the remainder folded
  // in at the last pause; deterministic engines keep poll_pending at 0.
  const uint64_t carried = session_.poll_pending;
  session_.poll_pending = 0;
  if (!running() || det_scheduler_ == nullptr) return carried;
  return carried + det_scheduler_->RunSome(max_events);
}

void Engine::Drain() {
  if (!running()) return;
  if (shard_scheduler_ != nullptr) {
    PauseSharded();  // shard barrier: all routed input reaches the sinks
    ResumeAfterSurgery();
  } else if (det_scheduler_ != nullptr) {
    det_scheduler_->RunUntilQuiescent();
  }
}

void Engine::Finish() {
  if (session_.finished) return;
  if (running()) {
    // Establishes the surgery capability TearDownPlan requires (a no-op
    // when already deterministic and quiescent: TearDownPlan re-drains).
    QuiesceForSurgery();
    TearDownPlan();
  }
  session_.finished = true;
}

// ----------------------------------------------------------------- results

SubscriptionId Engine::Subscribe(QueryHandle handle,
                                 ResultCallback callback) {
  QueryRecord* rec = FindActive(handle.token);
  if (rec == nullptr) {
    last_error_ = "unknown or inactive query handle";
    return {};
  }
  if (callback == nullptr) {
    last_error_ = "null callback";
    return {};
  }
  const uint64_t token = session_.next_token++;
  // The sink reads the list on the worker threads: edit it quiesced.
  QuiesceForSurgery();
  rec->subscribers->push_back(Subscriber{token, std::move(callback)});
  ResumeAfterSurgery();
  return {token};
}

bool Engine::Unsubscribe(SubscriptionId id) {
  for (QueryRecord& rec : active_) {
    std::vector<Subscriber>& subs = *rec.subscribers;
    const auto it =
        std::find_if(subs.begin(), subs.end(),
                     [&](const Subscriber& s) { return s.token == id.token; });
    if (it == subs.end()) continue;
    QuiesceForSurgery();
    subs.erase(it);
    ResumeAfterSurgery();
    return true;
  }
  last_error_ = "unknown subscription";
  return false;
}

uint64_t Engine::ResultCount(QueryHandle handle) {
  const QueryRecord* rec = FindActive(handle.token);
  if (rec == nullptr) {
    const RetiredQuery* retired = FindRetired(handle.token);
    return retired != nullptr ? retired->delivered : 0;
  }
  uint64_t total = rec->delivered;
  if (running()) {
    // Pause workers (if any) for a quiescent, synchronized read; a
    // deterministic engine stays lazy (Poll/auto_drain drive progress).
    const bool had_workers = shard_scheduler_ != nullptr;
    if (had_workers) PauseSharded();
    total += result_plan().sinks[rec->query.id]->result_count();
    if (had_workers) ResumeAfterSurgery();
  }
  return total;
}

std::map<std::string, int> Engine::CollectedResults(QueryHandle handle) {
  const QueryRecord* rec = FindActive(handle.token);
  if (rec == nullptr) {
    const RetiredQuery* retired = FindRetired(handle.token);
    return retired != nullptr ? retired->collected
                              : std::map<std::string, int>{};
  }
  std::map<std::string, int> results = rec->collected;
  if (running()) {
    const bool had_workers = shard_scheduler_ != nullptr;
    if (had_workers) PauseSharded();
    MergeMultiset(result_plan().sinks[rec->query.id]->ResultMultiset(),
                  &results);
    if (had_workers) ResumeAfterSurgery();
  }
  return results;
}

TimePoint Engine::ResultsFrom(QueryHandle handle) const {
  if (const QueryRecord* rec = FindActive(handle.token)) {
    return rec->results_from;
  }
  const RetiredQuery* retired = FindRetired(handle.token);
  return retired != nullptr ? retired->results_from : 0;
}

bool Engine::IsActive(QueryHandle handle) const {
  return FindActive(handle.token) != nullptr;
}

// ------------------------------------------------------------- maintenance

int Engine::CompactChain() {
  if (!running() || built_.slices.size() < 2 || !CanMigrateRemove()) {
    return 0;
  }
  QuiesceForSurgery();
  ChainMigrator migrator(&built_);
  int merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t s = 0; s + 1 < built_.slices.size(); ++s) {
      const BuiltSlice& left = built_.slices[s];
      const BuiltSlice& right = built_.slices[s + 1];
      // MergeSlices needs router-free operands, and the shared boundary
      // must carry no registered query anymore.
      if (left.result_producer != static_cast<Operator*>(left.join) ||
          right.result_producer != static_cast<Operator*>(right.join)) {
        continue;
      }
      if (!built_.chain.spec.queries_at_boundary[left.end_boundary]
               .empty()) {
        continue;
      }
      migrator.MergeSlices(static_cast<int>(s));
      ++merges;
      progress = true;
      break;
    }
  }
  if (merges > 0) {
    ValidateBuiltChain(built_);
    ++session_.migrations;
  }
  ResumeAfterSurgery();
  return merges;
}

// ----------------------------------------------------------- introspection

RunStats Engine::Snapshot() {
  RunStats stats;
  stats.mode = options_.mode;
  stats.worker_threads = options_.mode == ExecutionMode::kSharded
                             ? std::max(last_shard_count_, 1)
                             : 1;
  const bool had_workers = shard_scheduler_ != nullptr;
  if (had_workers) PauseSharded();  // quiescent snapshot
  // Either the pause above joined the workers, or none existed
  // (deterministic mode / idle): the accumulators are this thread's.
  surgery_cap_.Assert();

  stats.input_tuples = session_.input_tuples;
  stats.rejected_tuples = session_.rejected_tuples;
  stats.rejected_by_stream = session_.rejected_by_stream;
  stats.events_processed = metrics_.events;
  if (det_scheduler_ != nullptr) {
    stats.events_processed += det_scheduler_->total_processed();
  }
  stats.results_delivered = retired_delivered_;
  for (const QueryRecord& r : active_) {
    stats.results_delivered += r.delivered;
    if (running()) {
      stats.results_delivered +=
          result_plan().sinks[r.query.id]->result_count();
    }
  }
  stats.virtual_end_time = session_.watermark;
  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - created_)
                           .count();
  stats.cost = TotalCost();
  stats.memory_samples = metrics_.memory_samples;
  if (running()) {
    MemorySample sample{.time = session_.watermark};
    if (sharded_ != nullptr) {
      for (const BuiltPlan& shard : sharded_->shards) {
        sample.state_tuples += shard.plan->TotalStateSize();
        sample.queue_events += shard.plan->TotalQueueSize();
      }
      sample.state_tuples += sharded_->merge.plan->TotalStateSize();
      sample.queue_events += sharded_->merge.plan->TotalQueueSize();
    } else {
      sample.state_tuples = built_.plan->TotalStateSize();
      sample.queue_events = built_.plan->TotalQueueSize();
    }
    stats.memory_samples.push_back(sample);
  }
  stats.parallel_edge_events = metrics_.edge_events;
  stats.parallel_edge_high_water_mark = metrics_.edge_hwm;

  if (had_workers) ResumeAfterSurgery();
  return stats;
}

std::vector<Engine::SliceInfo> Engine::ChainSlices() {
  // Sharded engines keep their chains in the replicas (built_ is empty),
  // and a deterministic engine has no workers to pause.
  if (!running() || built_.slices.empty()) return {};
  std::vector<SliceInfo> info;
  for (const BuiltSlice& slice : built_.slices) {
    info.push_back(SliceInfo{slice.join->range(), slice.join->StateSize()});
  }
  return info;
}

std::string Engine::PlanDot() {
  EnsureBuilt();
  if (!running()) return "";
  // Structure (operators/edges) is only mutated from this thread at
  // surgery points, so rendering it does not race the workers. Sharded
  // mode renders shard replica 0 — the actual shared sliced chain (the
  // other replicas are wiring-identical; the merge plan is just unions).
  if (sharded_ != nullptr) return sharded_->shards[0].plan->ToDot();
  return built_.plan->ToDot();
}

}  // namespace stateslice
