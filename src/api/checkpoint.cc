// Engine checkpoint/restore: versioned binary snapshots of a streaming
// session (fault tolerance for the paper's continuously running multi-query
// setting).
//
// Format v3 (little-endian fixed-width fields; see src/common/serde.h):
//
//   "SSCP" magic (4 raw bytes), u32 format version,
//   fingerprint   — every Engine::Options field that shapes plan structure
//                   (strategy, objective, mode, condition, capacities, cost
//                   params); Restore verifies it field by field,
//   scalars       — token counter, watermark, volume counters, churn
//                   history (rebuild cutoffs),
//   accumulators  — folded run metrics with the live scheduler/plan
//                   counters folded in (the restored plan restarts its own
//                   counters at zero),
//   active        — the live queries, in registration (= token) order:
//                   token, name, CQL text (ToCql round-trip),
//                   results_from, delivered/collected totals with the live
//                   sink counts folded in, and the fresh-start gate cutoff
//                   if a migration installed one,
//   retired       — one fixed 28-byte entry per removed query, in token
//                   order: u64 token, i64 results_from, u64 delivered, u32
//                   collected count (0 unless collect_results) followed by
//                   that many (key, count) pairs,
//   plan          — present iff the engine was running: the live chain
//                   spec/partition (single-level non-sharded chains carry
//                   migration-created boundaries that a recompute would not
//                   reproduce) and one state section per plan (each shard
//                   replica then the merge plan in sharded mode): every
//                   join's window contents oldest-first plus each union's
//                   buffered events in release order,
//   u32 CRC-32 over everything above — torn-write detection.
//
// Tokens are strictly increasing within each record section, no retired
// token is also active, and next_token exceeds every stored token; Restore
// checks all three, so a retired entry decodes in O(1) and the whole
// restore stays linear in the snapshot size.
//
// Restore rebuilds the plan through the normal builders (key indexes are
// reconstructed by Insert, never serialized), injects the serialized
// states positionally, and re-wires fresh-start gates with the migration
// recipe. Dense query ids are assigned in active-record order, which
// provably matches the checkpointed plan: BuildPlan numbers active records
// in order, ChainMigrator::AddQuery appends the next id to the newest
// record, and RemoveQuery frees no id — so active records always carry
// strictly ascending plan ids. Unions and gates are nevertheless keyed by
// the stable record token, not the dense id.
//
// Failure discipline: Checkpoint failures never modify the engine. A
// Restore that fails after the fresh-engine precondition poisons the
// engine (poisoned()): whatever was half-rebuilt is destroyed, ingestion
// and churn are rejected, introspection stays safe. Every decode is
// bounds-checked (StateReader) and every count is bounded by the bytes
// remaining, so a corrupt snapshot yields a diagnostic, not UB.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/common/check.h"
#include "src/common/fault_point.h"
#include "src/common/serde.h"
#include "src/core/migration.h"
#include "src/operators/selection.h"
#include "src/operators/sliding_window_join.h"
#include "src/query/parser.h"

namespace stateslice {
namespace {

constexpr uint32_t kCheckpointVersion = 3;
// A retired entry without collected results: token, results_from,
// delivered, collected count.
constexpr size_t kRetiredEntryBytes = 8 + 8 + 8 + 4;
const char kCheckpointMagic[4] = {'S', 'S', 'C', 'P'};

// ---------------------------------------------------------------- encoding

void WriteTuple(StateWriter* w, const Tuple& t) {
  w->I64(t.timestamp);
  w->I64(t.key);
  w->Double(t.value);
  w->U32(t.seq);
  w->I64(t.side);
  w->U8(static_cast<uint8_t>(t.role));
  w->U64(t.lineage);
}

bool ReadTuple(StateReader* r, Tuple* t) {
  int64_t side = 0;
  uint8_t role = 0;
  if (!r->I64(&t->timestamp) || !r->I64(&t->key) || !r->Double(&t->value) ||
      !r->U32(&t->seq) || !r->I64(&side) || !r->U8(&role) ||
      !r->U64(&t->lineage)) {
    return false;
  }
  if (side < INT16_MIN || side > INT16_MAX || role > 2) return false;
  t->side = static_cast<StreamId>(side);
  t->role = static_cast<TupleRole>(role);
  return true;
}

// Bounded element count: every serialized element is at least one byte, so
// a count beyond the bytes remaining is corrupt (and would otherwise drive
// a huge reserve/loop before the per-element reads failed).
bool ReadCount(StateReader* r, uint32_t* n) {
  return r->U32(n) && *n <= r->remaining();
}

void WriteComposite(StateWriter* w, const CompositeTuple& c) {
  WriteTuple(w, c.a);
  WriteTuple(w, c.b);
  w->U32(static_cast<uint32_t>(c.tail.size()));
  for (size_t i = 0; i < c.tail.size(); ++i) WriteTuple(w, c.tail[i]);
  w->U8(static_cast<uint8_t>(c.role));
}

bool ReadComposite(StateReader* r, CompositeTuple* c) {
  uint32_t tail = 0;
  if (!ReadTuple(r, &c->a) || !ReadTuple(r, &c->b) || !ReadCount(r, &tail)) {
    return false;
  }
  if (tail > static_cast<uint32_t>(kMaxStreams)) return false;
  for (uint32_t i = 0; i < tail; ++i) {
    Tuple t;
    if (!ReadTuple(r, &t)) return false;
    c->tail.push_back(t);
  }
  uint8_t role = 0;
  if (!r->U8(&role) || role > 2) return false;
  c->role = static_cast<TupleRole>(role);
  return true;
}

// Entry overloads so the join-state codec below is one template.
void WriteEntry(StateWriter* w, const Tuple& t) { WriteTuple(w, t); }
void WriteEntry(StateWriter* w, const CompositeTuple& c) {
  WriteComposite(w, c);
}
bool ReadEntry(StateReader* r, Tuple* t) { return ReadTuple(r, t); }
bool ReadEntry(StateReader* r, CompositeTuple* c) {
  return ReadComposite(r, c);
}

template <typename EntryT>
void WriteState(StateWriter* w, const BasicJoinState<EntryT>& state) {
  const std::vector<EntryT> entries = state.tuples();  // oldest first
  w->U32(static_cast<uint32_t>(entries.size()));
  for (const EntryT& e : entries) WriteEntry(w, e);
}

// Decodes one join-state section into a freshly built (empty) state.
// Entry times must be non-decreasing (Insert CHECK-crashes otherwise, so
// the guard keeps corrupt snapshots on the graceful path) and at or before
// the snapshot watermark. Insert rebuilds the key index incrementally; a
// count-window eviction during injection means the serialized count
// exceeded the window extent, i.e. the snapshot is corrupt.
template <typename EntryT>
bool ReadState(StateReader* r, TimePoint watermark,
               BasicJoinState<EntryT>* state) {
  uint32_t n = 0;
  if (!ReadCount(r, &n)) return false;
  if (!state->empty()) return false;
  TimePoint prev = kMinTime;
  for (uint32_t i = 0; i < n; ++i) {
    EntryT e;
    if (!ReadEntry(r, &e)) return false;
    const TimePoint t = EntryTime(e);
    if (t < prev || t > watermark) return false;
    prev = t;
    state->Insert(e);
  }
  return state->size() == n;
}

// Union-buffer events are data only: tag 0 = Tuple, 1 = JoinResult. A
// buffered punctuation would mean the union mis-buffered (punctuations
// advance watermarks and are never queued), so both directions treat one
// as an error.
bool WriteEvent(StateWriter* w, const Event& event) {
  if (const Tuple* t = std::get_if<Tuple>(&event)) {
    w->U8(0);
    WriteTuple(w, *t);
    return true;
  }
  if (const JoinResult* jr = std::get_if<JoinResult>(&event)) {
    w->U8(1);
    WriteComposite(w, *jr);
    return true;
  }
  return false;
}

bool ReadEvent(StateReader* r, TimePoint watermark, Event* event) {
  uint8_t tag = 0;
  if (!r->U8(&tag)) return false;
  if (tag == 0) {
    Tuple t;
    if (!ReadTuple(r, &t) || t.timestamp > watermark) return false;
    *event = Event(std::move(t));
    return true;
  }
  if (tag == 1) {
    JoinResult jr;
    if (!ReadComposite(r, &jr) || jr.timestamp() > watermark) return false;
    *event = Event(std::move(jr));
    return true;
  }
  return false;
}

void WriteCost(StateWriter* w, const CostCounters& cost) {
  for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
    w->U64(cost.Get(static_cast<CostCategory>(c)));
  }
  for (int c = 0; c < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++c) {
    w->U64(cost.GetPhysical(static_cast<PhysCategory>(c)));
  }
}

bool ReadCost(StateReader* r, CostCounters* cost) {
  for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
    uint64_t v = 0;
    if (!r->U64(&v)) return false;
    cost->Add(static_cast<CostCategory>(c), v);
  }
  for (int c = 0; c < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++c) {
    uint64_t v = 0;
    if (!r->U64(&v)) return false;
    cost->AddPhysical(static_cast<PhysCategory>(c), v);
  }
  return true;
}

// Collected result multisets: u32 count, then (key, count) pairs.
void WriteCollected(StateWriter* w, const std::map<std::string, int>& m) {
  w->U32(static_cast<uint32_t>(m.size()));
  for (const auto& [key, count] : m) {
    w->Str(key);
    w->U32(static_cast<uint32_t>(count));
  }
}

bool ReadCollected(StateReader* r, std::map<std::string, int>* m) {
  uint32_t n = 0;
  if (!ReadCount(r, &n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    uint32_t count = 0;
    if (!r->Str(&key) || !r->U32(&count)) return false;
    m->emplace_hint(m->end(), std::move(key), static_cast<int>(count));
  }
  return true;
}

// ------------------------------------------------------- plan enumeration

// One stateful join of a plan: exactly one pointer is set.
struct JoinRef {
  SlicedWindowJoin* sliced = nullptr;
  SlidingWindowJoin* sliding = nullptr;
};

// The plan's stateful joins in a deterministic order both ends agree on.
// State-slice plans enumerate chain order (built.slices; operator insertion
// order diverges after a migration split appends the new slice), every
// other strategy — never migrated, rebuilt identically — enumerates
// operator insertion order.
std::vector<JoinRef> PlanJoins(const BuiltPlan& built) {
  std::vector<JoinRef> joins;
  if (!built.slices.empty()) {
    joins.reserve(built.slices.size());
    for (const BuiltSlice& slice : built.slices) {
      joins.push_back(JoinRef{.sliced = slice.join});
    }
    return joins;
  }
  for (const std::unique_ptr<Operator>& op : built.plan->operators()) {
    if (auto* sliced = dynamic_cast<SlicedWindowJoin*>(op.get())) {
      joins.push_back(JoinRef{.sliced = sliced});
    } else if (auto* sliding = dynamic_cast<SlidingWindowJoin*>(op.get())) {
      joins.push_back(JoinRef{.sliding = sliding});
    }
  }
  return joins;
}

// Unions that are not a query's result merge (multi-level pass-through and
// input merges), in operator insertion order.
std::vector<UnionMerge*> NonQueryUnions(const BuiltPlan& built) {
  std::unordered_set<const Operator*> query_unions;
  for (UnionMerge* merge : built.merges) {
    if (merge != nullptr) query_unions.insert(merge);
  }
  std::vector<UnionMerge*> others;
  for (const std::unique_ptr<Operator>& op : built.plan->operators()) {
    auto* merge = dynamic_cast<UnionMerge*>(op.get());
    if (merge != nullptr && query_unions.count(merge) == 0) {
      others.push_back(merge);
    }
  }
  return others;
}

// ------------------------------------------------ per-plan state sections

// Serializes one plan's operator state: joins (typed, with their range or
// windows for the restore-side cross-check) and buffered union events
// (query unions keyed by record token, the rest by operator name).
bool WritePlanState(const BuiltPlan& built,
                    const std::vector<uint64_t>& qid_token, StateWriter* w,
                    std::string* error) {
  const std::vector<JoinRef> joins = PlanJoins(built);
  w->U32(static_cast<uint32_t>(joins.size()));
  for (const JoinRef& j : joins) {
    if (j.sliced != nullptr) {
      const SliceRange& range = j.sliced->range();
      w->U8(0);
      w->Str(j.sliced->name());
      w->U8(static_cast<uint8_t>(range.kind));
      w->I64(range.start);
      w->I64(range.end);
      WriteState(w, j.sliced->state_a());
      WriteState(w, j.sliced->state_b());
      WriteState(w, j.sliced->composite_state());
    } else {
      const WindowSpec& wa = j.sliding->state_a().window();
      const WindowSpec& wb = j.sliding->state_b().window();
      w->U8(1);
      w->Str(j.sliding->name());
      w->U8(static_cast<uint8_t>(wa.kind));
      w->I64(wa.extent);
      w->U8(static_cast<uint8_t>(wb.kind));
      w->I64(wb.extent);
      WriteState(w, j.sliding->state_a());
      WriteState(w, j.sliding->state_b());
    }
  }

  const auto write_pending = [&](const UnionMerge& merge) -> bool {
    const std::vector<Event> pending = merge.PendingSnapshot();
    w->U32(static_cast<uint32_t>(pending.size()));
    for (const Event& event : pending) {
      if (!WriteEvent(w, event)) {
        *error = "union \"" + merge.name() + "\" buffered a punctuation";
        return false;
      }
    }
    return true;
  };

  std::vector<int> query_union_qids;
  for (size_t qid = 0; qid < built.merges.size(); ++qid) {
    if (built.merges[qid] != nullptr && built.merges[qid]->buffered() > 0) {
      query_union_qids.push_back(static_cast<int>(qid));
    }
  }
  w->U32(static_cast<uint32_t>(query_union_qids.size()));
  for (const int qid : query_union_qids) {
    w->U64(qid_token[static_cast<size_t>(qid)]);
    if (!write_pending(*built.merges[static_cast<size_t>(qid)])) {
      return false;
    }
  }

  std::vector<UnionMerge*> named;
  for (UnionMerge* merge : NonQueryUnions(built)) {
    if (merge->buffered() > 0) named.push_back(merge);
  }
  w->U32(static_cast<uint32_t>(named.size()));
  for (UnionMerge* merge : named) {
    w->Str(merge->name());
    if (!write_pending(*merge)) return false;
  }
  return true;
}

// Decodes one plan's state section into a freshly built plan, cross-
// checking every join's type and range/window against what the builder
// produced. `token_qid` maps record tokens to the restored dense ids.
bool ReadPlanState(StateReader* r, TimePoint watermark,
                   const std::unordered_map<uint64_t, int>& token_qid,
                   BuiltPlan* built, std::string* error) {
  const std::vector<JoinRef> joins = PlanJoins(*built);
  uint32_t join_count = 0;
  if (!ReadCount(r, &join_count)) {
    *error = "truncated join section";
    return false;
  }
  if (join_count != joins.size()) {
    *error = "join count mismatch: snapshot has " +
             std::to_string(join_count) + ", rebuilt plan has " +
             std::to_string(joins.size());
    return false;
  }
  for (const JoinRef& j : joins) {
    uint8_t type = 0;
    std::string name;
    if (!r->U8(&type) || !r->Str(&name)) {
      *error = "truncated join header";
      return false;
    }
    if (type == 0 && j.sliced != nullptr) {
      uint8_t kind = 0;
      int64_t start = 0, end = 0;
      if (!r->U8(&kind) || !r->I64(&start) || !r->I64(&end) || kind > 1) {
        *error = "truncated slice range for join \"" + name + "\"";
        return false;
      }
      const SliceRange expected{static_cast<WindowKind>(kind), start, end};
      if (!(j.sliced->range() == expected)) {
        *error = "slice range mismatch for join \"" + name + "\"";
        return false;
      }
      if (!ReadState(r, watermark, j.sliced->mutable_state_a()) ||
          !ReadState(r, watermark, j.sliced->mutable_state_b()) ||
          !ReadState(r, watermark, j.sliced->mutable_composite_state())) {
        *error = "corrupt state for join \"" + name + "\"";
        return false;
      }
    } else if (type == 1 && j.sliding != nullptr) {
      uint8_t ka = 0, kb = 0;
      int64_t ea = 0, eb = 0;
      if (!r->U8(&ka) || !r->I64(&ea) || !r->U8(&kb) || !r->I64(&eb) ||
          ka > 1 || kb > 1) {
        *error = "truncated windows for join \"" + name + "\"";
        return false;
      }
      const WindowSpec wa{static_cast<WindowKind>(ka), ea};
      const WindowSpec wb{static_cast<WindowKind>(kb), eb};
      if (!(j.sliding->state_a().window() == wa) ||
          !(j.sliding->state_b().window() == wb)) {
        *error = "window mismatch for join \"" + name + "\"";
        return false;
      }
      if (!ReadState(r, watermark, j.sliding->mutable_state_a()) ||
          !ReadState(r, watermark, j.sliding->mutable_state_b())) {
        *error = "corrupt state for join \"" + name + "\"";
        return false;
      }
    } else {
      *error = "join type mismatch for join \"" + name + "\"";
      return false;
    }
  }

  const auto read_pending = [&](UnionMerge* merge) -> bool {
    uint32_t n = 0;
    if (!ReadCount(r, &n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      Event event;
      if (!ReadEvent(r, watermark, &event)) return false;
      merge->RestorePending(std::move(event));
    }
    return true;
  };

  uint32_t query_unions = 0;
  if (!ReadCount(r, &query_unions)) {
    *error = "truncated union section";
    return false;
  }
  for (uint32_t i = 0; i < query_unions; ++i) {
    uint64_t token = 0;
    if (!r->U64(&token)) {
      *error = "truncated union section";
      return false;
    }
    const auto it = token_qid.find(token);
    if (it == token_qid.end() ||
        static_cast<size_t>(it->second) >= built->merges.size() ||
        built->merges[static_cast<size_t>(it->second)] == nullptr) {
      *error = "union buffer references unknown query token " +
               std::to_string(token);
      return false;
    }
    if (!read_pending(built->merges[static_cast<size_t>(it->second)])) {
      *error = "corrupt union buffer for query token " +
               std::to_string(token);
      return false;
    }
  }

  uint32_t named_unions = 0;
  if (!ReadCount(r, &named_unions)) {
    *error = "truncated union section";
    return false;
  }
  std::unordered_map<std::string, UnionMerge*> by_name;
  for (UnionMerge* merge : NonQueryUnions(*built)) {
    by_name.emplace(merge->name(), merge);
  }
  for (uint32_t i = 0; i < named_unions; ++i) {
    std::string name;
    if (!r->Str(&name)) {
      *error = "truncated union section";
      return false;
    }
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      *error = "union buffer references unknown union \"" + name + "\"";
      return false;
    }
    if (!read_pending(it->second)) {
      *error = "corrupt union buffer for union \"" + name + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace

// --------------------------------------------------------------- Checkpoint

bool Engine::Checkpoint(std::string* out) {
  SLICE_CHECK(out != nullptr);
  if (poisoned_) {
    last_error_ = "checkpoint rejected: engine poisoned by failed Restore";
    return false;
  }
  STATESLICE_FAULT_POINT("checkpoint.begin");

  // Pre-flight: every active query must round-trip through the CQL text
  // (that is how Restore re-validates and re-registers it). Failing here —
  // before pausing or draining anything — leaves the engine untouched.
  std::vector<std::string> cqls(active_.size());
  for (size_t i = 0; i < active_.size(); ++i) {
    std::optional<std::string> cql = active_[i].query.ToCql();
    if (!cql.has_value()) {
      last_error_ = "checkpoint rejected: query \"" +
                    active_[i].query.name +
                    "\" is outside the CQL dialect (ToCql failed)";
      return false;
    }
    cqls[i] = *std::move(cql);
  }

  // Quiesce: join workers, then drain every queue to empty. The drained
  // work is inevitable — an uninterrupted run performs it anyway — so
  // folding it into the accumulators keeps restored metrics consistent.
  const bool had_workers = shard_scheduler_ != nullptr;
  if (had_workers) PauseSharded();
  // Either the pause above joined the workers, or none existed
  // (deterministic mode / idle): the accumulators are this thread's.
  surgery_cap_.Assert();
  if (running()) {
    if (sharded_ != nullptr) {
      // Drain each replica, relay its exit-tap tail into the merge plan
      // (the relay loop TearDownPlan uses, minus the FinishAll flush),
      // then drain the merge.
      const int nq = sharded_->num_queries();
      EventRun relay;
      for (int s = 0; s < sharded_->num_shards(); ++s) {
        RoundRobinScheduler drain(sharded_->shards[s].plan.get());
        drain.RunUntilQuiescent();
        events_accum_ += drain.total_processed();
        for (int q = 0; q < nq; ++q) {
          while (sharded_->exits[s][q]->DrainRun(&relay, 256) > 0) {
            sharded_->merge_entries[s][q]->PushRun(&relay);
          }
        }
        SLICE_CHECK_EQ(sharded_->shards[s].plan->TotalQueueSize(), 0u);
      }
      RoundRobinScheduler mdrain(sharded_->merge.plan.get());
      mdrain.RunUntilQuiescent();
      events_accum_ += mdrain.total_processed();
      SLICE_CHECK_EQ(sharded_->merge.plan->TotalQueueSize(), 0u);
    } else {
      det_scheduler_->RunUntilQuiescent();
    }
  }

  const auto fail = [&](std::string msg) {
    last_error_ = std::move(msg);
    if (had_workers) ResumeAfterSurgery();
    return false;
  };

  // The history sections have fixed-size entries; reserving for them (and
  // a little plan state) spares most of the buffer's regrowth copies.
  StateWriter w;
  w.Reserve(4096 + 256 * active_.size() +
            kRetiredEntryBytes * retired_.size() +
            8 * rebuild_cutoffs_.size() + 24 * memory_samples_.size());
  for (const char c : kCheckpointMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(kCheckpointVersion);

  // Fingerprint: the options that shape plan structure. Restore verifies
  // field by field so a snapshot never lands in a mismatched engine.
  w.U8(static_cast<uint8_t>(options_.strategy));
  w.U8(static_cast<uint8_t>(options_.objective));
  w.U8(options_.use_lineage ? 1 : 0);
  w.U8(options_.collect_results ? 1 : 0);
  w.U8(static_cast<uint8_t>(options_.mode));
  w.U32(options_.mode == ExecutionMode::kSharded
            ? static_cast<uint32_t>(ShardCount())
            : 0);
  w.U64(options_.parallel_edge_capacity);
  w.U8(static_cast<uint8_t>(options_.condition.kind));
  w.I64(options_.condition.mod);
  w.I64(options_.condition.band);
  w.I64(options_.sample_interval);
  w.U8(options_.auto_drain ? 1 : 0);
  w.U32(static_cast<uint32_t>(options_.run_length));
  w.Double(options_.cost_params.lambda_a);
  w.Double(options_.cost_params.lambda_b);
  w.Double(options_.cost_params.s1);
  w.Double(options_.cost_params.c_sys);
  w.Double(options_.cost_params.tuple_kb);

  // Scalars.
  w.U64(next_token_);
  w.I64(watermark_);
  w.I64(next_sample_);
  w.U8(finished_ ? 1 : 0);
  w.U64(input_tuples_);
  w.U64(dropped_tuples_);
  w.U64(rejected_tuples_);
  for (size_t s = 0; s < kMaxStreams; ++s) w.U64(rejected_by_stream_[s]);
  w.U64(migrations_);
  w.U64(rebuilds_);
  w.U32(static_cast<uint32_t>(rebuild_cutoffs_.size()));
  for (const TimePoint cutoff : rebuild_cutoffs_) w.I64(cutoff);
  w.U64(poll_pending_);

  // Accumulators, live counters folded in (the restored plan and scheduler
  // restart theirs at zero, so the fold keeps Snapshot() totals stable
  // across a checkpoint/restore boundary).
  uint64_t events = events_accum_;
  if (det_scheduler_ != nullptr) events += det_scheduler_->total_processed();
  w.U64(events);
  w.U64(parallel_edge_events_accum_);
  w.U64(static_cast<uint64_t>(parallel_edge_hwm_));
  w.U64(shard_steals_accum_);
  w.U64(shard_spilled_accum_);
  WriteCost(&w, TotalCost());
  w.U32(static_cast<uint32_t>(memory_samples_.size()));
  for (const MemorySample& sample : memory_samples_) {
    w.I64(sample.time);
    w.U64(static_cast<uint64_t>(sample.state_tuples));
    w.U64(static_cast<uint64_t>(sample.queue_events));
  }

  // Active records, in registration order. Delivered/collected totals
  // fold the live sink counts in (restored sinks restart at zero; events
  // still buffered in unions were not yet counted by any sink, so nothing
  // is double-counted).
  w.U32(static_cast<uint32_t>(active_.size()));
  for (size_t i = 0; i < active_.size(); ++i) {
    const QueryRecord& rec = active_[i];
    w.U64(rec.token);
    w.Str(rec.query.name);
    w.Str(cqls[i]);
    w.I64(rec.results_from);
    uint64_t delivered = rec.delivered;
    std::map<std::string, int> collected = rec.collected;
    if (running()) {
      BuiltPlan& rp = result_plan();
      const int qid = rec.query.id;
      if (rp.sinks[qid] != nullptr) {
        delivered += rp.sinks[qid]->result_count();
      }
      if (qid < static_cast<int>(rp.collectors.size()) &&
          rp.collectors[qid] != nullptr) {
        for (const auto& [key, count] :
             rp.collectors[qid]->ResultMultiset()) {
          collected[key] += count;
        }
      }
    }
    w.U64(delivered);
    WriteCollected(&w, collected);
    // Fresh-start gate cutoff (migration-installed; single-level
    // non-sharded chains only). -1 = no gate.
    int64_t cutoff = -1;
    if (running() && sharded_ == nullptr && !built_.slices.empty()) {
      const int qid = rec.query.id;
      if (qid < static_cast<int>(built_.result_gates.size()) &&
          built_.result_gates[qid] != nullptr) {
        auto* gate =
            dynamic_cast<ResultTimeGate*>(built_.result_gates[qid]);
        if (gate == nullptr) {
          return fail("checkpoint rejected: unexpected result gate type");
        }
        cutoff = gate->cutoff();
      }
    }
    w.I64(cutoff);
  }

  // Retired entries, in token order: final totals only.
  w.U32(static_cast<uint32_t>(retired_.size()));
  for (const RetiredQuery& retired : retired_) {
    w.U64(retired.token);
    w.I64(retired.results_from);
    w.U64(retired.delivered);
    WriteCollected(&w, retired.collected);
  }
  STATESLICE_FAULT_POINT("checkpoint.mid_write");

  // Plan section.
  w.U8(running() ? 1 : 0);
  if (running()) {
    const BuiltPlan& proto =
        sharded_ != nullptr ? sharded_->shards[0] : built_;
    w.U8(sharded_ != nullptr ? 1 : 0);
    w.U8(static_cast<uint8_t>(proto.num_levels));
    // Single-level non-sharded chains serialize their live spec/partition:
    // migration leaves boundaries (splits, compaction survivors) that a
    // recompute from the query set would not reproduce. Everything else —
    // multi-level trees, sharded sets, non-state-slice strategies — is
    // never migrated and rebuilds deterministically from the queries.
    const bool has_chain = sharded_ == nullptr && !built_.slices.empty() &&
                           built_.num_levels == 1;
    w.U8(has_chain ? 1 : 0);
    if (has_chain) {
      const ChainSpec& spec = built_.chain.spec;
      w.U8(static_cast<uint8_t>(spec.kind));
      w.U32(static_cast<uint32_t>(spec.boundaries.size()));
      for (const int64_t b : spec.boundaries) w.I64(b);
      const std::vector<int>& ends =
          built_.chain.partition.slice_end_boundaries;
      w.U32(static_cast<uint32_t>(ends.size()));
      for (const int e : ends) w.U32(static_cast<uint32_t>(e));
    }
    // Token map for union sections (dense id -> record token).
    std::vector<uint64_t> qid_token;
    for (const QueryRecord& rec : active_) {
      if (static_cast<size_t>(rec.query.id) >= qid_token.size()) {
        qid_token.resize(static_cast<size_t>(rec.query.id) + 1, 0);
      }
      qid_token[static_cast<size_t>(rec.query.id)] = rec.token;
    }
    std::string error;
    if (sharded_ != nullptr) {
      w.U32(static_cast<uint32_t>(sharded_->num_shards() + 1));
      for (const BuiltPlan& shard : sharded_->shards) {
        if (!WritePlanState(shard, qid_token, &w, &error)) {
          return fail("checkpoint rejected: " + error);
        }
      }
      if (!WritePlanState(sharded_->merge, qid_token, &w, &error)) {
        return fail("checkpoint rejected: " + error);
      }
    } else {
      w.U32(1);
      if (!WritePlanState(built_, qid_token, &w, &error)) {
        return fail("checkpoint rejected: " + error);
      }
    }
  }

  STATESLICE_FAULT_POINT("checkpoint.commit");
  w.U32(Crc32(w.data()));
  *out = w.Take();
  if (had_workers) ResumeAfterSurgery();
  return true;
}

// ------------------------------------------------------------------ Restore

bool Engine::Restore(std::string_view snapshot) {
  // Precondition: a freshly constructed engine. Violations fail WITHOUT
  // poisoning — nothing was touched, the engine keeps its valid state.
  if (running() || finished_ || poisoned_ || !active_.empty() ||
      !retired_.empty() || !subscriptions_.empty() || input_tuples_ != 0 ||
      dropped_tuples_ != 0 || rejected_tuples_ != 0) {
    last_error_ =
        "restore rejected: engine is not freshly constructed (restore "
        "targets a new Engine with matching Options)";
    return false;
  }

  // Any failure past this point may leave half-restored records or a
  // half-built plan: destroy the plan outright (no TearDownPlan — a
  // teardown would harvest sinks into the poisoned totals), wipe every
  // counter back to the fresh-engine baseline so no partial restore leaks
  // through Snapshot(), and poison the engine.
  const auto fail = [&](std::string msg) {
    built_ = BuiltPlan{};
    det_scheduler_.reset();
    sharded_.reset();
    active_.clear();
    retired_.clear();
    retired_delivered_ = 0;
    subscriptions_.clear();
    next_token_ = 1;
    watermark_ = 0;
    max_streams_ = 0;
    poll_pending_ = 0;
    next_sample_ = 0;
    finished_ = false;
    input_tuples_ = 0;
    dropped_tuples_ = 0;
    rejected_tuples_ = 0;
    rejected_by_stream_.assign(kMaxStreams, 0);
    migrations_ = 0;
    rebuilds_ = 0;
    rebuild_cutoffs_.clear();
    events_accum_ = 0;
    parallel_edge_events_accum_ = 0;
    parallel_edge_hwm_ = 0;
    shard_steals_accum_ = 0;
    shard_spilled_accum_ = 0;
    cost_accum_ = CostCounters{};
    memory_samples_.clear();
    poisoned_ = true;
    last_error_ = "restore failed: " + std::move(msg);
    return false;
  };

  // Torn-write detection first: the trailing CRC covers everything.
  if (snapshot.size() < sizeof(kCheckpointMagic) + 2 * sizeof(uint32_t)) {
    return fail("snapshot shorter than header plus checksum (" +
                std::to_string(snapshot.size()) + " bytes)");
  }
  const std::string_view body = snapshot.substr(0, snapshot.size() - 4);
  StateReader crc_reader(snapshot.substr(snapshot.size() - 4));
  uint32_t stored_crc = 0;
  crc_reader.U32(&stored_crc);
  if (stored_crc != Crc32(body)) {
    return fail("checksum mismatch (torn write or corrupt snapshot)");
  }

  StateReader r(body);
  for (const char c : kCheckpointMagic) {
    uint8_t m = 0;
    if (!r.U8(&m) || m != static_cast<uint8_t>(c)) {
      return fail("bad magic (not a stateslice checkpoint)");
    }
  }
  uint32_t version = 0;
  if (!r.U32(&version)) return fail("truncated header");
  if (version != kCheckpointVersion) {
    return fail("unsupported snapshot version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  }
  STATESLICE_FAULT_POINT("restore.apply");

  // Fingerprint, verified field by field with a named diagnostic.
  {
    uint8_t u8v = 0;
    uint32_t u32v = 0;
    uint64_t u64v = 0;
    int64_t i64v = 0;
    double dv = 0.0;
    const auto mismatch = [&](const char* field) {
      return fail(std::string("options mismatch: ") + field);
    };
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != static_cast<uint8_t>(options_.strategy)) {
      return mismatch("strategy");
    }
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != static_cast<uint8_t>(options_.objective)) {
      return mismatch("objective");
    }
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != (options_.use_lineage ? 1 : 0)) return mismatch("use_lineage");
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != (options_.collect_results ? 1 : 0)) {
      return mismatch("collect_results");
    }
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != static_cast<uint8_t>(options_.mode)) return mismatch("mode");
    if (!r.U32(&u32v)) return fail("truncated fingerprint");
    const uint32_t resolved_shards =
        options_.mode == ExecutionMode::kSharded
            ? static_cast<uint32_t>(ShardCount())
            : 0;
    if (u32v != resolved_shards) return mismatch("shard_count (resolved)");
    if (!r.U64(&u64v)) return fail("truncated fingerprint");
    if (u64v != options_.parallel_edge_capacity) {
      return mismatch("parallel_edge_capacity");
    }
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != static_cast<uint8_t>(options_.condition.kind)) {
      return mismatch("condition.kind");
    }
    if (!r.I64(&i64v)) return fail("truncated fingerprint");
    if (i64v != options_.condition.mod) return mismatch("condition.mod");
    if (!r.I64(&i64v)) return fail("truncated fingerprint");
    if (i64v != options_.condition.band) return mismatch("condition.band");
    if (!r.I64(&i64v)) return fail("truncated fingerprint");
    if (i64v != options_.sample_interval) return mismatch("sample_interval");
    if (!r.U8(&u8v)) return fail("truncated fingerprint");
    if (u8v != (options_.auto_drain ? 1 : 0)) return mismatch("auto_drain");
    if (!r.U32(&u32v)) return fail("truncated fingerprint");
    if (u32v != static_cast<uint32_t>(options_.run_length)) {
      return mismatch("run_length");
    }
    const double* params[] = {
        &options_.cost_params.lambda_a, &options_.cost_params.lambda_b,
        &options_.cost_params.s1, &options_.cost_params.c_sys,
        &options_.cost_params.tuple_kb};
    for (const double* param : params) {
      if (!r.Double(&dv)) return fail("truncated fingerprint");
      if (dv != *param) return mismatch("cost_params");
    }
  }

  // Scalars — decoded into locals and applied *after* the records are
  // re-registered: RegisterQuery consults finished_/input counts/watermark,
  // and must see the fresh-engine values while replaying registrations.
  uint64_t next_token = 0, input_tuples = 0, dropped_tuples = 0,
           rejected_tuples = 0, migrations = 0, rebuilds = 0,
           poll_pending = 0;
  int64_t watermark = 0, next_sample = 0;
  uint8_t finished = 0;
  std::vector<uint64_t> rejected_by_stream(kMaxStreams, 0);
  std::vector<TimePoint> rebuild_cutoffs;
  if (!r.U64(&next_token) || !r.I64(&watermark) || !r.I64(&next_sample) ||
      !r.U8(&finished)) {
    return fail("truncated scalar section");
  }
  if (finished > 1) return fail("corrupt scalar section");
  if (!r.U64(&input_tuples) || !r.U64(&dropped_tuples) ||
      !r.U64(&rejected_tuples)) {
    return fail("truncated scalar section");
  }
  for (size_t s = 0; s < kMaxStreams; ++s) {
    if (!r.U64(&rejected_by_stream[s])) {
      return fail("truncated scalar section");
    }
  }
  uint32_t cutoff_count = 0;
  if (!r.U64(&migrations) || !r.U64(&rebuilds) ||
      !ReadCount(&r, &cutoff_count)) {
    return fail("truncated scalar section");
  }
  rebuild_cutoffs.reserve(cutoff_count);
  for (uint32_t i = 0; i < cutoff_count; ++i) {
    int64_t cutoff = 0;
    if (!r.I64(&cutoff)) return fail("truncated scalar section");
    rebuild_cutoffs.push_back(cutoff);
  }
  if (!r.U64(&poll_pending)) return fail("truncated scalar section");

  // Accumulators. The engine is idle (fresh, no workers), so the caller
  // thread trivially holds the surgery capability the members are guarded
  // by.
  surgery_cap_.Assert();
  uint64_t events = 0, edge_events = 0, edge_hwm = 0, steals = 0,
           spilled = 0;
  if (!r.U64(&events) || !r.U64(&edge_events) || !r.U64(&edge_hwm) ||
      !r.U64(&steals) || !r.U64(&spilled)) {
    return fail("truncated accumulator section");
  }
  CostCounters cost;
  if (!ReadCost(&r, &cost)) return fail("truncated accumulator section");
  uint32_t sample_count = 0;
  if (!ReadCount(&r, &sample_count)) {
    return fail("truncated accumulator section");
  }
  std::vector<MemorySample> samples;
  samples.reserve(sample_count);
  for (uint32_t i = 0; i < sample_count; ++i) {
    MemorySample sample;
    uint64_t state = 0, queue = 0;
    if (!r.I64(&sample.time) || !r.U64(&state) || !r.U64(&queue)) {
      return fail("truncated accumulator section");
    }
    sample.state_tuples = static_cast<size_t>(state);
    sample.queue_events = static_cast<size_t>(queue);
    samples.push_back(sample);
  }

  // Active records replay through RegisterQuery — the normal validation
  // path, so a corrupt stored query is rejected gracefully instead of
  // tripping builder CHECKs — then the fresh record's token and totals are
  // overridden from the snapshot.
  uint32_t active_count = 0;
  if (!ReadCount(&r, &active_count)) return fail("truncated active section");
  std::vector<std::pair<uint64_t, int64_t>> gate_cutoffs;  // token, cutoff
  uint64_t max_token = 0;  // tokens ascend, so this is the last one seen
  for (uint32_t i = 0; i < active_count; ++i) {
    uint64_t token = 0, delivered = 0;
    std::string name, cql;
    int64_t results_from = 0, gate_cutoff = -1;
    std::map<std::string, int> collected;
    if (!r.U64(&token) || !r.Str(&name) || !r.Str(&cql) ||
        !r.I64(&results_from) || !r.U64(&delivered) ||
        !ReadCollected(&r, &collected) || !r.I64(&gate_cutoff) ||
        (gate_cutoff != -1 && gate_cutoff <= 0)) {
      return fail("truncated active section");
    }
    if (token == 0) return fail("record with invalid token 0");
    if (token <= max_token) {
      return fail("active token " + std::to_string(token) +
                  " does not ascend (after " + std::to_string(max_token) +
                  ")");
    }
    max_token = token;
    const ParseResult parsed = ParseQuery(cql);
    if (!parsed.ok) {
      return fail("stored query \"" + name +
                  "\" failed to parse: " + parsed.error);
    }
    ContinuousQuery query = parsed.query;
    query.name = name;
    const QueryHandle handle = RegisterQuery(query);
    if (!handle.valid()) {
      return fail("stored query \"" + name + "\" was rejected: " +
                  last_error_);
    }
    QueryRecord& rec = active_.back();
    rec.token = token;
    rec.results_from = results_from;
    rec.delivered = delivered;
    rec.collected = std::move(collected);
    if (gate_cutoff > 0) gate_cutoffs.emplace_back(token, gate_cutoff);
  }

  // Retired entries: strictly ascending tokens make the duplicate check a
  // comparison with the previous entry and each insertion an append; the
  // active tokens are few and sorted, so one merge walk finds collisions.
  uint32_t retired_count = 0;
  if (!ReadCount(&r, &retired_count) ||
      retired_count > r.remaining() / kRetiredEntryBytes) {
    return fail("truncated retired section");
  }
  retired_.reserve(retired_count);
  uint64_t prev_retired = 0;
  size_t next_active = 0;  // first active record not below prev_retired
  for (uint32_t i = 0; i < retired_count; ++i) {
    RetiredQuery retired;
    if (!r.U64(&retired.token) || !r.I64(&retired.results_from) ||
        !r.U64(&retired.delivered) ||
        !ReadCollected(&r, &retired.collected)) {
      return fail("truncated retired section");
    }
    const uint64_t token = retired.token;
    if (token == 0) return fail("record with invalid token 0");
    if (token == prev_retired) {
      return fail("duplicate retired token " + std::to_string(token));
    }
    if (token < prev_retired) {
      return fail("retired token " + std::to_string(token) +
                  " out of order (after " + std::to_string(prev_retired) +
                  ")");
    }
    prev_retired = token;
    while (next_active < active_.size() &&
           active_[next_active].token < token) {
      ++next_active;
    }
    if (next_active < active_.size() &&
        active_[next_active].token == token) {
      return fail("retired token " + std::to_string(token) +
                  " is also an active token");
    }
    if (!options_.collect_results && !retired.collected.empty()) {
      return fail("retired token " + std::to_string(token) +
                  " carries collected results without collect_results");
    }
    retired_delivered_ += retired.delivered;
    retired_.push_back(std::move(retired));
  }
  max_token = std::max(max_token, prev_retired);
  if (next_token <= max_token) {
    return fail("next_token " + std::to_string(next_token) +
                " does not exceed stored token " + std::to_string(max_token));
  }

  // Apply the scalars and accumulators now that the registrations are
  // replayed (they mutated next_token_ and consulted the watermark).
  next_token_ = next_token;
  watermark_ = watermark;
  next_sample_ = next_sample;
  input_tuples_ = input_tuples;
  dropped_tuples_ = dropped_tuples;
  rejected_tuples_ = rejected_tuples;
  rejected_by_stream_ = std::move(rejected_by_stream);
  migrations_ = migrations;
  rebuilds_ = rebuilds;
  rebuild_cutoffs_ = std::move(rebuild_cutoffs);
  poll_pending_ = poll_pending;
  events_accum_ = events;
  parallel_edge_events_accum_ = edge_events;
  parallel_edge_hwm_ = static_cast<size_t>(edge_hwm);
  shard_steals_accum_ = steals;
  shard_spilled_accum_ = spilled;
  cost_accum_ = cost;
  memory_samples_ = std::move(samples);

  // Plan section.
  uint8_t has_plan = 0;
  if (!r.U8(&has_plan) || has_plan > 1) {
    return fail("truncated plan section");
  }
  if (has_plan != 0) {
    if (finished != 0) return fail("plan present in a finished snapshot");
    uint8_t is_sharded = 0, num_levels = 0, has_chain = 0;
    if (!r.U8(&is_sharded) || !r.U8(&num_levels) || !r.U8(&has_chain) ||
        is_sharded > 1 || has_chain > 1 || num_levels == 0) {
      return fail("truncated plan section");
    }
    if ((is_sharded != 0) !=
        (options_.mode == ExecutionMode::kSharded)) {
      return fail("plan sharding flag contradicts the execution mode");
    }
    if (has_chain != 0 &&
        (is_sharded != 0 ||
         options_.strategy != SharingStrategy::kStateSlice ||
         num_levels != 1)) {
      return fail("chain section present for a plan kind that has none");
    }

    // Dense ids in active-record order (provably the checkpointed
    // assignment; see the file comment).
    std::vector<ContinuousQuery> queries;
    std::unordered_map<uint64_t, int> token_qid;
    for (QueryRecord& rec : active_) {
      rec.query.id = static_cast<int>(queries.size());
      queries.push_back(rec.query);
      token_qid.emplace(rec.token, rec.query.id);
    }
    if (queries.empty()) return fail("plan section with no active queries");

    // Decode + validate the serialized chain before handing it to the
    // builder (the builder CHECK-crashes on malformed partitions; corrupt
    // snapshots must stay on the graceful path).
    ChainPlan chain;
    if (has_chain != 0) {
      uint8_t kind = 0;
      uint32_t boundary_count = 0;
      if (!r.U8(&kind) || kind > 1 || !ReadCount(&r, &boundary_count) ||
          boundary_count == 0) {
        return fail("corrupt chain spec");
      }
      chain.spec.kind = static_cast<WindowKind>(kind);
      int64_t prev = 0;
      for (uint32_t i = 0; i < boundary_count; ++i) {
        int64_t b = 0;
        if (!r.I64(&b) || b <= prev) return fail("corrupt chain spec");
        chain.spec.boundaries.push_back(b);
        prev = b;
      }
      uint32_t end_count = 0;
      if (!ReadCount(&r, &end_count) || end_count == 0) {
        return fail("corrupt chain partition");
      }
      int prev_end = -1;
      for (uint32_t i = 0; i < end_count; ++i) {
        uint32_t e = 0;
        if (!r.U32(&e) || static_cast<int>(e) <= prev_end ||
            e >= boundary_count) {
          return fail("corrupt chain partition");
        }
        chain.partition.slice_end_boundaries.push_back(static_cast<int>(e));
        prev_end = static_cast<int>(e);
      }
      if (chain.partition.slice_end_boundaries.back() !=
          static_cast<int>(boundary_count) - 1) {
        return fail("corrupt chain partition");
      }
      // Re-derive the query->boundary registration for the *live* query
      // set (removed queries left their boundaries behind; those simply
      // carry no registration).
      chain.spec.query_boundary.assign(queries.size(), -1);
      chain.spec.queries_at_boundary.assign(boundary_count, {});
      for (const ContinuousQuery& q : queries) {
        if (q.num_streams() != 2) {
          return fail("chain snapshot with a multi-way query");
        }
        if (q.window.kind != chain.spec.kind) {
          return fail("query \"" + q.name +
                      "\" window kind contradicts the chain");
        }
        int k = -1;
        for (size_t b = 0; b < chain.spec.boundaries.size(); ++b) {
          if (chain.spec.boundaries[b] == q.window.extent) {
            k = static_cast<int>(b);
            break;
          }
        }
        if (k < 0) {
          return fail("query \"" + q.name +
                      "\" window is not a chain boundary");
        }
        chain.spec.query_boundary[q.id] = k;
        chain.spec.queries_at_boundary[static_cast<size_t>(k)].push_back(
            q.id);
      }
    }

    // Build the plan skeleton — exactly BuildPlan's recipe, except the
    // single-level chain comes from the snapshot and workers stay parked
    // until the states are injected.
    BuildOptions bopt;
    bopt.condition = options_.condition;
    bopt.collect_results = options_.collect_results;
    bopt.use_lineage = options_.use_lineage &&
                       options_.strategy == SharingStrategy::kStateSlice;
    JoinTreePlan tree;
    if (options_.strategy == SharingStrategy::kStateSlice &&
        has_chain == 0) {
      tree = options_.objective == ChainObjective::kMemOpt
                 ? BuildMemOptTree(queries)
                 : BuildCpuOptTree(queries, options_.cost_params);
    }
    const auto build_one = [&](const BuildOptions& opt) -> BuiltPlan {
      switch (options_.strategy) {
        case SharingStrategy::kStateSlice:
          return has_chain != 0 ? BuildStateSlicePlan(queries, chain, opt)
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
    uint32_t plan_count = 0;
    if (!ReadCount(&r, &plan_count)) return fail("truncated plan section");
    if (is_sharded != 0) {
      BuildOptions shard_opt = bopt;
      shard_opt.collect_results = false;
      const int shards = ShardCount();
      last_shard_count_ = shards;
      if (plan_count != static_cast<uint32_t>(shards) + 1) {
        return fail("plan count mismatch for " + std::to_string(shards) +
                    " shards");
      }
      if (!gate_cutoffs.empty()) {
        return fail("gate cutoff present in a sharded snapshot");
      }
      sharded_ = std::make_unique<ShardedPlanSet>(BuildShardedPlanSet(
          shards, queries, bopt, [&] { return build_one(shard_opt); }));
      for (BuiltPlan& shard : sharded_->shards) {
        std::string error;
        if (!ReadPlanState(&r, watermark_, token_qid, &shard, &error)) {
          return fail(error);
        }
      }
      std::string error;
      if (!ReadPlanState(&r, watermark_, token_qid, &sharded_->merge,
                         &error)) {
        return fail(error);
      }
    } else {
      if (plan_count != 1) return fail("plan count mismatch");
      built_ = build_one(bopt);
      if (built_.num_levels != static_cast<int>(num_levels)) {
        return fail("tree depth mismatch: snapshot has " +
                    std::to_string(num_levels) + " levels, rebuild has " +
                    std::to_string(built_.num_levels));
      }
      std::string error;
      if (!ReadPlanState(&r, watermark_, token_qid, &built_, &error)) {
        return fail(error);
      }
      // Retrofit migration-created fresh-start gates with the migration
      // recipe: move the sink edges behind a new ResultTimeGate fed by the
      // old terminal.
      for (const auto& [token, cutoff] : gate_cutoffs) {
        if (built_.slices.empty() || built_.num_levels != 1) {
          return fail("gate cutoff on a plan kind that cannot carry one");
        }
        const QueryRecord* rec = FindActive(token);
        SLICE_CHECK(rec != nullptr);
        const int qid = rec->query.id;
        QueryPlan* plan = built_.plan.get();
        // Freshly built, workers not yet started: structure is ours.
        plan->AssertSurgeryExclusive();
        SLICE_CHECK(!built_.sink_edges[qid].empty());
        const SinkEdge proto = built_.sink_edges[qid].front();
        auto* gate = plan->InsertOperatorWhileRunning(
            std::make_unique<ResultTimeGate>(rec->query.name + ".fresh",
                                             cutoff));
        for (SinkEdge& edge : built_.sink_edges[qid]) {
          plan->MoveQueueProducer(edge.queue, edge.producer,
                                  edge.producer_port, gate,
                                  ResultTimeGate::kOutPort);
          edge.producer = gate;
          edge.producer_port = ResultTimeGate::kOutPort;
        }
        EventQueue* gq = plan->ConnectWhileRunning(
            proto.producer, proto.producer_port, gate, 0);
        built_.result_gates[qid] = gate;
        if (built_.merges[qid] == nullptr) {
          for (ResultEdge& edge : built_.result_edges) {
            if (edge.query_id == qid && edge.merge == nullptr &&
                edge.queue == nullptr) {
              edge.queue = gq;
              break;
            }
          }
        }
      }
      if (has_chain != 0) ValidateBuiltChain(built_);
      if (options_.mode == ExecutionMode::kDeterministic) {
        det_scheduler_ = std::make_unique<RoundRobinScheduler>(
            built_.plan.get(),
            options_.run_length > 0 ? options_.run_length : 8);
      }
    }
  } else if (!gate_cutoffs.empty()) {
    return fail("gate cutoff present without a plan section");
  }

  if (!r.AtEnd()) {
    return fail("trailing garbage after a complete snapshot (" +
                std::to_string(r.remaining()) + " bytes)");
  }
  finished_ = finished != 0;

  // Workers last: everything above mutated plan structure and operator
  // state, which requires the quiescent, single-thread view.
  if (running() && !finished_ && options_.mode == ExecutionMode::kSharded) {
    StartSharded();
  }
  return true;
}

// ------------------------------------------------------ CheckPlanInvariants

void Engine::CheckPlanInvariants() {
  if (!running()) return;
  const bool had_workers = shard_scheduler_ != nullptr;
  if (had_workers) PauseSharded();
  const auto check_plan = [](const BuiltPlan& built) {
    if (!built.slices.empty() && built.num_levels == 1) {
      // Single-level chain: full metadata + per-state index validation.
      ValidateBuiltChain(built, /*check_indexes=*/true);
      return;
    }
    for (const std::unique_ptr<Operator>& op : built.plan->operators()) {
      if (auto* sliced = dynamic_cast<SlicedWindowJoin*>(op.get())) {
        sliced->state_a().CheckIndexConsistency();
        sliced->state_b().CheckIndexConsistency();
        sliced->composite_state().CheckIndexConsistency();
      } else if (auto* sliding =
                     dynamic_cast<SlidingWindowJoin*>(op.get())) {
        sliding->state_a().CheckIndexConsistency();
        sliding->state_b().CheckIndexConsistency();
      }
    }
  };
  if (sharded_ != nullptr) {
    for (const BuiltPlan& shard : sharded_->shards) check_plan(shard);
    check_plan(sharded_->merge);
  } else {
    check_plan(built_);
  }
  if (had_workers) ResumeAfterSurgery();
}

}  // namespace stateslice
