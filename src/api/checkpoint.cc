// Engine checkpoint/restore: versioned binary snapshots of a streaming
// session (fault tolerance for the paper's continuously running multi-query
// setting).
//
// Each record has one field list, a Visit(Ar&, T&) below that a
// StateWriter walks on Checkpoint and a StateReader on Restore, so format
// v4 is those lists in the order Checkpoint visits them: magic and
// version, VisitFingerprint, SessionCounters, SessionMetrics, the
// ActiveEntry and RetiredQuery lists (token order), the plan section
// (present iff the engine was running), then a CRC-32 over everything
// before it. Scalars are fixed-width little-endian (src/common/serde.h),
// sequences carry a u32 count, and Expect() fields hold values the
// restoring engine already has, compared on Restore with a named mismatch.
//
// Restore replays the active records through RegisterQuery, rebuilds the
// plan through BuildPlan (from the snapshot's chain, which keeps the
// boundaries migration left behind), injects each join's and union's state
// in the order both ends enumerate them, re-installs fresh-start gates
// with ChainMigrator::InstallFreshStartGate, and only then starts sharded
// workers. Dense query ids follow record order on both ends: BuildPlan
// numbers records in order, ChainMigrator::AddQuery appends the next id to
// the newest record and RemoveQuery frees none.
//
// Failure discipline: a failed Checkpoint leaves the engine as it was. A
// Restore that fails past the fresh-engine precondition poisons the engine
// (poisoned()): the half-rebuilt plan is destroyed, ingestion and churn are
// rejected, introspection stays safe. Every read is bounds-checked, every
// count is bounded by the bytes left and tokens must ascend, so a corrupt
// snapshot yields a diagnostic, not UB, in time linear in its size.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/common/check.h"
#include "src/common/fault_point.h"
#include "src/common/serde.h"
#include "src/core/migration.h"
#include "src/operators/sliding_window_join.h"
#include "src/query/parser.h"

namespace stateslice {
namespace {

constexpr uint32_t kCheckpointVersion = 4;
const char kCheckpointMagic[4] = {'S', 'S', 'C', 'P'};
// Smallest encodings, which bound decoded counts by the bytes left.
constexpr size_t kRetiredEntryBytes = 8 + 8 + 8 + 4;
constexpr size_t kActiveEntryBytes = 8 + 4 + 4 + 8 + 8 + 4 + 8;

template <typename Ar>
constexpr bool kReading = std::is_same_v<Ar, StateReader>;

// ------------------------------------------------------------- primitives

// One field at wire type W. A reader decodes into `v`, failing (and
// leaving `v` alone) when the value lies outside [lo, hi].
template <typename W, typename T>
void Io(StateWriter& w, const T& v, W = {}, W = {}) {
  w.Put(static_cast<W>(v));
}
template <typename W, typename T>
void Io(StateReader& r, T& v, W lo = std::numeric_limits<W>::lowest(),
        W hi = std::numeric_limits<W>::max()) {
  W x;
  if (!r.Get(&x)) return;
  if (x < lo || x > hi) return r.Fail({});
  v = static_cast<T>(x);
}
// Strings: u32 length, then the bytes (Io<std::string> names them too).
template <typename W = std::string>
void Io(StateWriter& w, const std::string& s) {
  w.Str(s);
}
template <typename W = std::string>
void Io(StateReader& r, std::string& s) {
  r.Str(&s);
}

// A value the restoring engine already holds: a writer records it, a
// reader decodes it and fails with "mismatch: <what>" when it differs.
template <typename W, typename T>
void Expect(StateWriter& w, const char* /*what*/, const T& v) {
  w.Put(static_cast<W>(v));
}
template <typename W, typename T>
void Expect(StateReader& r, const char* what, const T& v) {
  W x;
  if (r.Get(&x) && x != static_cast<W>(v)) {
    r.Fail(std::string("mismatch: ") + what);
  }
}

// A u32 element count. A reader bounds it by the bytes left at
// `min_bytes` per element, so a corrupt count fails before it drives an
// allocation or a loop, and gets 0 once failed.
template <typename Ar>
uint32_t Count(Ar& ar, size_t n, size_t min_bytes = 1) {
  auto count = static_cast<uint32_t>(n);
  Io<uint32_t>(ar, count);
  if constexpr (kReading<Ar>) {
    if (ar.ok() && uint64_t{count} * min_bytes > ar.remaining()) ar.Fail({});
    if (!ar.ok()) return 0;
  }
  return count;
}

// ------------------------------------------------------------ field lists

template <typename Ar>
void Visit(Ar& ar, int64_t& v) {
  Io<int64_t>(ar, v);
}
template <typename Ar>
void Visit(Ar& ar, int& v) {
  Io<uint32_t>(ar, v);
}

template <typename Ar>
void Visit(Ar& ar, Tuple& t) {
  Io<int64_t>(ar, t.timestamp);
  Io<int64_t>(ar, t.key);
  Io<double>(ar, t.value);
  Io<uint32_t>(ar, t.seq);
  Io<int64_t>(ar, t.side, INT16_MIN, INT16_MAX);
  Io<uint8_t>(ar, t.role, 0, 2);
  Io<uint64_t>(ar, t.lineage);
}

template <typename Ar>
void Visit(Ar& ar, CompositeTuple& c) {
  Visit(ar, c.a);
  Visit(ar, c.b);
  auto tail = static_cast<uint32_t>(c.tail.size());
  Io<uint32_t>(ar, tail, 0, kMaxStreams);
  for (uint32_t i = 0; i < tail && ar.ok(); ++i) {
    if constexpr (kReading<Ar>) c.tail.push_back(Tuple{});
    Visit(ar, c.tail[i]);
  }
  Io<uint8_t>(ar, c.role, 0, 2);
}

// A union's buffered event: u8 tag (0 = Tuple, 1 = JoinResult), then the
// payload. Punctuations advance watermarks and are never buffered, so a
// writer meeting one fails.
template <typename Ar>
void Visit(Ar& ar, Event& event) {
  auto tag = static_cast<uint8_t>(event.index());
  if (tag > 1) return ar.Fail("a union buffered a punctuation");
  Io<uint8_t>(ar, tag, 0, 1);
  if (kReading<Ar> && tag == 1) event = JoinResult{};
  if (tag == 0) return Visit(ar, std::get<Tuple>(event));
  Visit(ar, std::get<JoinResult>(event));
}

template <typename Ar>
void Visit(Ar& ar, MemorySample& s) {
  Io<int64_t>(ar, s.time);
  Io<uint64_t>(ar, s.state_tuples);
  Io<uint64_t>(ar, s.queue_events);
}

template <typename Ar>
void Visit(Ar& ar, CostCounters& cost) {
  for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
    const auto category = static_cast<CostCategory>(c);
    uint64_t n = cost.Get(category);
    Io<uint64_t>(ar, n);
    if constexpr (kReading<Ar>) cost.Add(category, n);
  }
  for (int c = 0; c < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++c) {
    const auto category = static_cast<PhysCategory>(c);
    uint64_t n = cost.GetPhysical(category);
    Io<uint64_t>(ar, n);
    if constexpr (kReading<Ar>) cost.AddPhysical(category, n);
  }
}

// A collected result multiset: (key, count) pairs in key order.
template <typename Ar>
void Visit(Ar& ar, std::map<std::string, int>& m) {
  const uint32_t n = Count(ar, m.size(), 8);
  if constexpr (kReading<Ar>) {
    for (uint32_t i = 0; i < n && ar.ok(); ++i) {
      std::pair<std::string, int> entry;
      Io(ar, entry.first);
      Io<uint32_t>(ar, entry.second);
      m.insert(m.end(), std::move(entry));
    }
  } else {
    for (const auto& [key, count] : m) {
      Io(ar, key);
      Io<uint32_t>(ar, count);
    }
  }
}

template <typename Ar>
void Visit(Ar& ar, RetiredQuery& q) {
  Io<uint64_t>(ar, q.token);
  Io<int64_t>(ar, q.results_from);
  Io<uint64_t>(ar, q.delivered);
  Visit(ar, q.collected);
}

// A live query. Restore re-registers it from `cql`, then gives the fresh
// record the stored token and totals (live sink counts folded in).
struct ActiveEntry {
  uint64_t token = 0;
  std::string name;
  std::string cql;
  TimePoint results_from = 0;
  uint64_t delivered = 0;
  std::map<std::string, int> collected;
  TimePoint gate_cutoff = -1;  // fresh-start gate cutoff; -1 = no gate
};

template <typename Ar>
void Visit(Ar& ar, ActiveEntry& e) {
  Io<uint64_t>(ar, e.token);
  Io(ar, e.name);
  Io(ar, e.cql);
  Io<int64_t>(ar, e.results_from);
  Io<uint64_t>(ar, e.delivered);
  Visit(ar, e.collected);
  Io<int64_t>(ar, e.gate_cutoff);
}

// A u32-counted vector; `min_bytes` is an element's smallest encoding.
template <typename Ar, typename T>
void Visit(Ar& ar, std::vector<T>& v, size_t min_bytes = 1) {
  const uint32_t n = Count(ar, v.size(), min_bytes);
  if constexpr (kReading<Ar>) {
    v.reserve(n);
    for (uint32_t i = 0; i < n && ar.ok(); ++i) Visit(ar, v.emplace_back());
  } else {
    for (T& x : v) Visit(ar, x);
  }
}

template <typename Ar>
void Visit(Ar& ar, SessionCounters& s) {
  Io<uint64_t>(ar, s.next_token);
  Io<int64_t>(ar, s.watermark);
  Io<int64_t>(ar, s.next_sample);
  Io<uint8_t>(ar, s.finished, 0, 1);
  Io<uint64_t>(ar, s.input_tuples);
  Io<uint64_t>(ar, s.dropped_tuples);
  Io<uint64_t>(ar, s.rejected_tuples);
  for (uint64_t& n : s.rejected_by_stream) Io<uint64_t>(ar, n);
  Io<uint64_t>(ar, s.migrations);
  Io<uint64_t>(ar, s.rebuilds);
  Visit(ar, s.rebuild_cutoffs, 8);
  Io<uint64_t>(ar, s.poll_pending);
}

template <typename Ar>
void Visit(Ar& ar, SessionMetrics& m) {
  Io<uint64_t>(ar, m.events);
  Io<uint64_t>(ar, m.edge_events);
  Io<uint64_t>(ar, m.edge_hwm);
  Visit(ar, m.cost);
  Visit(ar, m.memory_samples, 24);
}

template <typename Ar>
void Visit(Ar& ar, ChainPlan& chain) {
  Io<uint8_t>(ar, chain.spec.kind, 0, 1);
  Visit(ar, chain.spec.boundaries);
  Visit(ar, chain.partition.slice_end_boundaries);
}

// The Options that shape plan structure, so a snapshot never lands in a
// mismatched engine.
template <typename Ar>
void VisitFingerprint(Ar& ar, const Engine::Options& o, int shards) {
  Expect<uint8_t>(ar, "strategy", o.strategy);
  Expect<uint8_t>(ar, "objective", o.objective);
  Expect<uint8_t>(ar, "use_lineage", o.use_lineage);
  Expect<uint8_t>(ar, "collect_results", o.collect_results);
  Expect<uint8_t>(ar, "mode", o.mode);
  Expect<uint32_t>(ar, "shard_count (resolved)",
                   o.mode == ExecutionMode::kSharded ? shards : 0);
  Expect<uint64_t>(ar, "parallel_edge_capacity", o.parallel_edge_capacity);
  Expect<uint8_t>(ar, "condition.kind", o.condition.kind);
  Expect<int64_t>(ar, "condition.mod", o.condition.mod);
  Expect<int64_t>(ar, "condition.band", o.condition.band);
  Expect<int64_t>(ar, "sample_interval", o.sample_interval);
  Expect<uint8_t>(ar, "auto_drain", o.auto_drain);
  Expect<uint32_t>(ar, "run_length", o.run_length);
  Expect<double>(ar, "cost_params.lambda_a", o.cost_params.lambda_a);
  Expect<double>(ar, "cost_params.lambda_b", o.cost_params.lambda_b);
  Expect<double>(ar, "cost_params.s1", o.cost_params.s1);
  Expect<double>(ar, "cost_params.c_sys", o.cost_params.c_sys);
  Expect<double>(ar, "cost_params.tuple_kb", o.cost_params.tuple_kb);
}

// ------------------------------------------------------------ plan state

// A u32-counted sequence held by an operator: the writer emits `items`
// (the operator's contents, empty on a freshly built plan); the reader
// decodes each element and hands it to `take`, which validates and stores
// it or fails the reader.
template <typename Ar, typename T, typename Take>
void Stream(Ar& ar, std::vector<T> items, Take&& take) {
  const uint32_t n = Count(ar, items.size());
  for (uint32_t i = 0; i < n && ar.ok(); ++i) {
    if constexpr (kReading<Ar>) {
      T item;
      Visit(ar, item);
      if (ar.ok()) take(std::move(item));
    } else {
      Visit(ar, items[i]);
    }
  }
}

// A join state's window contents, oldest first. Entry times must not
// decrease (Insert CHECK-fails otherwise) nor pass the snapshot watermark,
// and no insert may evict (a count window holding more entries than its
// extent means a corrupt snapshot). Insert rebuilds the key index.
template <typename Ar, typename EntryT>
void Visit(Ar& ar, BasicJoinState<EntryT>& state, TimePoint watermark) {
  TimePoint prev = kMinTime;
  Stream(ar, state.tuples(), [&](EntryT&& e) {
    const TimePoint t = EntryTime(e);
    const size_t size = state.size();
    if (t < prev || t > watermark) return ar.Fail({});
    prev = t;
    state.Insert(e);
    if (state.size() != size + 1) ar.Fail({});
  });
}

// Unions' buffered events, in release order: a u32-counted list of (key,
// events) entries. The writer emits `queued`; the reader resolves each
// decoded key with `find`, which fails the reader for an unknown union.
// Events must not pass the snapshot watermark.
template <typename Ar, typename Key, typename Find>
void VisitUnions(Ar& ar, std::vector<std::pair<Key, UnionMerge*>> queued,
                 TimePoint watermark, Find&& find) {
  const uint32_t n = Count(ar, queued.size());
  for (uint32_t i = 0; i < n && ar.ok(); ++i) {
    Key key = kReading<Ar> ? Key() : queued[i].first;
    UnionMerge* merge = kReading<Ar> ? nullptr : queued[i].second;
    Io<Key>(ar, key);
    if (kReading<Ar> && ar.ok()) merge = find(key);
    if (!ar.ok()) return;
    Stream(ar, merge->PendingSnapshot(), [&](Event&& event) {
      if (EventTime(event) > watermark) return ar.Fail({});
      merge->RestorePending(std::move(event));
    });
  }
}

// One stateful join of a plan: exactly one pointer is set.
struct JoinRef {
  SlicedWindowJoin* sliced = nullptr;
  SlidingWindowJoin* sliding = nullptr;
};

// The plan's stateful joins in an order both ends agree on: chain order
// (built.slices) for state-slice plans, where a migration split appends
// its new slice out of operator order; operator insertion order for every
// other strategy, which never migrates and rebuilds identically.
std::vector<JoinRef> PlanJoins(const BuiltPlan& built) {
  std::vector<JoinRef> joins;
  for (const BuiltSlice& slice : built.slices) {
    joins.push_back(JoinRef{.sliced = slice.join});
  }
  if (!joins.empty()) return joins;
  for (const std::unique_ptr<Operator>& op : built.plan->operators()) {
    if (auto* sliced = dynamic_cast<SlicedWindowJoin*>(op.get())) {
      joins.push_back(JoinRef{.sliced = sliced});
    } else if (auto* sliding = dynamic_cast<SlidingWindowJoin*>(op.get())) {
      joins.push_back(JoinRef{.sliding = sliding});
    }
  }
  return joins;
}

// One plan's operator state: every join (its type, its range or
// windows checked against the rebuilt join, then its window contents),
// then the buffered events of each union holding some: query unions keyed
// by record token (`qid_token`: dense id -> token), the rest (multi-level
// pass-through and input merges) by name, in operator order.
template <typename Ar>
void VisitPlanState(Ar& ar, BuiltPlan& built,
                    const std::vector<uint64_t>& qid_token,
                    TimePoint watermark) {
  const std::vector<JoinRef> joins = PlanJoins(built);
  Expect<uint32_t>(ar, "join count", joins.size());
  for (const JoinRef& j : joins) {
    if (!ar.ok()) return;
    Expect<uint8_t>(ar, "join type", j.sliced == nullptr);
    if (j.sliced != nullptr) {
      const SliceRange& range = j.sliced->range();
      Expect<uint8_t>(ar, "slice range", range.kind);
      Expect<int64_t>(ar, "slice range", range.start);
      Expect<int64_t>(ar, "slice range", range.end);
      Visit(ar, *j.sliced->mutable_state_a(), watermark);
      Visit(ar, *j.sliced->mutable_state_b(), watermark);
      Visit(ar, *j.sliced->mutable_composite_state(), watermark);
    } else {
      for (const auto* state : {&j.sliding->state_a(), &j.sliding->state_b()}) {
        Expect<uint8_t>(ar, "join windows", state->window().kind);
        Expect<int64_t>(ar, "join windows", state->window().extent);
      }
      Visit(ar, *j.sliding->mutable_state_a(), watermark);
      Visit(ar, *j.sliding->mutable_state_b(), watermark);
    }
  }

  // Query unions keyed by record token, the rest by name.
  std::vector<std::pair<uint64_t, UnionMerge*>> by_token;
  for (size_t qid = 0; qid < built.merges.size(); ++qid) {
    UnionMerge* merge = built.merges[qid];
    if (merge != nullptr && merge->buffered() > 0) {
      by_token.emplace_back(qid_token[qid], merge);
    }
  }
  VisitUnions(ar, std::move(by_token), watermark, [&](uint64_t token) {
    const auto it = std::find(qid_token.begin(), qid_token.end(), token);
    UnionMerge* merge =
        it == qid_token.end() ? nullptr : built.merges[it - qid_token.begin()];
    if (merge == nullptr) {
      ar.Fail("union buffer references unknown query token " +
              std::to_string(token));
    }
    return merge;
  });
  std::vector<UnionMerge*> others;  // unions that are no query's result
  std::vector<std::pair<std::string, UnionMerge*>> by_name;
  for (const std::unique_ptr<Operator>& op : built.plan->operators()) {
    auto* merge = dynamic_cast<UnionMerge*>(op.get());
    const auto& merges = built.merges;
    if (merge == nullptr ||
        std::find(merges.begin(), merges.end(), merge) != merges.end()) {
      continue;
    }
    others.push_back(merge);
    if (merge->buffered() > 0) by_name.emplace_back(merge->name(), merge);
  }
  VisitUnions(ar, std::move(by_name), watermark, [&](const std::string& name) {
    for (UnionMerge* merge : others) {
      if (merge->name() == name) return merge;
    }
    ar.Fail("union buffer references unknown union \"" + name + "\"");
    return static_cast<UnionMerge*>(nullptr);
  });
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
  std::vector<ActiveEntry> active;
  active.reserve(active_.size());
  for (const QueryRecord& rec : active_) {
    std::optional<std::string> cql = rec.query.ToCql();
    if (!cql.has_value()) {
      last_error_ = "checkpoint rejected: query \"" + rec.query.name +
                    "\" is outside the CQL dialect (ToCql failed)";
      return false;
    }
    active.push_back({rec.token, rec.query.name, *std::move(cql),
                      rec.results_from, rec.delivered, rec.collected});
  }

  // Quiesce: join workers, then drain every queue to empty. The drained
  // work is inevitable — an uninterrupted run performs it anyway — so
  // folding it into the accumulators keeps restored metrics consistent.
  const bool had_workers = shard_scheduler_ != nullptr;
  if (had_workers) PauseSharded();
  // Either the pause above joined the workers, or none existed
  // (deterministic mode / idle): the accumulators are this thread's.
  surgery_cap_.Assert();
  std::vector<uint64_t> qid_token;
  if (running()) {
    if (sharded_ != nullptr) {
      DrainShardsIntoMerge(/*flush=*/false);
    } else {
      det_scheduler_->RunUntilQuiescent();
    }
    // Fold the live sink counts into the records (restored sinks restart
    // at zero; events still buffered in unions reached no sink yet, so
    // nothing is counted twice) and read the fresh-start gate cutoffs.
    const BuiltPlan& rp = result_plan();
    for (size_t i = 0; i < active.size(); ++i) {
      const auto qid = static_cast<size_t>(active_[i].query.id);
      FoldLiveResults(rp, active_[i].query.id, &active[i].delivered,
                      &active[i].collected);
      if (qid < rp.result_gates.size() && rp.result_gates[qid] != nullptr) {
        active[i].gate_cutoff = rp.result_gates[qid]->cutoff();
      }
      if (qid >= qid_token.size()) qid_token.resize(qid + 1, 0);
      qid_token[qid] = active_[i].token;
    }
  }

  // The history sections have fixed-size entries; reserving for them (and
  // a little plan state) spares most of the buffer's regrowth copies.
  StateWriter w;
  w.Reserve(4096 + 256 * active_.size() +
            kRetiredEntryBytes * retired_.size() +
            8 * session_.rebuild_cutoffs.size() +
            24 * metrics_.memory_samples.size());
  for (const char c : kCheckpointMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(kCheckpointVersion);
  VisitFingerprint(w, options_, ShardCount());
  Visit(w, session_);
  // The live scheduler and plan counters ride in the accumulators for the
  // write only: the restored plan restarts its own at zero.
  const uint64_t live_events =
      det_scheduler_ != nullptr ? det_scheduler_->total_processed() : 0;
  CostCounters cost = TotalCost();
  std::swap(cost, metrics_.cost);
  metrics_.events += live_events;
  Visit(w, metrics_);
  metrics_.events -= live_events;
  std::swap(cost, metrics_.cost);
  Visit(w, active, kActiveEntryBytes);
  Visit(w, retired_, kRetiredEntryBytes);
  STATESLICE_FAULT_POINT("checkpoint.mid_write");

  w.Put<uint8_t>(running());
  if (running()) {
    const std::vector<BuiltPlan*> plans = LivePlans();
    // Single-level non-sharded chains carry their live spec/partition:
    // migration leaves boundaries (splits, compaction survivors) that a
    // recompute from the query set would not reproduce. Everything else
    // never migrates and rebuilds deterministically from the queries.
    const bool has_chain = sharded_ == nullptr && !built_.slices.empty() &&
                           built_.num_levels == 1;
    w.Put<uint8_t>(sharded_ != nullptr);
    w.Put<uint8_t>(plans.front()->num_levels);
    w.Put<uint8_t>(has_chain);
    if (has_chain) Visit(w, built_.chain);
    w.Put<uint32_t>(plans.size());
    for (BuiltPlan* plan : plans) {
      VisitPlanState(w, *plan, qid_token, session_.watermark);
    }
  }
  if (!w.ok()) {
    last_error_ = "checkpoint rejected: " + w.error();
    if (had_workers) ResumeAfterSurgery();
    return false;
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
  if (running() || session_.finished || poisoned_ || !active_.empty() ||
      !retired_.empty() || !subscriptions_.empty() ||
      session_.input_tuples != 0 || session_.dropped_tuples != 0 ||
      session_.rejected_tuples != 0) {
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
    max_streams_ = 0;
    session_ = {};
    metrics_ = {};
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
  uint32_t stored_crc = 0;
  StateReader(snapshot.substr(body.size())).U32(&stored_crc);
  if (stored_crc != Crc32(body)) {
    return fail("checksum mismatch (torn write or corrupt snapshot)");
  }

  if (body.substr(0, 4) != std::string_view(kCheckpointMagic, 4)) {
    return fail("bad magic (not a stateslice checkpoint)");
  }
  StateReader r(body.substr(4));
  uint32_t version = 0;
  r.U32(&version);  // the size check above guarantees the bytes
  if (version != kCheckpointVersion) {
    return fail("unsupported snapshot version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(kCheckpointVersion) + ")");
  }
  STATESLICE_FAULT_POINT("restore.apply");

  VisitFingerprint(r, options_, ShardCount());
  if (!r.ok()) {
    return fail(r.error().empty() ? "truncated fingerprint"
                                  : "options " + r.error());
  }

  // The session scalars and accumulators apply once the records are
  // replayed: RegisterQuery must see the fresh-engine values (and advances
  // next_token). The engine is idle (fresh, no workers), so this thread
  // trivially holds the surgery capability.
  surgery_cap_.Assert();
  SessionCounters session;
  SessionMetrics metrics;
  Visit(r, session);
  if (!r.ok()) return fail("truncated scalar section");
  Visit(r, metrics);
  if (!r.ok()) return fail("truncated accumulator section");

  // Active records replay through RegisterQuery — the normal validation
  // path, so a corrupt stored query is rejected gracefully instead of
  // tripping builder CHECKs — then the fresh record takes the stored token
  // and totals.
  std::vector<ActiveEntry> active;
  Visit(r, active, kActiveEntryBytes);
  if (!r.ok()) return fail("truncated active section");
  uint64_t max_token = 0;  // tokens ascend, so this is the last one seen
  bool gated = false;
  for (ActiveEntry& e : active) {
    if (e.token == 0) return fail("record with invalid token 0");
    if (e.token <= max_token) {
      return fail("active token " + std::to_string(e.token) +
                  " does not ascend (after " + std::to_string(max_token) +
                  ")");
    }
    max_token = e.token;
    if (e.gate_cutoff == 0 || e.gate_cutoff < -1) {
      return fail("record with invalid gate cutoff");
    }
    gated |= e.gate_cutoff > 0;
    const ParseResult parsed = ParseQuery(e.cql);
    if (!parsed.ok) {
      return fail("stored query \"" + e.name +
                  "\" failed to parse: " + parsed.error);
    }
    ContinuousQuery query = parsed.query;
    query.name = e.name;
    if (!RegisterQuery(query).valid()) {
      return fail("stored query \"" + e.name + "\" was rejected: " +
                  last_error_);
    }
    QueryRecord& rec = active_.back();
    rec.token = e.token;
    rec.results_from = e.results_from;
    rec.delivered = e.delivered;
    rec.collected = std::move(e.collected);
  }

  // Retired entries: strictly ascending tokens make the duplicate check a
  // comparison with the previous entry; the active tokens are few and
  // sorted, so one merge walk finds collisions.
  Visit(r, retired_, kRetiredEntryBytes);
  if (!r.ok()) return fail("truncated retired section");
  uint64_t prev = 0;
  size_t next_active = 0;  // first active record not below prev
  for (const RetiredQuery& retired : retired_) {
    const uint64_t token = retired.token;
    const auto bad = [&](const std::string& why) {
      return fail("retired token " + std::to_string(token) + " " + why);
    };
    if (token == 0) return fail("record with invalid token 0");
    if (token == prev) {
      return fail("duplicate retired token " + std::to_string(token));
    }
    if (token < prev) {
      return bad("out of order (after " + std::to_string(prev) + ")");
    }
    prev = token;
    while (next_active < active_.size() &&
           active_[next_active].token < token) {
      ++next_active;
    }
    if (next_active < active_.size() && active_[next_active].token == token) {
      return bad("is also an active token");
    }
    if (!options_.collect_results && !retired.collected.empty()) {
      return bad("carries collected results without collect_results");
    }
    retired_delivered_ += retired.delivered;
  }
  max_token = std::max(max_token, prev);
  if (session.next_token <= max_token) {
    return fail("next_token " + std::to_string(session.next_token) +
                " does not exceed stored token " + std::to_string(max_token));
  }
  session_ = std::move(session);
  metrics_ = std::move(metrics);

  // Plan section.
  uint8_t has_plan = 0, sharded = 0, num_levels = 0, has_chain = 0;
  uint32_t plan_count = 0;
  ChainPlan chain;
  Io<uint8_t>(r, has_plan, 0, 1);
  if (has_plan != 0) {
    Io<uint8_t>(r, sharded, 0, 1);
    Io<uint8_t>(r, num_levels, 1, UINT8_MAX);
    Io<uint8_t>(r, has_chain, 0, 1);
    if (has_chain != 0) Visit(r, chain);
    Io<uint32_t>(r, plan_count);
  }
  if (!r.ok()) return fail("truncated plan section");
  if (has_plan != 0) {
    if (session_.finished) return fail("plan present in a finished snapshot");
    if ((sharded != 0) != (options_.mode == ExecutionMode::kSharded)) {
      return fail("plan sharding flag contradicts the execution mode");
    }
    if (has_chain != 0 &&
        (sharded != 0 || options_.strategy != SharingStrategy::kStateSlice ||
         num_levels != 1)) {
      return fail("chain section present for a plan kind that has none");
    }
    if (active_.empty()) return fail("plan section with no active queries");
    if (plan_count != (sharded != 0 ? ShardCount() + 1u : 1u)) {
      return fail("plan count mismatch");
    }
    if (has_chain != 0) {
      // The builder CHECK-fails on a malformed chain, so check it here,
      // then register each live query at its window's boundary (removed
      // queries left their boundaries behind, with no registration).
      const std::vector<int64_t>& b = chain.spec.boundaries;
      const std::vector<int>& ends = chain.partition.slice_end_boundaries;
      const auto ascending = [](const auto& v) {
        for (size_t i = 1; i < v.size(); ++i) {
          if (v[i] <= v[i - 1]) return false;
        }
        return true;
      };
      if (b.empty() || b.front() <= 0 || !ascending(b) || ends.empty() ||
          ends.front() < 0 || !ascending(ends) ||
          ends.back() != static_cast<int>(b.size()) - 1) {
        return fail("corrupt chain section");
      }
      chain.spec.query_boundary.assign(active_.size(), -1);
      chain.spec.queries_at_boundary.assign(b.size(), {});
      for (size_t q = 0; q < active_.size(); ++q) {
        const ContinuousQuery& query = active_[q].query;
        const auto k = static_cast<size_t>(
            std::find(b.begin(), b.end(), query.window.extent) - b.begin());
        if (query.num_streams() != 2 || query.window.kind != chain.spec.kind ||
            k == b.size()) {
          return fail("query \"" + query.name + "\" does not fit the chain");
        }
        chain.spec.query_boundary[q] = static_cast<int>(k);
        chain.spec.queries_at_boundary[k].push_back(static_cast<int>(q));
      }
    }
    BuildPlan(has_chain != 0 ? &chain : nullptr);
    const std::vector<BuiltPlan*> plans = LivePlans();
    if (plans.front()->num_levels != num_levels) {
      return fail("tree depth mismatch: snapshot has " +
                  std::to_string(num_levels) + " levels, rebuild has " +
                  std::to_string(plans.front()->num_levels));
    }
    std::vector<uint64_t> qid_token;  // BuildPlan numbered records in order
    for (const QueryRecord& rec : active_) qid_token.push_back(rec.token);
    for (BuiltPlan* plan : plans) {
      VisitPlanState(r, *plan, qid_token, session_.watermark);
      if (!r.ok()) {
        return fail(r.error().empty() ? "truncated or corrupt plan state"
                                      : "plan state: " + r.error());
      }
    }
  }
  // Fresh-start gates exist only where migration installs them.
  if (gated && !CanMigrateRemove()) {
    return fail("gate cutoff on a plan that cannot carry one");
  }
  for (size_t i = 0; i < active.size(); ++i) {
    if (active[i].gate_cutoff < 0) continue;
    const int qid = active_[i].query.id;
    const SinkEdge terminal = built_.sink_edges[qid].front();
    ChainMigrator(&built_).InstallFreshStartGate(
        qid, active[i].gate_cutoff, terminal.producer, terminal.producer_port);
  }
  if (has_chain != 0) ValidateBuiltChain(built_);

  if (!r.AtEnd()) {
    return fail("trailing garbage after a complete snapshot (" +
                std::to_string(r.remaining()) + " bytes)");
  }
  // Workers last: everything above mutated plan structure and operator
  // state, which requires the quiescent, single-thread view.
  ResumeAfterSurgery();
  return true;
}

// ------------------------------------------------------ CheckPlanInvariants

void Engine::CheckPlanInvariants() {
  if (!running()) return;
  const bool had_workers = shard_scheduler_ != nullptr;
  if (had_workers) PauseSharded();
  for (const BuiltPlan* built : LivePlans()) {
    if (!built->slices.empty() && built->num_levels == 1) {
      // Single-level chain: full metadata + per-state index validation.
      ValidateBuiltChain(*built, /*check_indexes=*/true);
      continue;
    }
    for (const JoinRef& j : PlanJoins(*built)) {
      if (j.sliced != nullptr) {
        j.sliced->state_a().CheckIndexConsistency();
        j.sliced->state_b().CheckIndexConsistency();
        j.sliced->composite_state().CheckIndexConsistency();
      } else {
        j.sliding->state_a().CheckIndexConsistency();
        j.sliding->state_b().CheckIndexConsistency();
      }
    }
  }
  if (had_workers) ResumeAfterSurgery();
}

}  // namespace stateslice
