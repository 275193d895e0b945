#include "src/core/migration.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/operators/router.h"
#include "src/operators/selection.h"

namespace stateslice {
namespace {

// Fresh operator names for migrated plan elements.
int g_migration_serial = 0;

// Index of `value` in `boundaries`, or -1.
int BoundaryIndexOf(const std::vector<int64_t>& boundaries, int64_t value) {
  for (size_t k = 0; k < boundaries.size(); ++k) {
    if (boundaries[k] == value) return static_cast<int>(k);
  }
  return -1;
}

}  // namespace

ChainMigrator::ChainMigrator(BuiltPlan* built) : built_(built) {
  SLICE_CHECK(built != nullptr);
  // In-place migration is defined on a single binary chain; multi-level
  // join trees take the Engine's drain-rebuild path instead (the rebuild
  // cutoff is recorded in Engine::rebuild_cutoffs).
  SLICE_CHECK_EQ(built->num_levels, 1);
  SLICE_CHECK(!built->slices.empty());
  for (const ContinuousQuery& q : built->queries) {
    // Section 5.3 presents migration for plain chains; selections would
    // additionally need filter surgery (future work, see DESIGN.md).
    SLICE_CHECK(q.Unfiltered());
  }
  SLICE_CHECK(!built->options.use_lineage);
}

void ChainMigrator::CheckQuiescent() const {
  SLICE_CHECK_EQ(built_->plan->TotalQueueSize(), size_t{0});
}

int ChainMigrator::EnsureBoundaryIndex(int64_t value) {
  ChainSpec& spec = built_->chain.spec;
  const int existing = BoundaryIndexOf(spec.boundaries, value);
  if (existing >= 0) return existing;
  // Insert keeping the ascending order, then shift every stored index at
  // or beyond the insertion point.
  int p = 0;
  while (p < static_cast<int>(spec.boundaries.size()) &&
         spec.boundaries[p] < value) {
    ++p;
  }
  spec.boundaries.insert(spec.boundaries.begin() + p, value);
  spec.queries_at_boundary.insert(spec.queries_at_boundary.begin() + p,
                                  std::vector<int>{});
  for (int& k : spec.query_boundary) {
    if (k >= p) ++k;
  }
  return p;
}

void ChainMigrator::SyncChainMetadata() {
  // Single-level plans keep slice_level parallel to slices (all level 0).
  built_->slice_level.assign(built_->slices.size(), 0);
  // The live join ranges are authoritative; re-derive the boundary indices
  // of every slice and the partition's slice ends from them.
  for (BuiltSlice& slice : built_->slices) {
    EnsureBoundaryIndex(slice.join->range().end);
  }
  const ChainSpec& spec = built_->chain.spec;
  std::vector<int>& ends = built_->chain.partition.slice_end_boundaries;
  ends.clear();
  int prev_end = -1;
  for (BuiltSlice& slice : built_->slices) {
    slice.start_boundary = prev_end;
    slice.end_boundary = BoundaryIndexOf(spec.boundaries,
                                         slice.join->range().end);
    SLICE_CHECK_GE(slice.end_boundary, 0);
    ends.push_back(slice.end_boundary);
    prev_end = slice.end_boundary;
  }
}

int ChainMigrator::SplitSlice(int slice_index, Duration boundary) {
  CheckQuiescent();
  // Quiescent plan + single-caller Engine contract: migration runs on the
  // one driver thread while no scheduler (and no worker) is active, so this
  // thread has the plan structure to itself.
  built_->plan->AssertSurgeryExclusive();
  SLICE_CHECK_GE(slice_index, 0);
  SLICE_CHECK_LT(slice_index, static_cast<int>(built_->slices.size()));
  BuiltSlice& left = built_->slices[slice_index];
  const SliceRange old_range = left.join->range();
  SLICE_CHECK(old_range.kind == WindowKind::kTime);
  SLICE_CHECK_GT(boundary, old_range.start);
  SLICE_CHECK_LT(boundary, old_range.end);
  QueryPlan* plan = built_->plan.get();

  // 1+2: stop is implicit (plan quiescent); shrink the left slice. Its
  // state still holds tuples beyond `boundary` — the next male purge will
  // move them into the new slice through the connecting queue, exactly as
  // Section 5.3 prescribes ("the execution of Ji will purge tuples, due to
  // its new smaller window, into the queue").
  left.join->SetRange(SliceRange{old_range.kind, old_range.start, boundary});

  // 3: insert the right-hand slice.
  SlicedWindowJoin::Options sopt;
  sopt.condition = built_->options.condition;
  sopt.use_key_index = built_->options.use_key_index;
  sopt.punctuate_results = true;
  const std::string name =
      "slice.split" + std::to_string(g_migration_serial++);
  auto* right = plan->InsertOperatorWhileRunning(
      std::make_unique<SlicedWindowJoin>(
          name, SliceRange{old_range.kind, boundary, old_range.end}, sopt));

  // Chain wiring: left.next now feeds `right`; right takes over left's old
  // next queue (toward slice_index+1).
  if (left.next_queue != nullptr) {
    plan->MoveQueueProducer(left.next_queue, left.join,
                            SlicedWindowJoin::kNextPort, right,
                            SlicedWindowJoin::kNextPort);
  }
  EventQueue* connector =
      plan->ConnectWhileRunning(left.join, SlicedWindowJoin::kNextPort,
                                right, 0);

  // Result edges: the right slice serves exactly the queries that read the
  // old slice's full stream *and* whose window reaches past `boundary` —
  // which is all of them, since their windows are >= old_range.end.
  std::vector<ResultEdge> new_edges;
  for (const ResultEdge& edge : built_->result_edges) {
    if (edge.slice_index != slice_index) continue;
    const int qid = edge.query_id;
    UnionMerge* merge = built_->merges[qid];
    if (merge == nullptr) {
      // The query read the old slice alone; it now reads two producers and
      // needs a union inserted in front of its gate (when registered with
      // fresh-start semantics) or its sinks.
      merge = plan->InsertOperatorWhileRunning(std::make_unique<UnionMerge>(
          built_->queries[qid].name + ".union.m" +
              std::to_string(g_migration_serial++),
          /*input_count=*/1));
      if (built_->result_gates[qid] != nullptr) {
        // slice -> gate becomes union -> gate; the old slice edge's queue
        // is exactly the gate's input.
        SLICE_CHECK(edge.queue != nullptr);
        plan->MoveQueueProducer(edge.queue, edge.producer,
                                edge.producer_port, merge,
                                UnionMerge::kOutPort);
      } else {
        for (SinkEdge& se : built_->sink_edges[qid]) {
          plan->MoveQueueProducer(se.queue, se.producer, se.producer_port,
                                  merge, UnionMerge::kOutPort);
          se.producer = merge;
          se.producer_port = UnionMerge::kOutPort;
        }
      }
      // Re-route the old direct edge through port 0 of the new union.
      EventQueue* q0 = plan->ConnectWhileRunning(
          left.join, SlicedWindowJoin::kResultPort, merge, 0);
      built_->merges[qid] = merge;
      // Update the old edge record in place.
      for (ResultEdge& e : built_->result_edges) {
        if (e.query_id == qid && e.slice_index == slice_index) {
          e.queue = q0;
          e.merge = merge;
          e.merge_port = 0;
        }
      }
      // NOTE: the old direct sink queues were produced by the slice and
      // are now produced by the union; results keep flowing in order.
    }
    const int port = merge->AddInputWhileRunning();
    EventQueue* eq = plan->ConnectWhileRunning(
        right, SlicedWindowJoin::kResultPort, merge, port);
    new_edges.push_back(ResultEdge{qid, slice_index + 1, right,
                                   SlicedWindowJoin::kResultPort, eq, merge,
                                   port});
  }

  // Metadata: insert the new slice after the old one; shift edge indices.
  for (ResultEdge& e : built_->result_edges) {
    if (e.slice_index > slice_index) ++e.slice_index;
  }
  built_->result_edges.insert(built_->result_edges.end(), new_edges.begin(),
                              new_edges.end());
  BuiltSlice right_slice;
  right_slice.join = right;
  right_slice.next_queue = left.next_queue;
  right_slice.result_producer = right;
  right_slice.full_port = SlicedWindowJoin::kResultPort;
  left.next_queue = connector;
  built_->slices.insert(built_->slices.begin() + slice_index + 1,
                        right_slice);
  SyncChainMetadata();
  return slice_index + 1;
}

int ChainMigrator::MergeSlices(int slice_index) {
  CheckQuiescent();
  // Quiescent plan + single-caller Engine contract (see SplitSlice).
  built_->plan->AssertSurgeryExclusive();
  SLICE_CHECK_GE(slice_index, 0);
  SLICE_CHECK_LT(slice_index + 1, static_cast<int>(built_->slices.size()));
  BuiltSlice& left = built_->slices[slice_index];
  BuiltSlice& right = built_->slices[slice_index + 1];
  // Merging a slice that already owns a router would need nested-router
  // surgery; compact routers are rebuilt instead (not needed by §5.3).
  SLICE_CHECK(left.result_producer == static_cast<Operator*>(left.join));
  SLICE_CHECK(right.result_producer == static_cast<Operator*>(right.join));
  const SliceRange lr = left.join->range();
  const SliceRange rr = right.join->range();
  SLICE_CHECK(lr.kind == rr.kind);
  SLICE_CHECK_EQ(lr.end, rr.start);
  QueryPlan* plan = built_->plan.get();

  // 1: the queue in between is empty (plan quiescent) — paper's
  // precondition for merging.
  SLICE_CHECK(left.next_queue != nullptr);
  SLICE_CHECK(left.next_queue->empty());

  // 2: build the merged slice and concatenate states (right holds the
  // older tuples).
  SlicedWindowJoin::Options sopt;
  sopt.condition = built_->options.condition;
  sopt.use_key_index = built_->options.use_key_index;
  sopt.punctuate_results = true;
  const std::string name =
      "slice.merged" + std::to_string(g_migration_serial++);
  auto* merged = plan->InsertOperatorWhileRunning(
      std::make_unique<SlicedWindowJoin>(
          name, SliceRange{lr.kind, lr.start, rr.end}, sopt));
  merged->mutable_state_a()->PrependOlder(
      left.join->mutable_state_a()->TakeAll());
  merged->mutable_state_a()->PrependOlder(
      right.join->mutable_state_a()->TakeAll());
  merged->mutable_state_b()->PrependOlder(
      left.join->mutable_state_b()->TakeAll());
  merged->mutable_state_b()->PrependOlder(
      right.join->mutable_state_b()->TakeAll());

  // 3: rewire the chain spine.
  EventQueue* in_queue = left.join->input(0);
  SLICE_CHECK(in_queue != nullptr);
  plan->ReplaceQueueConsumer(in_queue, merged, 0);
  if (right.next_queue != nullptr) {
    plan->MoveQueueProducer(right.next_queue, right.join,
                            SlicedWindowJoin::kNextPort, merged,
                            SlicedWindowJoin::kNextPort);
  }

  // 4: result side. Queries that read only the left slice's stream (their
  // window ends at the interior boundary) move behind a router branch
  // |Ta-Tb| < lr.end; queries reading both keep their left edge (now
  // carrying the merged full stream via the router's all-port) and lose
  // their right edge.
  std::vector<int> left_only, both;
  for (const ResultEdge& e : built_->result_edges) {
    if (e.slice_index == slice_index) {
      bool has_right = false;
      for (const ResultEdge& e2 : built_->result_edges) {
        if (e2.query_id == e.query_id &&
            e2.slice_index == slice_index + 1) {
          has_right = true;
          break;
        }
      }
      (has_right ? both : left_only).push_back(e.query_id);
    }
  }

  std::vector<Router::Branch> branches;
  for (size_t b = 0; b < left_only.size(); ++b) {
    branches.push_back(Router::Branch{lr.end, static_cast<int>(b)});
  }
  const int all_port = static_cast<int>(branches.size());
  auto* router = plan->InsertOperatorWhileRunning(std::make_unique<Router>(
      "router.m" + std::to_string(g_migration_serial++), branches,
      all_port));
  plan->ConnectWhileRunning(merged, SlicedWindowJoin::kResultPort, router,
                            0);

  std::vector<ResultEdge> kept_edges;
  for (ResultEdge& e : built_->result_edges) {
    if (e.slice_index == slice_index) {
      // Move this edge's queue behind the router.
      const auto it =
          std::find(left_only.begin(), left_only.end(), e.query_id);
      const int port = it == left_only.end()
                           ? all_port
                           : static_cast<int>(it - left_only.begin());
      if (e.queue != nullptr) {
        plan->MoveQueueProducer(e.queue, e.producer, e.producer_port, router,
                                port);
      } else {
        // Direct-wired query: move its sink queues behind the router.
        for (SinkEdge& se : built_->sink_edges[e.query_id]) {
          plan->MoveQueueProducer(se.queue, se.producer, se.producer_port,
                                  router, port);
          se.producer = router;
          se.producer_port = port;
        }
      }
      e.producer = router;
      e.producer_port = port;
      kept_edges.push_back(e);
      continue;
    }
    if (e.slice_index == slice_index + 1) {
      // Right edge: retire (its stream is covered by the router all-port).
      SLICE_CHECK(e.merge != nullptr);  // right consumers always have unions
      SLICE_CHECK(e.queue != nullptr);
      SLICE_CHECK(e.queue->empty());
      right.join->DetachOutput(e.producer_port, e.queue);
      plan->RetireQueue(e.queue);
      e.merge->CloseInputWhileRunning(e.merge_port);
      continue;
    }
    if (e.slice_index > slice_index + 1) --e.slice_index;
    kept_edges.push_back(e);
  }
  built_->result_edges = std::move(kept_edges);

  // 5: retire the drained connector queue and remove the old operators.
  plan->RetireQueue(left.next_queue);
  plan->RemoveOperatorWhileRunning(left.join);
  plan->RemoveOperatorWhileRunning(right.join);

  BuiltSlice merged_slice;
  merged_slice.join = merged;
  merged_slice.next_queue = right.next_queue;
  merged_slice.result_producer = router;
  merged_slice.full_port = all_port;
  built_->slices[slice_index] = merged_slice;
  built_->slices.erase(built_->slices.begin() + slice_index + 1);
  SyncChainMetadata();
  return slice_index;
}

int ChainMigrator::AddQuery(WindowSpec window, const std::string& name,
                            TimePoint results_from) {
  CheckQuiescent();
  // Quiescent plan + single-caller Engine contract (see SplitSlice).
  built_->plan->AssertSurgeryExclusive();
  SLICE_CHECK(window.kind == WindowKind::kTime);
  SLICE_CHECK_LT(built_->queries.size(), static_cast<size_t>(kMaxQueries));
  QueryPlan* plan = built_->plan.get();

  // Locate the slice prefix covering [0, window.extent); split if the
  // boundary is interior to a slice.
  int prefix_end = -1;  // index of last covering slice
  for (size_t s = 0; s < built_->slices.size(); ++s) {
    const SliceRange r = built_->slices[s].join->range();
    if (window.extent == r.end) {
      prefix_end = static_cast<int>(s);
      break;
    }
    if (window.extent > r.start && window.extent < r.end) {
      SplitSlice(static_cast<int>(s), window.extent);
      prefix_end = static_cast<int>(s);
      break;
    }
  }
  SLICE_CHECK_GE(prefix_end, 0);  // window must not exceed the chain span

  const int qid = static_cast<int>(built_->queries.size());
  ContinuousQuery query;
  query.id = qid;
  query.name = name;
  query.window = window;
  built_->queries.push_back(query);
  built_->sinks.push_back(nullptr);
  built_->collectors.push_back(nullptr);
  built_->sink_edges.push_back({});
  built_->merges.push_back(nullptr);
  built_->result_gates.push_back(nullptr);

  // Register the query in the chain spec (its boundary exists after the
  // split above).
  ChainSpec& spec = built_->chain.spec;
  const int bidx = BoundaryIndexOf(spec.boundaries, window.extent);
  SLICE_CHECK_GE(bidx, 0);
  spec.query_boundary.push_back(bidx);
  spec.queries_at_boundary[bidx].push_back(qid);

  // Terminal sinks.
  auto* counting = plan->InsertOperatorWhileRunning(
      std::make_unique<CountingSink>(name + ".sink"));
  built_->sinks[qid] = counting;
  CollectingSink* collecting = nullptr;
  if (built_->options.collect_results) {
    collecting = plan->InsertOperatorWhileRunning(
        std::make_unique<CollectingSink>(name + ".collect"));
    built_->collectors[qid] = collecting;
  }

  Operator* terminal;
  int terminal_port;
  if (prefix_end == 0) {
    terminal = built_->slices[0].result_producer;
    terminal_port = built_->slices[0].full_port;
    // Record the slice -> sinks edge so split/merge can re-route it.
    built_->result_edges.push_back(ResultEdge{qid, 0, terminal,
                                              terminal_port, nullptr,
                                              nullptr, 0});
  } else {
    auto* merge = plan->InsertOperatorWhileRunning(
        std::make_unique<UnionMerge>(name + ".union", prefix_end + 1));
    built_->merges[qid] = merge;
    for (int s = 0; s <= prefix_end; ++s) {
      EventQueue* eq = plan->ConnectWhileRunning(
          built_->slices[s].result_producer, built_->slices[s].full_port,
          merge, s);
      built_->result_edges.push_back(
          ResultEdge{qid, s, built_->slices[s].result_producer,
                     built_->slices[s].full_port, eq, merge, s});
    }
    terminal = merge;
    terminal_port = UnionMerge::kOutPort;
  }
  if (results_from > 0) {
    // Fresh-start semantics: suppress results joining pre-registration
    // state so the query delivers exactly the join over tuples with
    // timestamp >= results_from.
    terminal = InstallFreshStartGate(qid, results_from, terminal,
                                     terminal_port);
    terminal_port = ResultTimeGate::kOutPort;
  }
  EventQueue* cq =
      plan->ConnectWhileRunning(terminal, terminal_port, counting, 0);
  built_->sink_edges[qid].push_back(
      SinkEdge{terminal, terminal_port, cq, counting});
  if (collecting != nullptr) {
    EventQueue* xq =
        plan->ConnectWhileRunning(terminal, terminal_port, collecting, 0);
    built_->sink_edges[qid].push_back(
        SinkEdge{terminal, terminal_port, xq, collecting});
  }
  return qid;
}

ResultTimeGate* ChainMigrator::InstallFreshStartGate(int query_id,
                                                     TimePoint cutoff,
                                                     Operator* terminal,
                                                     int terminal_port) {
  CheckQuiescent();
  QueryPlan* plan = built_->plan.get();
  // Quiescent plan + single-caller Engine contract (see SplitSlice).
  plan->AssertSurgeryExclusive();
  SLICE_CHECK(built_->result_gates[query_id] == nullptr);
  auto* gate = plan->InsertOperatorWhileRunning(
      std::make_unique<ResultTimeGate>(
          built_->queries[query_id].name + ".fresh", cutoff));
  built_->result_gates[query_id] = gate;
  EventQueue* gq = plan->ConnectWhileRunning(terminal, terminal_port, gate, 0);
  for (SinkEdge& edge : built_->sink_edges[query_id]) {
    plan->MoveQueueProducer(edge.queue, edge.producer, edge.producer_port,
                            gate, ResultTimeGate::kOutPort);
    edge.producer = gate;
    edge.producer_port = ResultTimeGate::kOutPort;
  }
  if (built_->merges[query_id] != nullptr) return gate;
  // A slice-direct query: the slice -> gate queue is the edge split/merge
  // re-route.
  for (ResultEdge& edge : built_->result_edges) {
    if (edge.query_id == query_id && edge.merge == nullptr &&
        edge.queue == nullptr) {
      edge.queue = gq;
      break;
    }
  }
  return gate;
}

void ChainMigrator::RemoveQuery(int query_id) {
  CheckQuiescent();
  // Quiescent plan + single-caller Engine contract (see SplitSlice).
  built_->plan->AssertSurgeryExclusive();
  SLICE_CHECK_GE(query_id, 0);
  SLICE_CHECK_LT(query_id, static_cast<int>(built_->queries.size()));
  SLICE_CHECK(built_->sinks[query_id] != nullptr);  // not already removed
  QueryPlan* plan = built_->plan.get();

  // Detach result edges feeding this query's union or gate (if any).
  std::vector<ResultEdge> kept;
  for (const ResultEdge& e : built_->result_edges) {
    if (e.query_id != query_id) {
      kept.push_back(e);
      continue;
    }
    if (e.queue != nullptr) {
      e.producer->DetachOutput(e.producer_port, e.queue);
      plan->RetireQueue(e.queue);
    }
  }
  built_->result_edges = std::move(kept);

  // Detach and remove the sinks (fed by the gate, the union, or a slice).
  for (const SinkEdge& se : built_->sink_edges[query_id]) {
    se.producer->DetachOutput(se.producer_port, se.queue);
    plan->RetireQueue(se.queue);
    plan->RemoveOperatorWhileRunning(se.sink);
  }
  built_->sink_edges[query_id].clear();
  Operator* gate = built_->result_gates[query_id];
  UnionMerge* merge = built_->merges[query_id];
  if (gate != nullptr && merge != nullptr) {
    // The union -> gate queue is recorded nowhere else; detach it here.
    EventQueue* gq = gate->input(0);
    SLICE_CHECK(gq != nullptr);
    merge->DetachOutput(UnionMerge::kOutPort, gq);
    plan->RetireQueue(gq);
  }
  if (gate != nullptr) {
    plan->RemoveOperatorWhileRunning(gate);
    built_->result_gates[query_id] = nullptr;
  }
  if (merge != nullptr) {
    plan->RemoveOperatorWhileRunning(merge);
    built_->merges[query_id] = nullptr;
  }
  built_->sinks[query_id] = nullptr;
  built_->collectors[query_id] = nullptr;

  // Deregister from the chain spec (the boundary itself stays; compact
  // with MergeSlices as Section 5.3 suggests).
  ChainSpec& spec = built_->chain.spec;
  if (query_id < static_cast<int>(spec.query_boundary.size())) {
    std::vector<int>& at = spec.queries_at_boundary[
        spec.query_boundary[query_id]];
    at.erase(std::remove(at.begin(), at.end(), query_id), at.end());
  }
  // The query entry stays (ids are stable); slices keep running and can be
  // compacted with MergeSlices, as Section 5.3 suggests.
}

void ValidateBuiltChain(const BuiltPlan& built, bool check_indexes) {
  SLICE_CHECK_EQ(built.num_levels, 1);  // invariants below are chain-shaped
  const ChainSpec& spec = built.chain.spec;
  const ChainPartition& partition = built.chain.partition;
  SLICE_CHECK(!built.slices.empty());
  SLICE_CHECK_EQ(partition.num_slices(),
                 static_cast<int>(built.slices.size()));
  for (size_t k = 1; k < spec.boundaries.size(); ++k) {
    SLICE_CHECK_LT(spec.boundaries[k - 1], spec.boundaries[k]);
  }
  SLICE_CHECK_EQ(spec.queries_at_boundary.size(), spec.boundaries.size());

  int64_t prev_end = 0;
  int prev_end_index = -1;
  for (size_t s = 0; s < built.slices.size(); ++s) {
    const BuiltSlice& slice = built.slices[s];
    const SliceRange r = slice.join->range();
    // Slices tile [0, w_max) contiguously.
    SLICE_CHECK_EQ(r.start, prev_end);
    SLICE_CHECK_LT(r.start, r.end);
    // Boundary indices agree with the live range.
    SLICE_CHECK_EQ(slice.start_boundary, prev_end_index);
    SLICE_CHECK_GE(slice.end_boundary, 0);
    SLICE_CHECK_LT(slice.end_boundary,
                   static_cast<int>(spec.boundaries.size()));
    SLICE_CHECK_EQ(spec.boundaries[slice.end_boundary], r.end);
    if (slice.start_boundary >= 0) {
      SLICE_CHECK_EQ(spec.boundaries[slice.start_boundary], r.start);
    }
    // The partition mirrors the slice ends.
    SLICE_CHECK_EQ(partition.slice_end_boundaries[s], slice.end_boundary);
    // The per-key probe indexes (when enabled) exactly cover the live
    // state: split/merge/set_window surgery must leave them spliced or
    // rebuilt correctly. O(state) — opt-in (tests), not the Engine path.
    if (check_indexes) {
      slice.join->state_a().CheckIndexConsistency();
      slice.join->state_b().CheckIndexConsistency();
      slice.join->composite_state().CheckIndexConsistency();
    }
    prev_end = r.end;
    prev_end_index = slice.end_boundary;
  }

  // Every live query is registered at the boundary its window names, and
  // that boundary is covered by the chain.
  SLICE_CHECK_EQ(spec.query_boundary.size(), built.queries.size());
  for (size_t qid = 0; qid < built.queries.size(); ++qid) {
    if (qid < built.sinks.size() && built.sinks[qid] == nullptr) {
      continue;  // unregistered
    }
    const int k = spec.query_boundary[qid];
    SLICE_CHECK_GE(k, 0);
    SLICE_CHECK_LT(k, static_cast<int>(spec.boundaries.size()));
    SLICE_CHECK_EQ(spec.boundaries[k], built.queries[qid].window.extent);
    const std::vector<int>& at = spec.queries_at_boundary[k];
    SLICE_CHECK(std::find(at.begin(), at.end(), static_cast<int>(qid)) !=
                at.end());
  }
}

}  // namespace stateslice
