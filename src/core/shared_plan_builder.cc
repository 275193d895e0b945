#include "src/core/shared_plan_builder.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/core/selection_pushdown.h"
#include "src/operators/multiway.h"
#include "src/operators/router.h"
#include "src/operators/selection.h"
#include "src/operators/sliding_window_join.h"
#include "src/operators/split.h"

namespace stateslice {
namespace {

BuiltPlan NewBuiltPlan(const std::vector<ContinuousQuery>& queries,
                       const BuildOptions& options) {
  BuiltPlan built;
  built.plan = std::make_unique<QueryPlan>();
  built.queries = queries;
  built.options = options;
  built.outputs.assign(queries.size(), {});
  built.merges.assign(queries.size(), nullptr);
  return built;
}

}  // namespace

// --------------------------------------------------------------- unshared

BuiltPlan BuildUnsharedPlans(const std::vector<ContinuousQuery>& queries,
                             const BuildOptions& options) {
  ValidateQueries(queries);
  SLICE_CHECK_EQ(MaxStreams(queries), 2);
  BuiltPlan built = NewBuiltPlan(queries, options);
  QueryPlan* plan = built.plan.get();

  auto* fanout = plan->AddOperator(std::make_unique<Fanout>("fanout"));
  built.entry = plan->AddEntryQueue("entry", fanout, 0);

  for (const ContinuousQuery& q : queries) {
    Operator* upstream = fanout;
    int upstream_port = Fanout::kOutPort;
    if (!q.selection_a.IsTrue()) {
      auto* sel = plan->AddOperator(std::make_unique<Selection>(
          q.name + ".sigmaA", q.selection_a, StreamSide::kA));
      plan->Connect(upstream, upstream_port, sel, 0);
      upstream = sel;
      upstream_port = Selection::kOutPort;
    }
    if (!q.selection_b.IsTrue()) {
      auto* sel = plan->AddOperator(std::make_unique<Selection>(
          q.name + ".sigmaB", q.selection_b, StreamSide::kB));
      plan->Connect(upstream, upstream_port, sel, 0);
      upstream = sel;
      upstream_port = Selection::kOutPort;
    }
    SlidingWindowJoin::Options jopt;
    jopt.condition = options.condition;
    jopt.use_key_index = options.use_key_index;
    auto* join = plan->AddOperator(std::make_unique<SlidingWindowJoin>(
        q.name + ".join", q.window, q.window, jopt));
    plan->Connect(upstream, upstream_port, join, 0);
    built.outputs[q.id] = {join, SlidingWindowJoin::kResultPort};
  }
  plan->Start();
  return built;
}

// ---------------------------------------------------------------- pull-up

BuiltPlan BuildPullUpPlan(const std::vector<ContinuousQuery>& queries,
                          const BuildOptions& options) {
  ValidateQueries(queries);
  SLICE_CHECK_EQ(MaxStreams(queries), 2);
  BuiltPlan built = NewBuiltPlan(queries, options);
  QueryPlan* plan = built.plan.get();
  const ChainSpec spec = BuildChainSpec(queries);
  const int last = spec.num_boundaries() - 1;

  // One join at the largest window; no early filtering (selection pull-up).
  SlidingWindowJoin::Options jopt;
  jopt.condition = options.condition;
  jopt.use_key_index = options.use_key_index;
  auto* join = plan->AddOperator(std::make_unique<SlidingWindowJoin>(
      "join.pullup", WindowSpec{spec.kind, spec.boundaries[last]},
      WindowSpec{spec.kind, spec.boundaries[last]}, jopt));
  built.entry = plan->AddEntryQueue("entry", join, 0);

  // Router: one profile-table branch per query below the largest window;
  // queries at the largest window ride the unconditional "all" edge
  // (Fig. 3). Port numbering: branch ports 0..k-1, all-port k.
  std::vector<Router::Branch> branches;
  std::vector<int> branch_query;  // branch index -> query id
  std::vector<int> all_queries;
  for (const ContinuousQuery& q : queries) {
    if (spec.query_boundary[q.id] == last) {
      all_queries.push_back(q.id);
    } else {
      branches.push_back(Router::Branch{
          .max_distance = q.window.extent,
          .port = static_cast<int>(branches.size()),
      });
      branch_query.push_back(q.id);
    }
  }
  const int all_port = static_cast<int>(branches.size());
  auto* router = plan->AddOperator(
      std::make_unique<Router>("router", branches, all_port));
  plan->Connect(join, SlidingWindowJoin::kResultPort, router, 0);

  auto wire_query = [&](const ContinuousQuery& q, int router_port) {
    Operator* upstream = router;
    int upstream_port = router_port;
    if (!q.selection_a.IsTrue()) {
      auto* gate = plan->AddOperator(std::make_unique<ResultGate>(
          q.name + ".gateA", q.selection_a, StreamSide::kA));
      plan->Connect(upstream, upstream_port, gate, 0);
      upstream = gate;
      upstream_port = ResultGate::kOutPort;
    }
    if (!q.selection_b.IsTrue()) {
      auto* gate = plan->AddOperator(std::make_unique<ResultGate>(
          q.name + ".gateB", q.selection_b, StreamSide::kB));
      plan->Connect(upstream, upstream_port, gate, 0);
      upstream = gate;
      upstream_port = ResultGate::kOutPort;
    }
    built.outputs[q.id] = {upstream, upstream_port};
  };
  for (size_t b = 0; b < branch_query.size(); ++b) {
    wire_query(queries[branch_query[b]], static_cast<int>(b));
  }
  for (int q : all_queries) {
    wire_query(queries[q], all_port);
  }
  plan->Start();
  return built;
}

// --------------------------------------------------------------- push-down

BuiltPlan BuildPushDownPlan(const std::vector<ContinuousQuery>& queries,
                            const BuildOptions& options) {
  ValidateQueries(queries);
  SLICE_CHECK_EQ(MaxStreams(queries), 2);
  BuiltPlan built = NewBuiltPlan(queries, options);
  QueryPlan* plan = built.plan.get();

  // Partition queries into selection-free (F) and filtered (S). All
  // filtered queries must share one predicate — the paper's experimental
  // setting for this strategy (heterogeneous predicates would need m*n
  // partitioned joins, which Section 3.2 argues against).
  std::vector<int> plain, filtered;
  for (const ContinuousQuery& q : queries) {
    SLICE_CHECK(q.selection_b.IsTrue());  // strategy models σ on A only
    if (q.selection_a.IsTrue()) {
      plain.push_back(q.id);
    } else {
      filtered.push_back(q.id);
    }
  }
  for (size_t i = 1; i < filtered.size(); ++i) {
    SLICE_CHECK(queries[filtered[i]].selection_a.description() ==
                queries[filtered[0]].selection_a.description());
  }

  if (filtered.empty() || plain.empty()) {
    // Degenerate partitions: a single join suffices. With no selections
    // this equals pull-up; with only filtered queries, push the shared σ
    // below one shared join.
    BuiltPlan single = BuildPullUpPlan(queries, options);
    if (!filtered.empty() && plain.empty()) {
      // Prepend the shared selection by rebuilding with a filter entry.
      // (Cheap construction path; plans are built once per run.)
      BuiltPlan redo = NewBuiltPlan(queries, options);
      QueryPlan* p2 = redo.plan.get();
      auto* sel = p2->AddOperator(std::make_unique<Selection>(
          "sigmaA.shared", queries[filtered[0]].selection_a, StreamSide::kA));
      redo.entry = p2->AddEntryQueue("entry", sel, 0);
      // Strip selections: inputs are pre-filtered.
      std::vector<ContinuousQuery> stripped = queries;
      for (ContinuousQuery& q : stripped) q.selection_a = Predicate();
      const ChainSpec spec = BuildChainSpec(stripped);
      const int last = spec.num_boundaries() - 1;
      SlidingWindowJoin::Options jopt;
      jopt.condition = options.condition;
      jopt.use_key_index = options.use_key_index;
      auto* join = p2->AddOperator(std::make_unique<SlidingWindowJoin>(
          "join.filtered", WindowSpec{spec.kind, spec.boundaries[last]},
          WindowSpec{spec.kind, spec.boundaries[last]}, jopt));
      p2->Connect(sel, Selection::kOutPort, join, 0);
      std::vector<Router::Branch> branches;
      std::vector<int> branch_query;
      std::vector<int> all_queries;
      for (const ContinuousQuery& q : stripped) {
        if (spec.query_boundary[q.id] == last) {
          all_queries.push_back(q.id);
        } else {
          branches.push_back(Router::Branch{
              q.window.extent, static_cast<int>(branches.size())});
          branch_query.push_back(q.id);
        }
      }
      const int all_port = static_cast<int>(branches.size());
      auto* router = p2->AddOperator(
          std::make_unique<Router>("router", branches, all_port));
      p2->Connect(join, SlidingWindowJoin::kResultPort, router, 0);
      for (size_t b = 0; b < branch_query.size(); ++b) {
        redo.outputs[branch_query[b]] = {router, static_cast<int>(b)};
      }
      for (int q : all_queries) {
        redo.outputs[q] = {router, all_port};
      }
      p2->Start();
      return redo;
    }
    return single;
  }

  const Predicate sigma = queries[filtered[0]].selection_a;
  int64_t w_plain = 0;   // largest window among selection-free queries
  int64_t w_all = 0;     // largest window overall
  for (int q : plain) w_plain = std::max(w_plain, queries[q].window.extent);
  for (const ContinuousQuery& q : queries) {
    w_all = std::max(w_all, q.window.extent);
  }
  const WindowKind kind = queries[0].window.kind;

  // Split stream A on σ; B broadcasts to both partitions (Fig. 4).
  auto* split = plan->AddOperator(
      std::make_unique<Split>("split.sigmaA", sigma, StreamSide::kA));
  built.entry = plan->AddEntryQueue("entry", split, 0);

  SlidingWindowJoin::Options jopt;
  jopt.condition = options.condition;
  jopt.use_key_index = options.use_key_index;
  jopt.punctuate_results = true;  // unions downstream need watermarks

  // join_false serves only the selection-free queries' σ-false tuples.
  auto* join_false = plan->AddOperator(std::make_unique<SlidingWindowJoin>(
      "join.sigma_false", WindowSpec{kind, w_plain},
      WindowSpec{kind, w_plain}, jopt));
  plan->Connect(split, Split::kRestPort, join_false, 0);

  // join_true serves everything that passed σ, at the overall max window.
  auto* join_true = plan->AddOperator(std::make_unique<SlidingWindowJoin>(
      "join.sigma_true", WindowSpec{kind, w_all}, WindowSpec{kind, w_all},
      jopt));
  plan->Connect(split, Split::kMatchPort, join_true, 0);

  // Router over join_true's results: one branch per query below w_all, an
  // "all" edge for queries at w_all.
  std::vector<Router::Branch> branches;
  std::vector<int> branch_query;
  std::vector<int> all_queries;
  for (const ContinuousQuery& q : queries) {
    if (q.window.extent == w_all) {
      all_queries.push_back(q.id);
    } else {
      branches.push_back(Router::Branch{q.window.extent,
                                        static_cast<int>(branches.size())});
      branch_query.push_back(q.id);
    }
  }
  const int all_port = static_cast<int>(branches.size());
  auto* router_true = plan->AddOperator(
      std::make_unique<Router>("router.sigma_true", branches, all_port));
  plan->Connect(join_true, SlidingWindowJoin::kResultPort, router_true, 0);

  // Router over join_false's results for the selection-free queries.
  std::vector<Router::Branch> branches_f;
  std::vector<int> branch_query_f;
  std::vector<int> all_queries_f;
  for (int qid : plain) {
    const ContinuousQuery& q = queries[qid];
    if (q.window.extent == w_plain) {
      all_queries_f.push_back(qid);
    } else {
      branches_f.push_back(Router::Branch{
          q.window.extent, static_cast<int>(branches_f.size())});
      branch_query_f.push_back(qid);
    }
  }
  const int all_port_f = static_cast<int>(branches_f.size());
  auto* router_false = plan->AddOperator(std::make_unique<Router>(
      "router.sigma_false", branches_f, all_port_f));
  plan->Connect(join_false, SlidingWindowJoin::kResultPort, router_false, 0);

  auto true_port_of = [&](int qid) {
    for (size_t b = 0; b < branch_query.size(); ++b) {
      if (branch_query[b] == qid) return static_cast<int>(b);
    }
    return all_port;
  };
  auto false_port_of = [&](int qid) {
    for (size_t b = 0; b < branch_query_f.size(); ++b) {
      if (branch_query_f[b] == qid) return static_cast<int>(b);
    }
    return all_port_f;
  };

  // Filtered queries read join_true only; selection-free queries merge both
  // partitions through an order-preserving union.
  for (int qid : filtered) {
    built.outputs[qid] = {router_true, true_port_of(qid)};
  }
  for (int qid : plain) {
    auto* merge = plan->AddOperator(std::make_unique<UnionMerge>(
        queries[qid].name + ".union", /*input_count=*/2));
    plan->Connect(router_false, false_port_of(qid), merge, 0);
    plan->Connect(router_true, true_port_of(qid), merge, 1);
    built.merges[qid] = merge;
    built.outputs[qid] = {merge, UnionMerge::kOutPort};
  }
  plan->Start();
  return built;
}

// ------------------------------------------------------------- state-slice

namespace {

// Wiring handed back by one chain level: the producer/port of the
// pass-through composite stream feeding the next level's input merge
// (null at the tree's last level, which has no pass-through).
struct LevelWiring {
  Operator* pass_producer = nullptr;
  int pass_port = 0;
};

// Builds one sliced-chain level of the (possibly one-level) join tree into
// `built`. `local` is the level's query set with dense local ids
// (`global_ids` maps them to workload ids; `pseudo` is the local id of the
// pass-through consumer, -1 when absent), `chain` its chain plan,
// `upstream` the level's input (nullptr = the plan entry queue), `prefix`
// the operator-name prefix ("" keeps the historical binary names), and
// `gate_floor` the largest pass-through window among earlier levels —
// terminal queries with a smaller window gate their outputs with a
// WindowGate because earlier levels produced composites wider than their
// window.
LevelWiring BuildChainLevel(QueryPlan* plan, BuiltPlan* built,
                            const std::vector<ContinuousQuery>& local,
                            const std::vector<int>& global_ids, int pseudo,
                            const ChainPlan& chain,
                            const BuildOptions& options,
                            const std::string& prefix, int level, int anchor,
                            Operator* level_upstream, int level_upstream_port,
                            int64_t gate_floor) {
  ValidatePartition(chain.spec, chain.partition);
  LevelWiring wiring;
  const ChainSpec& spec = chain.spec;
  const ChainPartition& partition = chain.partition;
  const int num_slices = partition.num_slices();
  // Levels >= 1 join the previous level's composites against stream
  // level+1; level 0 is the plain binary chain over streams 0 and 1.
  const bool composite = level > 0;

  // ---- the chain spine: [stamper] -> [filter_1] -> J_1 -> [filter_2] ->
  // J_2 -> ... (filters are the σ'_i disjunctions of Fig. 15; composite
  // levels have no input filters — their selections are gated at the
  // result side, and the pass-through consumer keeps every input anyway).
  Operator* spine_tail = nullptr;  // last operator on the spine so far
  int spine_port = 0;

  std::vector<Predicate> query_preds;
  for (const ContinuousQuery& q : local) {
    query_preds.push_back(q.selection_a);
    if (!composite) {
      SLICE_CHECK(q.selection_b.IsTrue());  // σ on A; B-side is an extension
    }
  }

  if (options.use_lineage && !composite) {
    auto* stamper = plan->AddOperator(std::make_unique<LineageStamper>(
        "lineage.stamper", query_preds, StreamSide::kA));
    built->entry = plan->AddEntryQueue("entry", stamper, 0);
    spine_tail = stamper;
    spine_port = LineageStamper::kOutPort;
  }

  std::vector<BuiltSlice> slices;
  // Feeds `op` from the spine (or the level input / plan entry when the
  // spine is still empty), recording the previous slice's next-queue.
  auto attach_to_spine = [&](Operator* op) {
    if (spine_tail == nullptr) {
      if (level_upstream == nullptr) {
        built->entry = plan->AddEntryQueue("entry", op, 0);
      } else {
        plan->Connect(level_upstream, level_upstream_port, op, 0);
      }
    } else {
      EventQueue* q = plan->Connect(spine_tail, spine_port, op, 0);
      if (!slices.empty() && slices.back().next_queue == nullptr) {
        slices.back().next_queue = q;
      }
    }
  };

  for (int s = 0; s < num_slices; ++s) {
    const int lo = partition.SliceStartBoundary(s);
    const int hi = partition.slice_end_boundaries[s];
    // σ'_{lo+1}: the disjunction over queries with boundary > lo.
    Operator* filter = nullptr;
    if (!composite) {
      const Predicate disjunction =
          SliceInputPredicate(local, spec, /*first_boundary=*/lo + 1);
      if (options.use_lineage) {
        const uint64_t mask = LineageMaskAtOrBeyond(spec, lo + 1);
        // The stamper already dropped tuples matching no query, so the
        // first filter is redundant in lineage mode.
        if (s > 0 && !disjunction.IsTrue()) {
          filter = plan->AddOperator(std::make_unique<LineageFilter>(
              prefix + "filter.s" + std::to_string(s), mask, StreamSide::kA));
        }
      } else if (!disjunction.IsTrue()) {
        filter = plan->AddOperator(std::make_unique<Selection>(
            prefix + "filter.s" + std::to_string(s), disjunction,
            StreamSide::kA));
      }
    }
    if (filter != nullptr) {
      attach_to_spine(filter);
      spine_tail = filter;
      spine_port = 0;
    }

    SlicedWindowJoin::Options sopt;
    sopt.condition = options.condition;
    sopt.use_key_index = options.use_key_index;
    sopt.punctuate_results = true;
    if (composite) {
      sopt.composite_left = true;
      sopt.right_stream = level + 1;
      sopt.anchor = anchor;
      sopt.left_arity = level + 1;
    }
    const SliceRange range{spec.kind, lo < 0 ? 0 : spec.boundaries[lo],
                           spec.boundaries[hi]};
    auto* join = plan->AddOperator(std::make_unique<SlicedWindowJoin>(
        prefix + "slice." + std::to_string(s), range, sopt));
    attach_to_spine(join);
    spine_tail = join;
    spine_port = SlicedWindowJoin::kNextPort;
    slices.push_back(BuiltSlice{join, lo, hi, nullptr});
  }

  // ---- result side: per query, collect edges from every slice it reads.
  // edge_count[q] = slices fully covered + (1 if q's boundary is interior
  // to some merged slice).
  std::vector<int> edge_count(local.size(), 0);
  for (const ContinuousQuery& q : local) {
    const int k = spec.query_boundary[q.id];
    for (int s = 0; s < num_slices; ++s) {
      const int hi = partition.slice_end_boundaries[s];
      if (hi <= k) ++edge_count[q.id];
      const int lo = partition.SliceStartBoundary(s);
      if (k > lo && k < hi) ++edge_count[q.id];  // interior: router branch
    }
  }

  // Pre-create merges (or mark direct-wired queries). The pass-through's
  // merge is level-local (the next level consumes it); terminal queries
  // register theirs in the BuiltPlan under their workload id.
  UnionMerge* pass_merge = nullptr;
  std::vector<int> next_port(local.size(), 0);
  for (const ContinuousQuery& q : local) {
    SLICE_CHECK_GT(edge_count[q.id], 0);
    if (edge_count[q.id] <= 1) continue;
    if (q.id == pseudo) {
      pass_merge = plan->AddOperator(std::make_unique<UnionMerge>(
          prefix + "pass.union", edge_count[q.id]));
      wiring.pass_producer = pass_merge;
      wiring.pass_port = UnionMerge::kOutPort;
    } else {
      const int gid = global_ids[q.id];
      auto* merge = plan->AddOperator(std::make_unique<UnionMerge>(
          q.name + ".union", edge_count[q.id]));
      built->merges[gid] = merge;
      built->outputs[gid] = {merge, UnionMerge::kOutPort};
    }
  }

  // Wires one result edge from `producer` to local query `local_id`,
  // inserting gates as needed; terminates at the query's union, as the
  // query's output, or — for the pass-through — at the next level's feed.
  auto wire_result_edge = [&](Operator* producer, int port, int local_id,
                              bool needs_gate, int slice_index) {
    Operator* upstream = producer;
    int upstream_port = port;
    if (local_id == pseudo) {
      // The pass-through never gates: the next level consumes the widest
      // composite stream and each deeper query gates its own output.
      if (pass_merge != nullptr) {
        const int p = next_port[local_id]++;
        plan->Connect(upstream, upstream_port, pass_merge, p);
      } else {
        wiring.pass_producer = upstream;
        wiring.pass_port = upstream_port;
      }
      return;
    }
    const int gid = global_ids[local_id];
    const ContinuousQuery& gq = built->queries[gid];
    if (!composite) {
      // Binary level: selection push-down left exactly σ'_A to re-check
      // (Fig. 10); NeedsResultGate decided it against the slice's input
      // filter.
      if (needs_gate) {
        auto* gate = plan->AddOperator(std::make_unique<ResultGate>(
            gq.name + ".gate.s" + std::to_string(slice_index),
            gq.selection_a, StreamSide::kA));
        plan->Connect(upstream, upstream_port, gate, 0);
        upstream = gate;
        upstream_port = ResultGate::kOutPort;
      }
    } else {
      // Composite level: earlier levels produced composites up to the
      // pass-through window, so a narrower query re-checks the prefix
      // window; selections on any stream were never pushed down and gate
      // here.
      if (gq.window.extent < gate_floor) {
        auto* gate = plan->AddOperator(std::make_unique<WindowGate>(
            gq.name + ".wgate.s" + std::to_string(slice_index),
            gq.window.extent));
        plan->Connect(upstream, upstream_port, gate, 0);
        upstream = gate;
        upstream_port = WindowGate::kOutPort;
      }
      for (int v = 0; v < gq.num_streams(); ++v) {
        if (gq.selection(v).IsTrue()) continue;
        auto* gate = plan->AddOperator(std::make_unique<ResultGate>(
            gq.name + ".gate.s" + std::to_string(slice_index) + ".v" +
                std::to_string(v),
            gq.selection(v), v));
        plan->Connect(upstream, upstream_port, gate, 0);
        upstream = gate;
        upstream_port = ResultGate::kOutPort;
      }
    }
    if (built->merges[gid] != nullptr) {
      const int p = next_port[local_id]++;
      EventQueue* eq =
          plan->Connect(upstream, upstream_port, built->merges[gid], p);
      built->result_edges.push_back(ResultEdge{gid, slice_index, upstream,
                                               upstream_port, eq,
                                               built->merges[gid], p});
    } else {
      built->outputs[gid] = {upstream, upstream_port};
      built->result_edges.push_back(
          ResultEdge{gid, slice_index, upstream, upstream_port});
    }
  };

  for (int s = 0; s < num_slices; ++s) {
    const int lo = slices[s].start_boundary;
    const int hi = slices[s].end_boundary;
    // Queries whose boundary is interior to this (merged) slice: they need
    // a router over the slice's results (Fig. 13(b)).
    std::vector<int> interior;
    for (const ContinuousQuery& q : local) {
      const int k = spec.query_boundary[q.id];
      if (k > lo && k < hi) interior.push_back(q.id);
    }
    // All queries reading the full result stream of this slice.
    const std::vector<int> full = SliceConsumers(spec, hi);
    // Every query whose tuples feed this slice (for gate decisions).
    std::vector<int> input_consumers = interior;
    input_consumers.insert(input_consumers.end(), full.begin(), full.end());

    Operator* result_producer = slices[s].join;
    int all_port_for_full = SlicedWindowJoin::kResultPort;
    if (!interior.empty()) {
      std::vector<Router::Branch> branches;
      for (size_t b = 0; b < interior.size(); ++b) {
        branches.push_back(Router::Branch{
            local[interior[b]].window.extent, static_cast<int>(b)});
      }
      const int all_port = static_cast<int>(branches.size());
      auto* router = plan->AddOperator(std::make_unique<Router>(
          prefix + "router.s" + std::to_string(s), branches, all_port));
      plan->Connect(slices[s].join, SlicedWindowJoin::kResultPort, router, 0);
      for (size_t b = 0; b < interior.size(); ++b) {
        const int local_id = interior[b];
        wire_result_edge(router, static_cast<int>(b), local_id,
                         NeedsResultGate(local, input_consumers, local_id),
                         s);
      }
      result_producer = router;
      all_port_for_full = all_port;
    }
    slices[s].result_producer = result_producer;
    slices[s].full_port = all_port_for_full;
    for (int qid : full) {
      wire_result_edge(result_producer, all_port_for_full, qid,
                       NeedsResultGate(local, input_consumers, qid), s);
    }
  }

  for (const BuiltSlice& slice : slices) {
    built->slices.push_back(slice);
    built->slice_level.push_back(level);
  }
  return wiring;
}

}  // namespace

BuiltPlan BuildStateSlicePlan(const std::vector<ContinuousQuery>& queries,
                              const ChainPlan& chain,
                              const BuildOptions& options) {
  SLICE_CHECK_EQ(MaxStreams(queries), 2);
  JoinTreePlan tree;
  tree.levels.push_back(chain);
  return BuildStateSlicePlan(queries, tree, options);
}

BuiltPlan BuildStateSlicePlan(const std::vector<ContinuousQuery>& queries,
                              const JoinTreePlan& tree,
                              const BuildOptions& options) {
  ValidateQueries(queries);
  const std::vector<TreeLevelQueries> levels = TreeLevels(queries);
  SLICE_CHECK_EQ(static_cast<size_t>(tree.num_levels()), levels.size());
  BuiltPlan built = NewBuiltPlan(queries, options);
  built.num_levels = tree.num_levels();
  built.chain = tree.levels[0];
  QueryPlan* plan = built.plan.get();

  if (levels.size() == 1) {
    // Binary workload: exactly the historical single-chain plan.
    BuildChainLevel(plan, &built, levels[0].local, levels[0].global_ids,
                    levels[0].pseudo, tree.levels[0], options, "",
                    /*level=*/0, /*anchor=*/0, /*level_upstream=*/nullptr,
                    /*level_upstream_port=*/0, /*gate_floor=*/0);
    plan->Start();
    return built;
  }

  // Lineage masks index chain-local query ids and are only wired through
  // the binary chain spine; the tree keeps them off.
  SLICE_CHECK(!options.use_lineage);
  const int num_streams = static_cast<int>(levels.size()) + 1;
  auto* dispatch = plan->AddOperator(
      std::make_unique<StreamDispatch>("dispatch", num_streams));
  built.entry = plan->AddEntryQueue("entry", dispatch, 0);

  // anchor(l) is identical across queries deep enough to define it
  // (ValidateQueries' prefix compatibility).
  auto anchor_of = [&queries](int level) {
    for (const ContinuousQuery& q : queries) {
      if (q.num_streams() >= level + 2) return q.anchor(level);
    }
    SLICE_CHECK(false);
    return 0;
  };

  Operator* upstream = dispatch;
  int upstream_port = 0;
  LevelWiring prev;
  int64_t gate_floor = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    if (l > 0) {
      // The level's input: the previous level's composite stream merged
      // with stream l+1's tuples in timestamp order (both sides carry
      // punctuations — per-male from the chains, per-arrival from the
      // dispatch — so the merge never stalls).
      SLICE_CHECK(prev.pass_producer != nullptr);
      auto* in = plan->AddOperator(std::make_unique<UnionMerge>(
          "l" + std::to_string(l) + ".in", /*input_count=*/2));
      plan->Connect(prev.pass_producer, prev.pass_port, in, 0);
      plan->Connect(dispatch, static_cast<int>(l), in, 1);
      upstream = in;
      upstream_port = UnionMerge::kOutPort;
    }
    prev = BuildChainLevel(plan, &built, levels[l].local,
                           levels[l].global_ids, levels[l].pseudo,
                           tree.levels[l], options,
                           "l" + std::to_string(l) + ".",
                           static_cast<int>(l), anchor_of(static_cast<int>(l)),
                           upstream, upstream_port, gate_floor);
    gate_floor = std::max(gate_floor, levels[l].pass_window);
  }
  plan->Start();
  return built;
}

void AttachQuerySinks(BuiltPlan* built) {
  SLICE_CHECK(built->sinks.empty());
  QueryPlan* plan = built->plan.get();
  built->sinks.assign(built->queries.size(), nullptr);
  for (const ContinuousQuery& q : built->queries) {
    const QueryOutput& out = built->outputs[q.id];
    // QuerySink has no Start() hook, so wiring it into the started plan
    // before the first event is the same as wiring it before Start().
    auto* sink = plan->AddOperator(std::make_unique<QuerySink>(
        q.name + ".sink", built->options.collect_results));
    EventQueue* queue = plan->Connect(out.producer, out.port, sink, 0);
    built->sinks[q.id] = sink;
    for (ResultEdge& edge : built->result_edges) {
      if (edge.query_id == q.id && edge.merge == nullptr) edge.queue = queue;
    }
  }
}

}  // namespace stateslice
