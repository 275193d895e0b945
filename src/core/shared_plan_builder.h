// Shared-plan builders: executable operator DAGs for every sharing strategy
// the paper evaluates.
//
//  - BuildUnsharedPlans:   no sharing, one join per query (sanity baseline);
//  - BuildPullUpPlan:      naive sharing with selection pull-up
//                          (Section 3.1, Fig. 3);
//  - BuildPushDownPlan:    stream partition with selection push-down
//                          (Section 3.2, Fig. 4);
//  - BuildStateSlicePlan:  the paper's contribution — a chain of sliced
//                          joins per a Mem-Opt or CPU-Opt ChainPlan with
//                          selections pushed into the chain
//                          (Sections 4-6, Figs. 10/12/13/15).
//
// All plans expose a single globally-ordered entry queue carrying both
// streams, one CountingSink per query, and optional CollectingSinks for
// equivalence tests.
#ifndef STATESLICE_CORE_SHARED_PLAN_BUILDER_H_
#define STATESLICE_CORE_SHARED_PLAN_BUILDER_H_

#include <memory>
#include <vector>

#include "src/core/chain_builder.h"
#include "src/operators/join_condition.h"
#include "src/operators/selection.h"
#include "src/operators/sliced_window_join.h"
#include "src/operators/union_merge.h"
#include "src/query/query.h"
#include "src/runtime/plan.h"
#include "src/runtime/sink.h"

namespace stateslice {

// Construction knobs shared by all builders.
struct BuildOptions {
  JoinCondition condition = JoinCondition::EquiKey();
  // Attach a CollectingSink per query (tests compare result multisets).
  bool collect_results = false;
  // State-slice only: stamp lineage bitmasks once at entry and filter
  // between slices by mask (Section 6.1) instead of re-evaluating the
  // disjunction predicates.
  bool use_lineage = false;
  // Maintain per-key hash indexes on the join states so kEquiKey probes
  // are O(matches) bucket lookups (join_state.h). Results and paper-unit
  // cost counters are identical either way; benches flip this off for the
  // nested-loop baseline arm.
  bool use_key_index = true;
};

// Metadata about one slice of a built state-slice chain, kept for online
// migration (Section 5.3) and for tests/traces.
struct BuiltSlice {
  SlicedWindowJoin* join = nullptr;
  int start_boundary = -1;  // boundary index before this slice (-1 = 0);
  int end_boundary = 0;     // boundary index where this slice ends.
                            // ChainMigrator keeps both indices (and the
                            // owning BuiltPlan's chain spec/partition) in
                            // sync with join->range() across migrations;
                            // ValidateBuiltChain() asserts the invariant.
  // Queue from this slice's kNextPort toward the next chain element
  // (filter or slice); nullptr at the chain tail.
  EventQueue* next_queue = nullptr;
  // Producer of this slice's *full* result stream: the join itself, or the
  // router's all-port for merged slices (Fig. 13(b)).
  Operator* result_producer = nullptr;
  int full_port = 0;
};

// One result edge from a slice (or its router/gate) to a query's merge
// input or sink fan-in.
struct ResultEdge {
  int query_id = 0;
  int slice_index = 0;
  Operator* producer = nullptr;  // slice join, router, or gate
  int producer_port = 0;
  EventQueue* queue = nullptr;  // null when terminating directly at sinks
  UnionMerge* merge = nullptr;  // null when the edge feeds sinks directly
  int merge_port = 0;
};

// One edge from a result producer into a terminal sink operator.
struct SinkEdge {
  Operator* producer = nullptr;
  int producer_port = 0;
  EventQueue* queue = nullptr;
  Operator* sink = nullptr;
};

// A fully wired, started executable plan.
struct BuiltPlan {
  std::unique_ptr<QueryPlan> plan;
  EventQueue* entry = nullptr;               // feed all streams here
  std::vector<CountingSink*> sinks;          // [query id]
  std::vector<CollectingSink*> collectors;   // [query id]; null w/o collect
  std::vector<std::vector<SinkEdge>> sink_edges;  // [query id]

  // State-slice metadata (empty for other strategies).
  // For an N-way tree, `chain` holds level 0's chain plan, `slices` holds
  // every level's slices in level-major order, and slice_level[i] is the
  // tree level of slices[i] (all zero for a binary chain). Online
  // migration (ChainMigrator) supports single-level plans only.
  int num_levels = 1;
  ChainPlan chain;
  std::vector<BuiltSlice> slices;
  std::vector<int> slice_level;              // parallel to `slices`
  std::vector<UnionMerge*> merges;           // [query id]; null if direct
  std::vector<ResultEdge> result_edges;
  // [query id] fresh-start ResultTimeGate in front of the query's sinks
  // (queries registered on a running chain; see ChainMigrator::AddQuery).
  // Null for queries wired at build time.
  std::vector<ResultTimeGate*> result_gates;

  // The queries the plan was built for (by value; migration updates it).
  std::vector<ContinuousQuery> queries;
  BuildOptions options;
};

// One join per query behind a fanout; the no-sharing baseline. Binary
// workloads only (an unshared N-way baseline is a per-query single-query
// state-slice tree).
BuiltPlan BuildUnsharedPlans(const std::vector<ContinuousQuery>& queries,
                             const BuildOptions& options = {});

// Selection pull-up (Fig. 3): one join at the largest window, a router
// dispatching by |Ta-Tb|, per-query σ gates after the router. Binary
// workloads only.
BuiltPlan BuildPullUpPlan(const std::vector<ContinuousQuery>& queries,
                          const BuildOptions& options = {});

// Stream partition with selection push-down (Fig. 4). Requires all
// filtered queries to share one predicate (the paper's experimental
// setting); CHECK-fails otherwise. Binary workloads only.
BuiltPlan BuildPushDownPlan(const std::vector<ContinuousQuery>& queries,
                            const BuildOptions& options = {});

// State-slice chain for the given ChainPlan (Mem-Opt or CPU-Opt).
// Binary workloads only — the single-level degenerate case of the tree
// overload below.
BuiltPlan BuildStateSlicePlan(const std::vector<ContinuousQuery>& queries,
                              const ChainPlan& chain,
                              const BuildOptions& options = {});

// State-slice join tree for a (possibly multi-way) workload: one sliced
// chain per tree level (see chain_spec.h TreeLevels). Level 0 is wired
// exactly like the binary chain — with selection push-down and, for
// multi-level trees, an extra unfiltered pass-through consumer whose
// result edges feed level 1 through an order-preserving input merge; a
// StreamDispatch at the entry routes each stream to the level that
// consumes it. Queries terminal at level >= 1 gate their outputs with a
// WindowGate (prefix-window semantics; see operators/multiway.h) and one
// ResultGate per filtered stream. `use_lineage` is binary-only
// (CHECK-enforced for multi-level trees).
BuiltPlan BuildStateSlicePlan(const std::vector<ContinuousQuery>& queries,
                              const JoinTreePlan& tree,
                              const BuildOptions& options = {});

}  // namespace stateslice

#endif  // STATESLICE_CORE_SHARED_PLAN_BUILDER_H_
