// Shard replication for the key-partitioned execution mode.
//
// The sharded runtime (ExecutionMode::kSharded) runs N independent full
// replicas of the shared sliced chain — each with its own QueryPlan, arena,
// SlotRing states, and CostCounters — plus one small *merge plan* that
// re-establishes global timestamp order across the shard result streams
// before each query's one QuerySink (the replicas hold none). Since every
// equi-key lands in exactly one shard and equi-join results only pair
// equal keys, the union of the per-shard result multisets is exactly the
// unsharded result multiset;
// the per-query UnionMerge (watermark-driven, the paper's Section 4.3
// machinery) restores the timestamp order the deterministic scheduler
// would have delivered.
//
// This header only builds and wires the plans; the runtime that threads
// them is src/runtime/sharded_scheduler.h.
#ifndef STATESLICE_CORE_SHARDED_PLAN_H_
#define STATESLICE_CORE_SHARDED_PLAN_H_

#include <functional>
#include <vector>

#include "src/core/shared_plan_builder.h"

namespace stateslice {

// The N shard replicas, the merge plan, and the queue endpoints between
// them. Queues are owned by their respective plans; BuiltPlans own the
// plans — the set is movable, heap-free aggregation.
struct ShardedPlanSet {
  // One full chain replica per shard.
  std::vector<BuiltPlan> shards;
  // exits[shard][query]: exit tap on the query's output in the shard
  // plan, carrying its results and punctuations in timestamp order.
  // Drained by the shard's executor.
  std::vector<std::vector<EventQueue*>> exits;
  // The merge plan: per query one UnionMerge with num_shards inputs
  // feeding the query's QuerySink. merge.entry is null — feed through
  // merge_entries.
  BuiltPlan merge;
  // merge_entries[shard][query]: entry queue into the merge plan's
  // UnionMerge input port for that shard.
  std::vector<std::vector<EventQueue*>> merge_entries;

  int num_shards() const { return static_cast<int>(shards.size()); }
  int num_queries() const { return static_cast<int>(merge.queries.size()); }
};

// Builds one shard replica (a started BuiltPlan without sinks). Invoked
// num_shards times; the Engine supplies its strategy dispatch here so this
// layer stays strategy-agnostic.
using ShardBuildFn = std::function<BuiltPlan()>;

// Replicates the plan across `num_shards` shards, taps each replica's
// query outputs with exit queues, and builds the started merge plan with
// its QuerySinks (collecting when `merge_options.collect_results`).
ShardedPlanSet BuildShardedPlanSet(int num_shards,
                                   const std::vector<ContinuousQuery>& queries,
                                   const BuildOptions& merge_options,
                                   const ShardBuildFn& build_shard);

}  // namespace stateslice

#endif  // STATESLICE_CORE_SHARDED_PLAN_H_
