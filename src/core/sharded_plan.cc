#include "src/core/sharded_plan.h"

#include <memory>
#include <string>

#include "src/common/check.h"

namespace stateslice {

ShardedPlanSet BuildShardedPlanSet(int num_shards,
                                   const std::vector<ContinuousQuery>& queries,
                                   const BuildOptions& merge_options,
                                   const ShardBuildFn& build_shard) {
  SLICE_CHECK(num_shards >= 1);
  ShardedPlanSet set;
  const size_t nq = queries.size();

  // Shard replicas plus one exit tap per (shard, query) on the query's
  // output; a replica holds no sink.
  set.shards.reserve(static_cast<size_t>(num_shards));
  set.exits.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    set.shards.push_back(build_shard());
    BuiltPlan& shard = set.shards.back();
    SLICE_CHECK_EQ(shard.outputs.size(), nq);
    auto& exits = set.exits[static_cast<size_t>(s)];
    exits.resize(nq, nullptr);
    for (size_t q = 0; q < nq; ++q) {
      exits[q] = shard.plan->AddExitQueue(
          "shard" + std::to_string(s) + ".exit.q" + std::to_string(q),
          shard.outputs[q].producer, shard.outputs[q].port);
    }
  }

  // The merge plan: one UnionMerge per query, input port s fed by shard
  // s's result stream, output into the query's sink.
  BuiltPlan& merge = set.merge;
  merge.plan = std::make_unique<QueryPlan>();
  merge.queries = queries;
  merge.options = merge_options;
  merge.outputs.assign(nq, {});
  merge.merges.assign(nq, nullptr);
  set.merge_entries.assign(static_cast<size_t>(num_shards), {});
  for (int s = 0; s < num_shards; ++s) {
    set.merge_entries[static_cast<size_t>(s)].resize(nq, nullptr);
  }
  for (const ContinuousQuery& query : queries) {
    // Queries are indexed by id everywhere downstream (outputs, sinks);
    // the builders guarantee ids are 0..n-1.
    const size_t q = static_cast<size_t>(query.id);
    SLICE_CHECK(q < nq);
    auto* um = merge.plan->AddOperator(std::make_unique<UnionMerge>(
        query.name + ".shard_merge", num_shards));
    merge.merges[q] = um;
    merge.outputs[q] = QueryOutput{um, UnionMerge::kOutPort};
    for (int s = 0; s < num_shards; ++s) {
      set.merge_entries[static_cast<size_t>(s)][q] = merge.plan->AddEntryQueue(
          "merge.s" + std::to_string(s) + ".q" + std::to_string(q), um, s);
    }
  }
  merge.plan->Start();
  AttachQuerySinks(&merge);
  return set;
}

}  // namespace stateslice
