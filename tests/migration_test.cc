// Online chain migration (Section 5.3): split/merge of live slices and
// query add/remove, validated by comparing delivered results against plans
// built from scratch and against the oracle.
#include "src/core/migration.h"

#include <gtest/gtest.h>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::OracleJoin;

std::vector<ContinuousQuery> PlainQueries(std::vector<double> windows_s) {
  std::vector<ContinuousQuery> queries(windows_s.size());
  for (size_t i = 0; i < windows_s.size(); ++i) {
    queries[i].id = static_cast<int>(i);
    queries[i].name = "Q" + std::to_string(i + 1);
    queries[i].window = WindowSpec::TimeSeconds(windows_s[i]);
  }
  return queries;
}

// Feeds the first `head` tuples of the merged workload, applies `mutate`,
// feeds the rest, and returns the built plan for inspection.
template <typename MutateFn>
BuiltPlan RunWithMidstreamMutation(std::vector<ContinuousQuery> queries,
                                   const Workload& workload, size_t head,
                                   MutateFn mutate) {
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);

  // Merge both streams into one global arrival order.
  std::vector<Tuple> merged;
  merged.insert(merged.end(), workload.stream_a.begin(),
                workload.stream_a.end());
  merged.insert(merged.end(), workload.stream_b.begin(),
                workload.stream_b.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Tuple& x, const Tuple& y) {
                     return x.timestamp < y.timestamp;
                   });

  RoundRobinScheduler scheduler(built.plan.get());
  size_t i = 0;
  for (; i < merged.size() && i < head; ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
  }
  mutate(&built);
  for (; i < merged.size(); ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
  }
  built.plan->FinishAll();
  scheduler.RunUntilQuiescent();
  return built;
}

Workload SmallWorkload(uint64_t seed = 3) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = 12;
  spec.seed = seed;
  return GenerateWorkload(spec);
}

TEST(MigrationTest, SplitPreservesAllQueryResults) {
  const auto queries = PlainQueries({2, 6});
  const Workload workload = SmallWorkload();
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/120, [](BuiltPlan* plan) {
        ChainMigrator migrator(plan);
        // Split the [2,6) slice at 4 s: chain becomes [0,2),[2,4),[4,6).
        migrator.SplitSlice(1, SecondsToTicks(4.0));
        ASSERT_EQ(plan->slices.size(), 3u);
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(MigrationTest, SplitOfFirstSliceRewiresDirectQuery) {
  // Q1 is direct-wired to slice 0; splitting slice 0 must insert a union.
  const auto queries = PlainQueries({4, 8});
  const Workload workload = SmallWorkload(7);
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/100, [](BuiltPlan* plan) {
        ChainMigrator migrator(plan);
        migrator.SplitSlice(0, SecondsToTicks(2.0));
        EXPECT_NE(plan->merges[0], nullptr);  // union inserted for Q1
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(MigrationTest, MergePreservesAllQueryResults) {
  const auto queries = PlainQueries({2, 4, 8});
  const Workload workload = SmallWorkload(11);
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/150, [](BuiltPlan* plan) {
        ChainMigrator migrator(plan);
        // Merge slices [2,4) and [4,8): Q2's results must now be routed
        // out of the merged slice by |Ta-Tb| < 4 s.
        migrator.MergeSlices(1);
        ASSERT_EQ(plan->slices.size(), 2u);
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(MigrationTest, MergeThenSplitRoundTrip) {
  const auto queries = PlainQueries({3, 6});
  const Workload workload = SmallWorkload(13);
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/100, [](BuiltPlan* plan) {
        ChainMigrator migrator(plan);
        migrator.MergeSlices(0);
        ASSERT_EQ(plan->slices.size(), 1u);
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(MigrationTest, AddQueryReceivesResultsFromRegistrationOn) {
  const auto queries = PlainQueries({2, 6});
  const Workload workload = SmallWorkload(17);
  int new_id = -1;
  TimePoint registration_time = 0;
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/120,
      [&new_id, &registration_time](BuiltPlan* plan) {
        ChainMigrator migrator(plan);
        new_id = migrator.AddQuery(WindowSpec::TimeSeconds(4.0), "Q3");
        registration_time = 0;  // set below from delivered results
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  ASSERT_EQ(new_id, 2);
  ASSERT_NE(built.sinks[new_id], nullptr);
  // The old queries are unaffected.
  for (const ContinuousQuery& q : PlainQueries({2, 6})) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
  // The new query's post-registration results are a subset of its oracle
  // results (pre-registration results are legitimately missing), and
  // post-registration results with both tuples after the split point
  // must all be present.
  ContinuousQuery q3;
  q3.window = WindowSpec::TimeSeconds(4.0);
  const auto oracle = OracleJoin(workload.stream_a, workload.stream_b,
                                 workload.condition, q3);
  const auto actual = built.sinks[new_id]->ResultMultiset();
  EXPECT_FALSE(actual.empty());
  for (const auto& [key, count] : actual) {
    auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "spurious result " << key;
    EXPECT_LE(count, it->second);
  }
}

TEST(MigrationTest, RemoveQueryStopsDeliveryOthersUnaffected) {
  const auto queries = PlainQueries({2, 4, 8});
  const Workload workload = SmallWorkload(19);
  uint64_t count_at_removal = 0;
  const QuerySink* removed_sink = nullptr;
  BuiltPlan built = RunWithMidstreamMutation(
      queries, workload, /*head=*/150,
      [&count_at_removal, &removed_sink](BuiltPlan* plan) {
        removed_sink = plan->sinks[1];
        count_at_removal = plan->sinks[1]->result_count();
        ChainMigrator migrator(plan);
        migrator.RemoveQuery(1);
        EXPECT_EQ(plan->sinks[1], nullptr);
        EXPECT_EQ(plan->chain.spec.query_boundary[1], -1);  // id freed
        ValidateBuiltChain(*plan, /*check_indexes=*/true);
      });
  (void)removed_sink;  // destroyed by RemoveQuery; must not be dereferenced
  for (int qid : {0, 2}) {
    EXPECT_EQ(built.sinks[qid]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, queries[qid]))
        << queries[qid].DebugString();
  }
}

TEST(MigrationTest, BoundaryMetadataStaysInSyncAcrossMigrations) {
  // The BuiltSlice boundary indices and the chain spec/partition must
  // track join->range() through every migration primitive (they used to
  // go stale after SplitSlice/MergeSlices).
  const auto queries = PlainQueries({2, 6});
  BuildOptions options;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);
  ValidateBuiltChain(built, /*check_indexes=*/true);
  ChainMigrator migrator(&built);

  // Split [2,6) at 4 s: a brand-new boundary value enters the spec.
  migrator.SplitSlice(1, SecondsToTicks(4.0));
  ValidateBuiltChain(built, /*check_indexes=*/true);
  ASSERT_EQ(built.chain.spec.boundaries.size(), 3u);
  EXPECT_EQ(built.chain.spec.boundaries[1], SecondsToTicks(4.0));
  EXPECT_EQ(built.slices[1].start_boundary, 0);
  EXPECT_EQ(built.slices[1].end_boundary, 1);
  EXPECT_EQ(built.slices[2].end_boundary, 2);
  // Q2's boundary index shifted with the insertion.
  EXPECT_EQ(built.chain.spec.query_boundary[1], 2);

  // AddQuery at 3 s splits [2,4) and registers the query at the new
  // boundary.
  const int q3 = migrator.AddQuery(WindowSpec::TimeSeconds(3.0), "Q3");
  ValidateBuiltChain(built, /*check_indexes=*/true);
  ASSERT_EQ(built.chain.spec.boundaries.size(), 4u);
  EXPECT_EQ(built.chain.spec.query_boundary[q3], 1);
  EXPECT_EQ(built.chain.spec.queries_at_boundary[1],
            std::vector<int>{q3});

  // RemoveQuery deregisters it from the boundary (the boundary stays).
  migrator.RemoveQuery(q3);
  ValidateBuiltChain(built, /*check_indexes=*/true);
  EXPECT_TRUE(built.chain.spec.queries_at_boundary[1].empty());

  // Merging [2,3)+[3,4) keeps every index consistent.
  migrator.MergeSlices(1);
  ValidateBuiltChain(built, /*check_indexes=*/true);
  ASSERT_EQ(built.slices.size(), 3u);
  EXPECT_EQ(built.slices[1].join->range().end, SecondsToTicks(4.0));
  EXPECT_EQ(built.chain.partition.slice_end_boundaries,
            (std::vector<int>{0, 2, 3}));
}

TEST(MigrationTest, AddQueryWithResultsFromDeliversExactlySuffix) {
  // Fresh-start registration: with a results_from cutoff, the new query
  // delivers exactly the oracle join over tuples at or after the cutoff —
  // no pairs against pre-registration slice state.
  const auto queries = PlainQueries({2, 6});
  const Workload workload = SmallWorkload(101);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t head = testing::StrictIncreaseAt(merged, merged.size() / 2);
  ASSERT_LT(head, merged.size());
  const TimePoint cutoff = merged[head].timestamp;

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);
  RoundRobinScheduler scheduler(built.plan.get());
  size_t i = 0;
  for (; i < head; ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
  }
  ChainMigrator migrator(&built);
  const int q3 =
      migrator.AddQuery(WindowSpec::TimeSeconds(4.0), "Q3", cutoff);
  ValidateBuiltChain(built, /*check_indexes=*/true);
  for (; i < merged.size(); ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
  }
  built.plan->FinishAll();
  scheduler.RunUntilQuiescent();

  ContinuousQuery suffix_query;
  suffix_query.window = WindowSpec::TimeSeconds(4.0);
  EXPECT_EQ(built.sinks[q3]->ResultMultiset(),
            testing::SegmentedOracle(workload.stream_a, workload.stream_b,
                                     workload.condition, suffix_query,
                                     cutoff, {}));
  // The old queries still deliver their full oracle.
  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.sinks[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

TEST(MigrationDeathTest, RejectsFilteredChains) {
  std::vector<ContinuousQuery> queries = PlainQueries({2, 6});
  queries[1].selection_a = Predicate::WithSelectivity(0.5);
  BuildOptions options;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);
  EXPECT_DEATH(ChainMigrator{&built}, "CHECK failed");
}

TEST(MigrationDeathTest, SplitOutsideRangeAborts) {
  const auto queries = PlainQueries({2, 6});
  BuildOptions options;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  AttachQuerySinks(&built);
  ChainMigrator migrator(&built);
  EXPECT_DEATH(migrator.SplitSlice(0, SecondsToTicks(5.0)), "CHECK failed");
}

}  // namespace
}  // namespace stateslice
