// Equivalence and consistency suite for the hash-indexed probe path
// (src/operators/join_state.h).
//
// The index is a pure execution-strategy change: with it on (the default
// for kEquiKey operators) or forced off (BuildOptions::use_key_index =
// false, the nested-loop baseline), every delivered result multiset — and
// every paper-unit cost counter — must be identical, across equi/modsum
// conditions, time/count windows, deterministic/sharded modes, plan
// migration churn, and N-way trees. State-level fuzz additionally pins the
// index's internal invariants (CheckIndexConsistency) under random
// insert/purge/probe/migration op sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::DrawFuzzConfig;
using ::stateslice::testing::FuzzConfig;
using ::stateslice::testing::MultiwayOracle;
using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunPlan;

// Generates a workload and rewrites it into an equi join (shared
// RekeyForEquiJoin key model: uniform keys over [0, key_domain),
// condition kEquiKey, S1 = 1/key_domain).
Workload EquiWorkload(const WorkloadSpec& spec, int64_t key_domain,
                      uint64_t key_seed) {
  Workload w = GenerateWorkload(spec);
  RekeyForEquiJoin(&w, key_domain, key_seed);
  return w;
}

// ---------------------------------------------------------------------
// State-level fuzz: an indexed state and a plain one fed the identical
// random op sequence must emit identical probe matches, and the index must
// stay internally consistent through purges, evictions, and migration
// splices.
// ---------------------------------------------------------------------

class StateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Emission callback that appends each match to *out (the callback-form
// replacement for the removed copy-out Probe overloads).
template <typename EntryT>
auto Collect(std::vector<EntryT>* out) {
  return [out](const EntryT& e) { out->push_back(e); };
}

TEST_P(StateFuzzTest, IndexedMatchesPlainUnderRandomOps) {
  Rng rng(GetParam() * 2654435761u);
  const bool count_window = rng.NextBounded(2) == 1;
  const WindowSpec window =
      count_window
          ? WindowSpec::Count(1 + static_cast<int64_t>(rng.NextBounded(40)))
          : WindowSpec::TimeSeconds(
                0.5 + 0.5 * static_cast<double>(rng.NextBounded(8)));
  const int64_t key_domain = 1 + static_cast<int64_t>(rng.NextBounded(32));
  const JoinCondition equi = JoinCondition::EquiKey();

  JoinState indexed(window);
  indexed.EnableKeyIndex();
  JoinState plain(window);

  double now_s = 0.0;
  uint32_t seq = 0;
  for (int op = 0; op < 800; ++op) {
    const uint64_t pick = rng.NextBounded(100);
    now_s += 0.001 * static_cast<double>(rng.NextBounded(200));
    const int64_t key =
        static_cast<int64_t>(rng.NextBounded(
            static_cast<uint64_t>(key_domain)));
    if (pick < 55) {
      const Tuple t = A(++seq, now_s, key);
      std::vector<Tuple> ev_i, ev_p;
      indexed.Insert(t, &ev_i);
      plain.Insert(t, &ev_p);
      ASSERT_EQ(ev_i.size(), ev_p.size());
    } else if (pick < 75) {
      std::vector<Tuple> p_i, p_p;
      const uint64_t c_i = indexed.Purge(SecondsToTicks(now_s), &p_i);
      const uint64_t c_p = plain.Purge(SecondsToTicks(now_s), &p_p);
      ASSERT_EQ(c_i, c_p);
      ASSERT_EQ(p_i.size(), p_p.size());
    } else if (pick < 95) {
      const Tuple probe = testing::B(++seq, now_s, key);
      std::vector<Tuple> m_i, m_p;
      const ProbeStats s_i = indexed.Probe(probe, equi, Collect(&m_i));
      const ProbeStats s_p = plain.Probe(probe, equi, Collect(&m_p));
      ASSERT_EQ(s_i.comparisons, s_p.comparisons);  // logical unit equal
      ASSERT_EQ(m_i.size(), m_p.size());
      for (size_t k = 0; k < m_i.size(); ++k) {
        ASSERT_TRUE(SameTuple(m_i[k], m_p[k])) << "order diverged at " << k;
      }
    } else {
      // Migration splice: TakeAll + PrependOlder round-trip (what
      // MergeSlices does), which must rebuild the index.
      const std::vector<Tuple> all = indexed.TakeAll();
      indexed.PrependOlder(all);
      ASSERT_EQ(indexed.size(), plain.size());
    }
    if (op % 97 == 0) indexed.CheckIndexConsistency();
  }
  indexed.CheckIndexConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

TEST(StateFuzzTest, CompositeIndexAnchorsCorrectConstituent) {
  // Composite entries are indexed by their anchor constituent's key.
  CompositeJoinState indexed(WindowSpec::TimeSeconds(10));
  indexed.EnableKeyIndex(/*anchor=*/1);
  CompositeJoinState plain(WindowSpec::TimeSeconds(10));
  Rng rng(99);
  for (uint32_t i = 0; i < 200; ++i) {
    CompositeTuple c{A(i, 0.01 * i, static_cast<int64_t>(rng.NextBounded(8))),
                     testing::B(i, 0.01 * i,
                                static_cast<int64_t>(rng.NextBounded(8)))};
    indexed.Insert(c);
    plain.Insert(c);
  }
  for (int64_t key = 0; key < 8; ++key) {
    const Tuple probe = testing::MakeTuple(2, 1000, 2.5, key);
    std::vector<CompositeTuple> m_i, m_p;
    indexed.Probe(probe, JoinCondition::EquiKey(), Collect(&m_i), /*anchor=*/1);
    plain.Probe(probe, JoinCondition::EquiKey(), Collect(&m_p), /*anchor=*/1);
    ASSERT_EQ(m_i.size(), m_p.size()) << "key " << key;
    for (size_t k = 0; k < m_i.size(); ++k) {
      ASSERT_EQ(m_i[k].b.seq, m_p[k].b.seq);
      ASSERT_EQ(m_i[k].b.key, key);
    }
  }
  indexed.CheckIndexConsistency();
}

// ---------------------------------------------------------------------
// Plan-level fuzz: indexed == nested-loop == oracle for random shared
// chains, under equi and modsum conditions, both execution modes.
// ---------------------------------------------------------------------

class PlanEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanEquivalenceTest, IndexedMatchesNestedLoopAndOracle) {
  const uint64_t seed = GetParam();
  const FuzzConfig config = DrawFuzzConfig(seed);
  SCOPED_TRACE(config.DebugString());

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = config.rate;
  spec.duration_s = 8;
  spec.join_selectivity = config.s1;
  spec.seed = config.workload_seed;
  // Odd seeds: equi-join over a random key domain (the indexed fast path);
  // even seeds: the generator's modsum condition (dispatch must fall back).
  const int64_t domains[] = {4, 64, 1024};
  const Workload workload =
      seed % 2 == 1 ? EquiWorkload(spec, domains[seed % 3], seed * 31)
                    : GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.use_lineage = config.use_lineage;

  BuiltPlan indexed = BuildStateSlicePlan(config.queries, config.chain,
                                          options);
  const RunStats indexed_stats = RunPlan(&indexed, workload);

  options.use_key_index = false;
  BuiltPlan nested = BuildStateSlicePlan(config.queries, config.chain,
                                         options);
  const RunStats nested_stats = RunPlan(&nested, workload);

  // Equi seeds also run the indexed probes on shard worker threads (key
  // partitioning needs the equi-key predicate).
  const bool equi = workload.condition.kind == JoinCondition::Kind::kEquiKey;
  Engine::Options eopt;
  eopt.condition = workload.condition;
  eopt.collect_results = true;
  eopt.use_lineage = config.use_lineage;
  eopt.mode = ExecutionMode::kSharded;
  eopt.shard_count = 2 + static_cast<int>(seed % 3);
  Engine sharded(eopt);
  std::vector<QueryHandle> handles;
  if (equi) {
    for (const ContinuousQuery& q : config.queries) {
      handles.push_back(sharded.RegisterQuery(q));
      ASSERT_TRUE(handles.back().valid()) << sharded.last_error();
    }
    for (const Tuple& t : MergedArrivals(workload)) sharded.Push(t.side, t);
    sharded.Finish();
  }

  // The paper-unit cost counters must not notice the index at all.
  for (const CostCategory cat :
       {CostCategory::kProbe, CostCategory::kPurge, CostCategory::kUnion}) {
    EXPECT_EQ(indexed_stats.cost.Get(cat), nested_stats.cost.Get(cat))
        << CostCounters::Name(cat);
  }
  EXPECT_EQ(indexed_stats.cost.Total(), nested_stats.cost.Total());

  for (const ContinuousQuery& q : config.queries) {
    const auto expected = OracleJoin(workload.stream_a, workload.stream_b,
                                     workload.condition, q);
    EXPECT_EQ(indexed.collectors[q.id]->ResultMultiset(), expected)
        << "indexed " << q.DebugString();
    EXPECT_EQ(nested.collectors[q.id]->ResultMultiset(), expected)
        << "nested-loop " << q.DebugString();
    if (equi) {
      EXPECT_EQ(sharded.CollectedResults(handles[q.id]), expected)
          << "sharded+indexed " << q.DebugString();
    }
    EXPECT_EQ(indexed.collectors[q.id]->TimeSortedResults(),
              nested.collectors[q.id]->TimeSortedResults())
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

TEST(PlanEquivalenceTest, CountWindowChainsAgree) {
  std::vector<ContinuousQuery> queries(2);
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::Count(5);
  queries[1].id = 1;
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::Count(12);

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = 10;
  spec.seed = 21;
  const Workload workload = EquiWorkload(spec, /*key_domain=*/8, 77);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan indexed =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  RunPlan(&indexed, workload);

  options.use_key_index = false;
  BuiltPlan nested =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  RunPlan(&nested, workload);

  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(indexed.collectors[q.id]->ResultMultiset(),
              nested.collectors[q.id]->ResultMultiset())
        << q.DebugString();
  }
  for (const BuiltSlice& slice : indexed.slices) {
    slice.join->state_a().CheckIndexConsistency();
    slice.join->state_b().CheckIndexConsistency();
  }
}

// ---------------------------------------------------------------------
// Migration churn: random split/merge/add/remove schedules on an indexed
// equi chain keep results exact and the per-slice indexes consistent
// (ValidateBuiltChain checks them after every operation).
// ---------------------------------------------------------------------

class MigrationChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MigrationChurnTest, SplitMergeAddRemoveKeepsIndexesConsistent) {
  Rng rng(GetParam() * 104729);
  std::vector<ContinuousQuery> queries(3);
  const double w1 = 1.0 + static_cast<double>(rng.NextBounded(3));
  const double w2 = w1 + 1.0 + static_cast<double>(rng.NextBounded(3));
  const double w3 = w2 + 1.0 + static_cast<double>(rng.NextBounded(3));
  queries[0] = {0, "Q1", WindowSpec::TimeSeconds(w1), {}, {}};
  queries[1] = {1, "Q2", WindowSpec::TimeSeconds(w2), {}, {}};
  queries[2] = {2, "Q3", WindowSpec::TimeSeconds(w3), {}, {}};

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 12;
  spec.seed = rng.NextU64();
  const Workload workload =
      EquiWorkload(spec, /*key_domain=*/1 + rng.NextBounded(24),
                   rng.NextU64());
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);

  std::vector<Tuple> merged = MergedArrivals(workload);
  RoundRobinScheduler scheduler(built.plan.get());
  const size_t step = std::max<size_t>(merged.size() / 6, 1);
  int added_query = -1;
  for (size_t i = 0; i < merged.size(); ++i) {
    built.entry->Push(merged[i]);
    scheduler.RunUntilQuiescent();
    if (i % step != step - 1) continue;
    ChainMigrator migrator(&built);
    switch ((i / step) % 4) {
      case 0: {
        const SliceRange r = built.slices[0].join->range();
        if (r.end - r.start > 1) {
          migrator.SplitSlice(
              0, r.start + 1 +
                     static_cast<Duration>(rng.NextBounded(
                         static_cast<uint64_t>(r.end - r.start - 1))));
        }
        break;
      }
      case 1:
        // MergeSlices requires plain-join producers (merging a slice that
        // already owns a router would need nested-router surgery).
        if (built.slices.size() > 1 &&
            built.slices[0].result_producer ==
                static_cast<Operator*>(built.slices[0].join) &&
            built.slices[1].result_producer ==
                static_cast<Operator*>(built.slices[1].join)) {
          migrator.MergeSlices(0);
        }
        break;
      case 2:
        if (added_query < 0) {
          // A window interior to the chain span, so registration splits a
          // slice on a populated, indexed chain.
          added_query = migrator.AddQuery(
              WindowSpec::TimeSeconds((w1 + w2) / 2), "Qlate",
              /*results_from=*/merged[i].timestamp + 1);
        }
        break;
      default:
        if (added_query >= 0) {
          migrator.RemoveQuery(added_query);
          added_query = -1;
        }
        break;
    }
    // ValidateBuiltChain checks chain metadata *and* per-slice index
    // consistency after every mutation.
    ValidateBuiltChain(built, /*check_indexes=*/true);
  }
  built.plan->FinishAll();
  scheduler.RunUntilQuiescent();
  ValidateBuiltChain(built, /*check_indexes=*/true);

  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(built.collectors[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationChurnTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// ---------------------------------------------------------------------
// N-way trees: equi-join composite probes (anchored key index) agree with
// the nested-loop build and the brute-force oracle.
// ---------------------------------------------------------------------

TEST(MultiwayIndexTest, ThreeWayEquiTreeMatchesNestedLoopAndOracle) {
  std::vector<ContinuousQuery> queries(2);
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].id = 1;
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(4);
  queries[1].stream_names = {"A", "B", "C"};

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 20;
  spec.seed = 20060912;
  MultiWorkload workload = GenerateMultiWorkload(spec, 3);
  RekeyForEquiJoin(&workload, /*key_domain=*/12, /*key_seed=*/4242);

  auto run_tree = [&](bool use_key_index) {
    BuildOptions options;
    options.condition = workload.condition;
    options.collect_results = true;
    options.use_key_index = use_key_index;
    JoinTreePlan tree;
    for (const TreeLevelQueries& level : TreeLevels(queries)) {
      ChainPlan plan;
      plan.spec = BuildChainSpec(level.local);
      plan.partition.slice_end_boundaries.resize(
          static_cast<size_t>(plan.spec.num_boundaries()));
      for (int k = 0; k < plan.spec.num_boundaries(); ++k) {
        plan.partition.slice_end_boundaries[static_cast<size_t>(k)] = k;
      }
      tree.levels.push_back(std::move(plan));
    }
    BuiltPlan built = BuildStateSlicePlan(queries, tree, options);
    std::vector<StreamSource> sources;
    sources.reserve(workload.streams.size());
    for (size_t s = 0; s < workload.streams.size(); ++s) {
      sources.emplace_back("S" + std::to_string(s), workload.streams[s]);
    }
    std::vector<SourceBinding> bindings;
    for (StreamSource& source : sources) {
      bindings.push_back(SourceBinding{&source, built.entry});
    }
    Executor exec(built.plan.get(), bindings);
    for (CountingSink* sink : built.sinks) exec.AddSink(sink);
    exec.Run();
    return built;
  };

  BuiltPlan indexed = run_tree(true);
  BuiltPlan nested = run_tree(false);
  for (const ContinuousQuery& q : queries) {
    std::vector<const std::vector<Tuple>*> ptrs;
    for (int s = 0; s < q.num_streams(); ++s) {
      ptrs.push_back(&workload.streams[static_cast<size_t>(s)]);
    }
    const auto expected = MultiwayOracle(ptrs, workload.condition, q);
    EXPECT_EQ(indexed.collectors[q.id]->ResultMultiset(), expected)
        << "indexed " << q.DebugString();
    EXPECT_EQ(nested.collectors[q.id]->ResultMultiset(), expected)
        << "nested " << q.DebugString();
  }
  for (const BuiltSlice& slice : indexed.slices) {
    slice.join->state_a().CheckIndexConsistency();
    slice.join->state_b().CheckIndexConsistency();
    slice.join->composite_state().CheckIndexConsistency();
  }
}

}  // namespace
}  // namespace stateslice
