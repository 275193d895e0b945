// N-way join-tree equivalence: the shared left-deep tree of sliced chains
// must produce exactly the brute-force oracle's result multisets — the
// naive nested windowed join over the full history — for every query of a
// mixed 2/3/4-way workload, in deterministic and sharded modes, through
// both the low-level builder/Executor path and the Engine facade.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::DrawMultiwayFuzzConfig;
using ::stateslice::testing::FuzzConfig;
using ::stateslice::testing::MultiwayOracle;
using ::stateslice::testing::StrictIncreaseAt;

std::vector<const std::vector<Tuple>*> StreamPtrs(const MultiWorkload& w,
                                                  int n) {
  std::vector<const std::vector<Tuple>*> ptrs;
  for (int s = 0; s < n; ++s) ptrs.push_back(&w.streams[s]);
  return ptrs;
}

MultiWorkload MakeWorkload(const FuzzConfig& config, double duration_s) {
  WorkloadSpec spec;
  spec.rate_a = config.rate;
  spec.rate_b = config.rate;
  spec.duration_s = duration_s;
  spec.join_selectivity = config.s1;
  spec.seed = config.workload_seed;
  return GenerateMultiWorkload(spec, config.num_streams);
}

// The acceptance workload: three queries — binary, 3-way chain, 3-way with
// selections — sharing one tree.
std::vector<ContinuousQuery> AcceptanceQueries() {
  std::vector<ContinuousQuery> queries(3);
  queries[0].id = 0;
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);

  queries[1].id = 1;
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(4);
  queries[1].stream_names = {"A", "B", "C"};

  queries[2].id = 2;
  queries[2].name = "Q3";
  queries[2].window = WindowSpec::TimeSeconds(1.5);
  queries[2].stream_names = {"A", "B", "C"};
  queries[2].selection_a = Predicate::WithSelectivity(0.6);
  queries[2].extra_selections = {Predicate::WithSelectivity(0.7)};
  return queries;
}

// Runs `config` through the Engine (pushing the merged arrival feed) and
// compares every query's collected multiset against the brute-force
// oracle. Sharded mode partitions by key, so its workload is rekeyed to an
// equi-join of the same selectivity.
void CheckEngineAgainstOracle(const FuzzConfig& config, ExecutionMode mode,
                              double duration_s) {
  MultiWorkload workload = MakeWorkload(config, duration_s);
  if (mode == ExecutionMode::kSharded) {
    RekeyForEquiJoin(&workload, std::llround(1.0 / config.s1),
                     config.workload_seed);
  }
  Engine::Options eopt;
  eopt.strategy = SharingStrategy::kStateSlice;
  eopt.collect_results = true;
  eopt.condition = workload.condition;
  eopt.mode = mode;
  eopt.shard_count = 3;
  Engine engine(eopt);

  std::vector<QueryHandle> handles;
  for (const ContinuousQuery& q : config.queries) {
    QueryHandle h = engine.RegisterQuery(q);
    ASSERT_TRUE(h.valid()) << engine.last_error() << " " << q.DebugString();
    handles.push_back(h);
  }
  for (const Tuple& t : MergedArrivals(workload)) {
    engine.Push(t.side, t);
  }
  engine.Finish();

  for (size_t i = 0; i < config.queries.size(); ++i) {
    const ContinuousQuery& q = config.queries[i];
    const std::map<std::string, int> expected = MultiwayOracle(
        StreamPtrs(workload, q.num_streams()), workload.condition, q);
    EXPECT_EQ(engine.CollectedResults(handles[i]), expected)
        << q.DebugString() << " mode=" << static_cast<int>(mode) << " "
        << config.DebugString();
  }
}

TEST(MultiwayEquivalence, AcceptanceWorkloadDeterministic) {
  FuzzConfig config;
  config.queries = AcceptanceQueries();
  config.num_streams = 3;
  config.s1 = 0.25;
  config.rate = 20.0;
  config.workload_seed = 20060912;
  CheckEngineAgainstOracle(config, ExecutionMode::kDeterministic, 25.0);
}

TEST(MultiwayEquivalence, AcceptanceWorkloadSharded) {
  FuzzConfig config;
  config.queries = AcceptanceQueries();
  config.num_streams = 3;
  config.s1 = 0.25;
  config.rate = 20.0;
  config.workload_seed = 20060912;
  CheckEngineAgainstOracle(config, ExecutionMode::kSharded, 25.0);
}

// Low-level path: BuildStateSlicePlan over random per-level partitions,
// driven by the Executor (N sources merged into the entry queue).
TEST(MultiwayEquivalence, BuilderFuzzAgainstOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const int max_streams = 3 + static_cast<int>(seed % 2);
    const FuzzConfig config = DrawMultiwayFuzzConfig(seed, max_streams);
    const MultiWorkload workload = MakeWorkload(config, 15.0);

    BuildOptions options;
    options.condition = workload.condition;
    options.collect_results = true;
    BuiltPlan built =
        BuildStateSlicePlan(config.queries, config.tree, options);

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

    for (const ContinuousQuery& q : config.queries) {
      const std::map<std::string, int> expected = MultiwayOracle(
          StreamPtrs(workload, q.num_streams()), workload.condition, q);
      EXPECT_EQ(built.collectors[q.id]->ResultMultiset(), expected)
          << "seed=" << seed << " " << q.DebugString() << " "
          << config.DebugString();
    }
  }
}

TEST(MultiwayEquivalence, EngineFuzzDeterministic) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    const int max_streams = 3 + static_cast<int>(seed % 2);
    CheckEngineAgainstOracle(DrawMultiwayFuzzConfig(seed, max_streams),
                             ExecutionMode::kDeterministic, 12.0);
  }
}

TEST(MultiwayEquivalence, EngineFuzzSharded) {
  for (uint64_t seed = 200; seed < 205; ++seed) {
    const int max_streams = 3 + static_cast<int>(seed % 2);
    CheckEngineAgainstOracle(DrawMultiwayFuzzConfig(seed, max_streams),
                             ExecutionMode::kSharded, 10.0);
  }
}

// Online registration of a multi-way query on a running engine takes the
// drain-rebuild path with a recorded cutoff, and the newcomer's delivery
// is exactly the oracle over its post-registration suffix.
TEST(MultiwayEquivalence, OnlineMultiwayRegistrationRebuilds) {
  FuzzConfig config;
  config.queries = AcceptanceQueries();
  config.num_streams = 3;
  config.s1 = 0.25;
  config.rate = 20.0;
  config.workload_seed = 7;
  const MultiWorkload workload = MakeWorkload(config, 20.0);
  const std::vector<Tuple> merged = MergedArrivals(workload);

  Engine::Options eopt;
  eopt.strategy = SharingStrategy::kStateSlice;
  eopt.collect_results = true;
  eopt.condition = workload.condition;
  Engine engine(eopt);

  // Start binary-only; the 3-way queries arrive mid-stream.
  QueryHandle q1 = engine.RegisterQuery(config.queries[0]);
  ASSERT_TRUE(q1.valid()) << engine.last_error();

  const size_t churn_at = StrictIncreaseAt(merged, merged.size() / 2);
  ASSERT_LT(churn_at, merged.size());
  for (size_t i = 0; i < churn_at; ++i) {
    engine.Push(merged[i].side, merged[i]);
  }
  QueryHandle q2 = engine.RegisterQuery(config.queries[1]);
  ASSERT_TRUE(q2.valid()) << engine.last_error();
  EXPECT_EQ(engine.rebuilds(), 1u);  // multiway => no in-place migration
  ASSERT_EQ(engine.rebuild_cutoffs().size(), 1u);
  for (size_t i = churn_at; i < merged.size(); ++i) {
    engine.Push(merged[i].side, merged[i]);
  }
  engine.Finish();

  // Q1 (registered from the start) sees the full join, segmented by the
  // rebuild cutoff; Q2 sees exactly its post-registration suffix.
  EXPECT_EQ(engine.CollectedResults(q1),
            MultiwayOracle(StreamPtrs(workload, 2), workload.condition,
                           config.queries[0], 0, engine.rebuild_cutoffs()));
  EXPECT_EQ(engine.CollectedResults(q2),
            MultiwayOracle(StreamPtrs(workload, 3), workload.condition,
                           config.queries[1], engine.ResultsFrom(q2),
                           engine.rebuild_cutoffs()));
}

// Multi-way specs outside the supported envelope are rejected with
// ok=false semantics, never a crash.
TEST(MultiwayEquivalence, EngineRejectsUnsupportedMultiwaySpecs) {
  ContinuousQuery three;
  three.window = WindowSpec::TimeSeconds(2);
  three.stream_names = {"A", "B", "C"};

  {
    Engine::Options opt;
    opt.strategy = SharingStrategy::kPullUp;
    Engine engine(opt);
    EXPECT_FALSE(engine.RegisterQuery(three).valid());
    EXPECT_NE(engine.last_error().find("state-slice"), std::string::npos);
  }
  {
    Engine::Options opt;
    opt.use_lineage = true;
    Engine engine(opt);
    EXPECT_FALSE(engine.RegisterQuery(three).valid());
    EXPECT_NE(engine.last_error().find("binary-only"), std::string::npos);
  }
  {
    Engine engine;
    ContinuousQuery count_window = three;
    count_window.window = WindowSpec::Count(10);
    EXPECT_FALSE(engine.RegisterQuery(count_window).valid());
    EXPECT_NE(engine.last_error().find("time-based"), std::string::npos);
  }
  {
    // Incompatible join-tree prefixes cannot share an engine.
    Engine engine;
    ContinuousQuery four;
    four.window = WindowSpec::TimeSeconds(2);
    four.stream_names = {"A", "B", "C", "D"};
    four.join_anchors = {0, 1, 2};
    ASSERT_TRUE(engine.RegisterQuery(four).valid()) << engine.last_error();
    ContinuousQuery conflicting = three;
    conflicting.join_anchors = {0, 0};  // C joins A, but the tree joins B
    EXPECT_FALSE(engine.RegisterQuery(conflicting).valid());
    EXPECT_NE(engine.last_error().find("prefix"), std::string::npos);
  }
  {
    Engine engine;
    ContinuousQuery wide;
    wide.window = WindowSpec::TimeSeconds(2);
    for (int s = 0; s < kMaxStreams + 1; ++s) {
      wide.stream_names.push_back("S" + std::to_string(s));
    }
    EXPECT_FALSE(engine.RegisterQuery(wide).valid());
    EXPECT_NE(engine.last_error().find("stream limit"), std::string::npos);
  }
  {
    // A 1-entry stream list is a malformed spec, not a binary default:
    // rejected at registration, never a CHECK on the next Push.
    Engine engine;
    ContinuousQuery narrow;
    narrow.window = WindowSpec::TimeSeconds(2);
    narrow.stream_names = {"A"};
    EXPECT_FALSE(engine.RegisterQuery(narrow).valid());
    EXPECT_NE(engine.last_error().find("at least two streams"),
              std::string::npos);
  }
}

// Tuples pushed into streams no active query reads are rejected with a
// reason (the arrival is real, so the watermark still advances), not
// crashed on.
TEST(MultiwayEquivalence, PushIntoUnreadStreamIsRejected) {
  Engine engine;
  ContinuousQuery q;
  q.window = WindowSpec::TimeSeconds(2);
  ASSERT_TRUE(engine.RegisterQuery(q).valid());
  Tuple t;
  t.timestamp = SecondsToTicks(1.0);
  engine.Push(/*stream=*/5, t);  // binary workload: streams 0 and 1 only
  EXPECT_EQ(engine.rejected_tuples(), 1u);
  EXPECT_EQ(engine.rejected_by_stream()[5], 1u);
  EXPECT_EQ(engine.dropped_tuples(), 0u);
  EXPECT_EQ(engine.input_tuples(), 0u);
  EXPECT_NE(engine.last_error().find("not read by any active query"),
            std::string::npos);
  EXPECT_EQ(engine.watermark(), t.timestamp);
}

}  // namespace
}  // namespace stateslice
