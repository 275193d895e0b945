// Engine-level coverage for ExecutionMode::kSharded: key-partitioned
// replicas, one fixed worker each, must deliver exactly the deterministic
// result multisets (the oracle), reject configurations key partitioning
// cannot serve, keep subscriptions timestamp-ordered (the merge plan's
// UnionMerge guarantee), and surface the ring accounting.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::OracleJoin;

// Equi-key workload (uniform keys unless a Zipf skew is requested).
Workload EquiWorkload(uint64_t seed, double duration_s = 10,
                      int64_t key_domain = 16, double zipf_s = 0.0) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = duration_s;
  spec.seed = seed;
  Workload workload = GenerateWorkload(spec);
  if (zipf_s > 0.0) {
    RekeyForEquiJoinZipf(&workload, key_domain, zipf_s, seed * 31 + 7);
  } else {
    RekeyForEquiJoin(&workload, key_domain, seed * 31 + 7);
  }
  return workload;
}

Engine::Options ShardedOptions(const Workload& workload, int shards) {
  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.mode = ExecutionMode::kSharded;
  options.shard_count = shards;
  return options;
}

ContinuousQuery PlainQuery(double window_s, const std::string& name) {
  ContinuousQuery q;
  q.name = name;
  q.window = WindowSpec::TimeSeconds(window_s);
  return q;
}

class ShardCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardCountTest, MatchesOracleAcrossShardCounts) {
  const Workload workload = EquiWorkload(11);
  Engine engine(ShardedOptions(workload, GetParam()));

  ContinuousQuery q1 = PlainQuery(2, "Q1");
  ContinuousQuery q2 = PlainQuery(6, "Q2");
  q2.selection_a = Predicate::GreaterThan(0.4);
  const QueryHandle h1 = engine.RegisterQuery(q1);
  const QueryHandle h2 = engine.RegisterQuery(q2);
  ASSERT_TRUE(h1.valid());
  ASSERT_TRUE(h2.valid());

  for (const Tuple& t : MergedArrivals(workload)) {
    engine.Push(t.side, t);
  }
  engine.Finish();

  EXPECT_EQ(engine.CollectedResults(h1),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, q1));
  EXPECT_EQ(engine.CollectedResults(h2),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, q2));
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountTest, ::testing::Values(1, 2, 8));

TEST(ShardedEngineTest, SkewedKeysMatchOracleUnderBackpressure) {
  // Zipf(1.2) over 8 keys: the hottest key draws roughly half the
  // arrivals, so its shard saturates while siblings idle and the feeder
  // waits on its 16-event ring.
  const Workload workload = EquiWorkload(5, 10, 8, 1.2);
  Engine::Options options = ShardedOptions(workload, 4);
  options.parallel_edge_capacity = 16;
  Engine engine(options);

  const QueryHandle h = engine.RegisterQuery(PlainQuery(4, "Q1"));
  ASSERT_TRUE(h.valid());
  for (const Tuple& t : MergedArrivals(workload)) {
    engine.Push(t.side, t);
  }
  engine.Finish();
  EXPECT_EQ(engine.CollectedResults(h),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(4, "Q1")));

  const RunStats stats = engine.Snapshot();
  EXPECT_EQ(stats.mode, ExecutionMode::kSharded);
  EXPECT_EQ(stats.worker_threads, 4);
  // The hot shard's ring filled up to its capacity at least once: the
  // feeder met backpressure there (the mark is taken against the feeder's
  // cached view of the worker's position, so it never exceeds capacity).
  EXPECT_GE(stats.parallel_edge_high_water_mark, 16u);
  EXPECT_EQ(stats.shard_steals, 0u);  // retired counters read 0
  EXPECT_EQ(stats.shard_spilled_runs, 0u);
}

TEST(ShardedEngineTest, RejectsNonEquiAndCountWindows) {
  const Workload workload = EquiWorkload(7);
  {
    Engine::Options options = ShardedOptions(workload, 2);
    options.condition = JoinCondition::ModSum(10, 3);
    Engine engine(options);
    EXPECT_FALSE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());
    EXPECT_NE(engine.last_error().find("equi-key"), std::string::npos);
  }
  {
    Engine engine(ShardedOptions(workload, 2));
    ContinuousQuery q;
    q.name = "Q1";
    q.window = WindowSpec::Count(32);
    EXPECT_FALSE(engine.RegisterQuery(q).valid());
    EXPECT_NE(engine.last_error().find("time-based"), std::string::npos);
  }
}

TEST(ShardedEngineTest, PollDrainAndMidStreamCounts) {
  const Workload workload = EquiWorkload(13);
  Engine engine(ShardedOptions(workload, 2));
  const QueryHandle h = engine.RegisterQuery(PlainQuery(3, "Q1"));
  ASSERT_TRUE(h.valid());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t half = merged.size() / 2;
  uint64_t polled = 0;
  for (size_t i = 0; i < half; ++i) {
    engine.Push(merged[i].side, merged[i]);
    if (i % 64 == 0) polled += engine.Poll();
  }
  engine.Drain();
  polled += engine.Poll();
  EXPECT_GT(polled, 0u);
  // Mid-stream counts trail the deterministic point (UnionMerge holds
  // results until the slowest shard's watermark passes) but never exceed
  // the final total.
  const uint64_t mid = engine.ResultCount(h);
  for (size_t i = half; i < merged.size(); ++i) {
    engine.Push(merged[i].side, merged[i]);
  }
  engine.Finish();
  const uint64_t total = engine.ResultCount(h);
  EXPECT_LE(mid, total);
  EXPECT_EQ(engine.CollectedResults(h),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(3, "Q1")));
}

TEST(ShardedEngineTest, SubscriptionStreamIsTimestampOrdered) {
  const Workload workload = EquiWorkload(17, 8);
  Engine engine(ShardedOptions(workload, 3));
  const QueryHandle h = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h.valid());

  // The callback fires on the merge worker; the vector is safe to read
  // after Finish() joined the workers (thread-join happens-before).
  std::vector<TimePoint> stamps;
  uint64_t callback_results = 0;
  const SubscriptionId sub = engine.Subscribe(h, [&](const JoinResult& r) {
    stamps.push_back(r.timestamp());
    ++callback_results;
  });
  ASSERT_TRUE(sub.valid());

  for (const Tuple& t : MergedArrivals(workload)) {
    engine.Push(t.side, t);
  }
  engine.Finish();

  EXPECT_EQ(callback_results, engine.ResultCount(h));
  for (size_t i = 1; i < stamps.size(); ++i) {
    ASSERT_LE(stamps[i - 1], stamps[i]) << "at " << i;
  }
}

TEST(ShardedEngineTest, SnapshotAggregatesShardPlans) {
  const Workload workload = EquiWorkload(19, 6);
  Engine engine(ShardedOptions(workload, 2));
  const QueryHandle h = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h.valid());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  for (const Tuple& t : merged) engine.Push(t.side, t);
  engine.Drain();

  // Mid-session snapshot: pauses the shard workers, reads, resumes.
  const RunStats mid = engine.Snapshot();
  EXPECT_EQ(mid.input_tuples, merged.size());
  EXPECT_GT(mid.events_processed, 0u);
  EXPECT_GT(mid.cost.Get(CostCategory::kProbe), 0u);
  ASSERT_FALSE(mid.memory_samples.empty());

  // The engine must still accept input after the snapshot resume.
  engine.Finish();
  const RunStats fin = engine.Snapshot();
  EXPECT_EQ(fin.results_delivered, engine.ResultCount(h));
  EXPECT_GE(fin.events_processed, mid.events_processed);
}

}  // namespace
}  // namespace stateslice
