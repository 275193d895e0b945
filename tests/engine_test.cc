// Engine facade: long-lived sessions, push-based ingestion, online query
// registration, subscriptions and unified metrics — validated against the
// brute-force oracle join.
#include "src/api/engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::SegmentedOracle;
using ::stateslice::testing::StrictIncreaseAt;

Workload SmallWorkload(uint64_t seed = 3, double duration_s = 12) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = duration_s;
  spec.seed = seed;
  return GenerateWorkload(spec);
}

Engine::Options BaseOptions(const Workload& workload) {
  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;
  return options;
}

void PushRange(Engine* engine, const std::vector<Tuple>& merged, size_t from,
               size_t to) {
  for (size_t i = from; i < to && i < merged.size(); ++i) {
    engine->Push(merged[i].side, merged[i]);
  }
}

ContinuousQuery PlainQuery(double window_s, const std::string& name = "") {
  ContinuousQuery q;
  q.name = name;
  q.window = WindowSpec::TimeSeconds(window_s);
  return q;
}

TEST(EngineTest, LifecycleMatchesOracle) {
  const Workload workload = SmallWorkload(3);
  Engine engine(BaseOptions(workload));

  ContinuousQuery q1 = PlainQuery(2, "Q1");
  ContinuousQuery q2 = PlainQuery(6, "Q2");
  q2.selection_a = Predicate::GreaterThan(0.4);
  const QueryHandle h1 = engine.RegisterQuery(q1);
  const QueryHandle h2 = engine.RegisterQuery(q2);
  ASSERT_TRUE(h1.valid());
  ASSERT_TRUE(h2.valid());
  EXPECT_NE(h1, h2);
  EXPECT_EQ(engine.active_queries(), 2u);

  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&engine, merged, 0, merged.size());
  engine.Finish();

  EXPECT_EQ(engine.CollectedResults(h1),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, q1));
  EXPECT_EQ(engine.CollectedResults(h2),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, q2));
  EXPECT_EQ(engine.ResultsFrom(h1), 0);

  const RunStats stats = engine.Snapshot();
  EXPECT_EQ(stats.input_tuples, merged.size());
  EXPECT_EQ(stats.results_delivered,
            engine.ResultCount(h1) + engine.ResultCount(h2));
  EXPECT_GT(stats.events_processed, stats.input_tuples);
  EXPECT_GT(stats.cost.Total(), 0u);
  EXPECT_GT(stats.ComparisonsPerVirtualSecond(), 0.0);
  EXPECT_GT(stats.ServiceRate(), 0.0);
  EXPECT_FALSE(stats.memory_samples.empty());
  EXPECT_EQ(engine.rebuilds(), 0u);
}

TEST(EngineTest, CqlRegistrationAndErrors) {
  Engine engine;
  EXPECT_FALSE(engine.RegisterQuery("SELECT nonsense").valid());
  EXPECT_FALSE(engine.last_error().empty());
  EXPECT_FALSE(
      engine
          .RegisterQuery(
              "SELECT * FROM A A, B B WHERE A.key = B.key WINDOW 0 s")
          .valid());
  EXPECT_NE(engine.last_error().find("window"), std::string::npos);

  const QueryHandle h = engine.RegisterQuery(
      "SELECT A.* FROM Temp A, Hum B WHERE A.LocationId = B.LocationId "
      "AND A.Value > 0.5 WINDOW 10 s");
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(engine.IsActive(h));

  // Mixed window kinds are rejected.
  EXPECT_FALSE(
      engine
          .RegisterQuery(
              "SELECT * FROM A A, B B WHERE A.key = B.key WINDOW 100 rows")
          .valid());
  EXPECT_NE(engine.last_error().find("count-based windows"),
            std::string::npos);

  // Unknown handles are rejected without aborting.
  EXPECT_FALSE(engine.UnregisterQuery(QueryHandle{9999}));
  EXPECT_TRUE(engine.UnregisterQuery(h));
  EXPECT_FALSE(engine.IsActive(h));
  EXPECT_FALSE(engine.UnregisterQuery(h));  // already gone
}

TEST(EngineTest, PushDownRequiresSharedPredicate) {
  Engine::Options options;
  options.strategy = SharingStrategy::kPushDown;
  Engine engine(options);
  ContinuousQuery q1 = PlainQuery(2);
  q1.selection_a = Predicate::GreaterThan(0.5);
  ContinuousQuery q2 = PlainQuery(4);
  q2.selection_a = Predicate::GreaterThan(0.9);
  ASSERT_TRUE(engine.RegisterQuery(q1).valid());
  EXPECT_FALSE(engine.RegisterQuery(q2).valid());
  EXPECT_NE(engine.last_error().find("shared selection"), std::string::npos);
  ContinuousQuery q3 = PlainQuery(4);
  q3.selection_a = Predicate::GreaterThan(0.5);
  EXPECT_TRUE(engine.RegisterQuery(q3).valid());
}

// A query registered on an already-running engine (tuples pushed before
// and after) delivers exactly the oracle results over the
// post-registration suffix — for the state-slice chain (in-place migration
// in deterministic mode) and the pull-up/push-down baselines
// (drain-rebuild), in deterministic and sharded execution modes. Sharded
// mode needs an equi-key predicate and always rebuilds.
class EngineMidStreamTest
    : public ::testing::TestWithParam<
          std::tuple<SharingStrategy, ExecutionMode>> {};

TEST_P(EngineMidStreamTest, RegisterMidStreamDeliversSuffixOracle) {
  const auto [strategy, mode] = GetParam();
  Workload workload = SmallWorkload(17);
  if (mode == ExecutionMode::kSharded) RekeyForEquiJoin(&workload, 16, 17);
  Engine::Options options = BaseOptions(workload);
  options.strategy = strategy;
  options.mode = mode;
  options.shard_count = 3;
  Engine engine(options);

  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(6, "Q2"));
  ASSERT_TRUE(h1.valid());
  ASSERT_TRUE(h2.valid());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  ASSERT_LT(split, merged.size());
  PushRange(&engine, merged, 0, split);

  // Online registration: window 4 s is interior to the [2, 6) slice.
  const QueryHandle h3 = engine.RegisterQuery(PlainQuery(4, "Q3"));
  ASSERT_TRUE(h3.valid()) << engine.last_error();
  const TimePoint cutoff = engine.ResultsFrom(h3);
  EXPECT_GT(cutoff, 0);
  EXPECT_LE(cutoff, merged[split].timestamp);

  PushRange(&engine, merged, split, merged.size());
  engine.Finish();

  if (strategy == SharingStrategy::kStateSlice &&
      mode == ExecutionMode::kDeterministic) {
    // Served in place by ChainMigrator: zero rebuilds, existing queries
    // keep full continuity.
    EXPECT_EQ(engine.rebuilds(), 0u);
    EXPECT_EQ(engine.migrations(), 1u);
  } else {
    EXPECT_EQ(engine.rebuilds(), 1u);
  }

  // The newcomer sees exactly the join over the post-registration suffix.
  EXPECT_EQ(engine.CollectedResults(h3),
            SegmentedOracle(workload.stream_a, workload.stream_b,
                            workload.condition, PlainQuery(4), cutoff,
                            engine.rebuild_cutoffs()))
      << "strategy=" << static_cast<int>(strategy)
      << " mode=" << static_cast<int>(mode);

  // Survivors: full oracle under migration; segmented by the rebuild
  // cutoff otherwise.
  EXPECT_EQ(engine.CollectedResults(h1),
            SegmentedOracle(workload.stream_a, workload.stream_b,
                            workload.condition, PlainQuery(2), 0,
                            engine.rebuild_cutoffs()));
  EXPECT_EQ(engine.CollectedResults(h2),
            SegmentedOracle(workload.stream_a, workload.stream_b,
                            workload.condition, PlainQuery(6), 0,
                            engine.rebuild_cutoffs()));
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndModes, EngineMidStreamTest,
    ::testing::Combine(::testing::Values(SharingStrategy::kStateSlice,
                                         SharingStrategy::kPullUp,
                                         SharingStrategy::kPushDown),
                       ::testing::Values(ExecutionMode::kDeterministic,
                                         ExecutionMode::kSharded)));

TEST(EngineTest, RegisterMidStreamWithSelectionFallsBackToRebuild) {
  // Selections make the chain ineligible for ChainMigrator, so the engine
  // must take the drain-rebuild path even for state-slice.
  const Workload workload = SmallWorkload(23);
  Engine engine(BaseOptions(workload));
  ContinuousQuery q1 = PlainQuery(2, "Q1");
  q1.selection_a = Predicate::GreaterThan(0.3);
  const QueryHandle h1 = engine.RegisterQuery(q1);
  ASSERT_TRUE(h1.valid());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 3);
  PushRange(&engine, merged, 0, split);
  ContinuousQuery q2 = PlainQuery(5, "Q2");
  q2.selection_a = Predicate::GreaterThan(0.7);
  const QueryHandle h2 = engine.RegisterQuery(q2);
  ASSERT_TRUE(h2.valid()) << engine.last_error();
  PushRange(&engine, merged, split, merged.size());
  engine.Finish();

  EXPECT_EQ(engine.rebuilds(), 1u);
  EXPECT_EQ(engine.migrations(), 0u);
  for (const auto& [handle, query] :
       {std::pair{h1, q1}, std::pair{h2, q2}}) {
    EXPECT_EQ(engine.CollectedResults(handle),
              SegmentedOracle(workload.stream_a, workload.stream_b,
                              workload.condition, query,
                              engine.ResultsFrom(handle),
                              engine.rebuild_cutoffs()))
        << query.DebugString();
  }
}

TEST(EngineTest, UnregisterOnChainKeepsSurvivorsExact) {
  const Workload workload = SmallWorkload(29);
  Engine engine(BaseOptions(workload));
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(4, "Q2"));
  const QueryHandle h3 = engine.RegisterQuery(PlainQuery(8, "Q3"));
  ASSERT_EQ(engine.active_queries(), 3u);

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&engine, merged, 0, split);
  ASSERT_EQ(engine.ChainSlices().size(), 3u);

  const uint64_t q2_at_removal = engine.ResultCount(h2);
  ASSERT_TRUE(engine.UnregisterQuery(h2));
  EXPECT_EQ(engine.rebuilds(), 0u);  // in-place removal
  EXPECT_FALSE(engine.IsActive(h2));

  // Compaction merges the now-unused 4 s boundary (Section 5.3).
  EXPECT_EQ(engine.CompactChain(), 1);
  EXPECT_EQ(engine.ChainSlices().size(), 2u);

  PushRange(&engine, merged, split, merged.size());
  engine.Finish();

  // The removed query's totals froze at removal; survivors stay exact.
  EXPECT_EQ(engine.ResultCount(h2), q2_at_removal);
  EXPECT_EQ(engine.CollectedResults(h1),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(2)));
  EXPECT_EQ(engine.CollectedResults(h3),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(8)));
}

TEST(EngineTest, UnregisterLastQueryIdlesEngineAndDropsTuples) {
  const Workload workload = SmallWorkload(31, 6);
  Engine engine(BaseOptions(workload));
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&engine, merged, 0, split);
  ASSERT_TRUE(engine.UnregisterQuery(h1));
  EXPECT_FALSE(engine.running());

  PushRange(&engine, merged, split, merged.size());
  EXPECT_EQ(engine.dropped_tuples(), merged.size() - split);
  engine.Finish();
  // All pre-removal results were flushed and kept; the dropped suffix
  // contributed nothing.
  auto prefix_of = [&](const std::vector<Tuple>& stream) {
    std::vector<Tuple> prefix;
    for (const Tuple& t : stream) {
      if (t.timestamp < merged[split].timestamp) prefix.push_back(t);
    }
    return prefix;
  };
  EXPECT_EQ(engine.CollectedResults(h1),
            OracleJoin(prefix_of(workload.stream_a),
                       prefix_of(workload.stream_b), workload.condition,
                       PlainQuery(2)));
}

TEST(EngineTest, TuplesBeforeFirstQueryAreDropped) {
  const Workload workload = SmallWorkload(37, 8);
  Engine engine(BaseOptions(workload));
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&engine, merged, 0, split);
  EXPECT_EQ(engine.dropped_tuples(), split);
  EXPECT_FALSE(engine.running());

  const QueryHandle h = engine.RegisterQuery(PlainQuery(3, "Q1"));
  ASSERT_TRUE(h.valid());
  EXPECT_GT(engine.ResultsFrom(h), 0);
  PushRange(&engine, merged, split, merged.size());
  engine.Finish();
  EXPECT_EQ(engine.CollectedResults(h),
            SegmentedOracle(workload.stream_a, workload.stream_b,
                            workload.condition, PlainQuery(3),
                            engine.ResultsFrom(h),
                            engine.rebuild_cutoffs()));
}

TEST(EngineTest, MalformedArrivalsAreRejectedWithReasons) {
  // Ingestion-hardening pins: NaN values, out-of-range or out-of-order
  // timestamps, and negative stream ids bounce with a counted rejection
  // and a one-line reason — never ingested, never a crash, watermark
  // unmoved.
  Engine::Options options;
  options.collect_results = true;
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());

  Tuple ok = A(0, 1.0);
  engine.Push(StreamSide::kA, ok);
  ASSERT_EQ(engine.input_tuples(), 1u);
  const TimePoint at = engine.watermark();

  Tuple nan = A(1, 2.0);
  nan.value = std::numeric_limits<double>::quiet_NaN();
  engine.Push(StreamSide::kA, nan);
  EXPECT_EQ(engine.rejected_tuples(), 1u);
  EXPECT_NE(engine.last_error().find("NaN"), std::string::npos);

  Tuple sentinel = A(2, 2.0);
  sentinel.timestamp = kMaxTime;
  engine.Push(StreamSide::kA, sentinel);
  EXPECT_EQ(engine.rejected_tuples(), 2u);
  EXPECT_NE(engine.last_error().find("out-of-order or out-of-range"),
            std::string::npos);

  Tuple negative = A(3, 2.0);
  engine.Push(/*stream=*/-3, negative);
  EXPECT_EQ(engine.rejected_tuples(), 3u);
  EXPECT_NE(engine.last_error().find("negative stream id"),
            std::string::npos);

  // Per-stream counts index by stream id; the negative id counted only in
  // the total.
  EXPECT_EQ(engine.rejected_by_stream()[static_cast<size_t>(StreamSide::kA)],
            2u);
  EXPECT_EQ(engine.watermark(), at);
  EXPECT_EQ(engine.input_tuples(), 1u);

  // Rejections feed the unified metrics.
  const RunStats stats = engine.Snapshot();
  EXPECT_EQ(stats.rejected_tuples, 3u);
  EXPECT_NE(stats.DebugString().find("rejected=3"), std::string::npos);
}

TEST(EngineTest, MalformedBatchBouncesAsAUnit) {
  // A batch with one bad tuple is rejected whole — no half-ingested
  // prefix — naming the first offending index.
  Engine engine;
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());
  std::vector<Tuple> batch = {A(0, 1.0), A(1, 2.0), A(2, 1.5)};  // disorder
  engine.PushBatch(StreamSide::kA, batch);
  EXPECT_EQ(engine.input_tuples(), 0u);
  EXPECT_EQ(engine.rejected_tuples(), batch.size());
  EXPECT_NE(engine.last_error().find("index 2"), std::string::npos);
  EXPECT_EQ(engine.watermark(), 0);

  batch[2].timestamp = batch[1].timestamp;  // repaired: ties are fine
  engine.PushBatch(StreamSide::kA, batch);
  EXPECT_EQ(engine.input_tuples(), batch.size());
  EXPECT_EQ(engine.rejected_tuples(), 3u);
}

TEST(EngineTest, SubscriptionsDeliverEveryResultAcrossChurn) {
  const Workload workload = SmallWorkload(41);
  Engine engine(BaseOptions(workload));
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  uint64_t q1_callbacks = 0;
  const SubscriptionId sub =
      engine.Subscribe(h1, [&q1_callbacks](const JoinResult&) {
        ++q1_callbacks;
      });
  ASSERT_TRUE(sub.valid());
  EXPECT_FALSE(engine.Subscribe(QueryHandle{424242}, nullptr).valid());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&engine, merged, 0, split);

  // A mid-stream subscription on a freshly registered query.
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(5, "Q2"));
  std::map<std::string, int> q2_multiset;
  const SubscriptionId sub2 =
      engine.Subscribe(h2, [&q2_multiset](const JoinResult& r) {
        ++q2_multiset[JoinPairKey(r)];
      });
  ASSERT_TRUE(sub2.valid());

  PushRange(&engine, merged, split, merged.size());
  engine.Finish();

  // The callback sink saw exactly what the counting sink counted, through
  // the Q2 registration (which splits the chain in place).
  EXPECT_EQ(q1_callbacks, engine.ResultCount(h1));
  EXPECT_EQ(q2_multiset, engine.CollectedResults(h2));
}

TEST(EngineTest, UnsubscribeStopsDelivery) {
  const Workload workload = SmallWorkload(43, 8);
  Engine engine(BaseOptions(workload));
  const QueryHandle h = engine.RegisterQuery(PlainQuery(2, "Q1"));
  uint64_t callbacks = 0;
  const SubscriptionId sub =
      engine.Subscribe(h, [&callbacks](const JoinResult&) { ++callbacks; });

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&engine, merged, 0, split);
  const uint64_t at_unsubscribe = callbacks;
  EXPECT_TRUE(engine.Unsubscribe(sub));
  EXPECT_FALSE(engine.Unsubscribe(sub));  // already gone
  PushRange(&engine, merged, split, merged.size());
  engine.Finish();
  EXPECT_EQ(callbacks, at_unsubscribe);
  EXPECT_GT(engine.ResultCount(h), at_unsubscribe);  // query kept running
}

// The delivery contract: every subscribed callback sees exactly the
// query's ResultCount delta over the subscription's lifetime, in timestamp
// order, through an in-place split (deterministic mode; sharded mode
// rebuilds there), a drain-rebuild, an unsubscribe of one of two callbacks
// and a Checkpoint/Restore.
class DeliveryContractTest : public ::testing::TestWithParam<ExecutionMode> {
};

// Counts one subscription's callbacks and checks their timestamp order.
struct Delivery {
  uint64_t count = 0;
  TimePoint last = kMinTime;
  bool ordered = true;
  ResultCallback Callback() {
    return [this](const JoinResult& r) {
      ++count;
      ordered &= r.timestamp() >= last;
      last = r.timestamp();
    };
  }
};

TEST_P(DeliveryContractTest, CallbacksSeeExactlyTheirResultCountDelta) {
  Workload workload = SmallWorkload(97, 16);
  RekeyForEquiJoin(&workload, /*key_domain=*/8, /*seed=*/97);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const auto cut = [&merged](int sixth) {
    return StrictIncreaseAt(merged, merged.size() * sixth / 6);
  };
  Engine::Options options = BaseOptions(workload);
  options.mode = GetParam();
  options.shard_count = 2;
  Engine engine(options);
  const QueryHandle q1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(6, "Q2")).valid());
  Delivery kept, dropped, late;
  ASSERT_TRUE(engine.Subscribe(q1, kept.Callback()).valid());
  const SubscriptionId drop = engine.Subscribe(q1, dropped.Callback());
  ASSERT_TRUE(drop.valid());

  PushRange(&engine, merged, 0, cut(1));
  // A 4 s window splits the [2, 6) slice (in place when deterministic).
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(4, "Q3")).valid());
  PushRange(&engine, merged, cut(1), cut(2));
  engine.Drain();  // no result in flight across the unsubscribe
  const uint64_t at_unsubscribe = engine.ResultCount(q1);
  ASSERT_TRUE(engine.Unsubscribe(drop));
  // A filtered query drain-rebuilds the plan.
  ContinuousQuery filtered = PlainQuery(3, "Q4");
  filtered.selection_a = Predicate::GreaterThan(0.5);
  ASSERT_TRUE(engine.RegisterQuery(filtered).valid());
  EXPECT_GE(engine.rebuilds(), 1u);
  PushRange(&engine, merged, cut(2), cut(4));

  std::string snapshot;
  ASSERT_TRUE(engine.Checkpoint(&snapshot)) << engine.last_error();
  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
  const uint64_t at_restore = restored.ResultCount(q1);
  ASSERT_TRUE(restored.Subscribe(q1, late.Callback()).valid());
  PushRange(&engine, merged, cut(4), merged.size());
  PushRange(&restored, merged, cut(4), merged.size());
  engine.Finish();
  restored.Finish();

  if (GetParam() == ExecutionMode::kDeterministic) {
    EXPECT_GE(engine.migrations(), 1u);
  }
  EXPECT_GT(dropped.count, 0u);
  EXPECT_EQ(dropped.count, at_unsubscribe);
  EXPECT_EQ(kept.count, engine.ResultCount(q1));
  EXPECT_GT(kept.count, at_unsubscribe);
  EXPECT_EQ(late.count, restored.ResultCount(q1) - at_restore);
  EXPECT_GT(late.count, 0u);
  EXPECT_EQ(restored.ResultCount(q1), engine.ResultCount(q1));
  for (const Delivery* d : {&kept, &dropped, &late}) {
    EXPECT_TRUE(d->ordered);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DeliveryContractTest,
                         ::testing::Values(ExecutionMode::kDeterministic,
                                           ExecutionMode::kSharded));

TEST(EngineTest, ManualPollMode) {
  const Workload workload = SmallWorkload(47, 8);
  Engine::Options options = BaseOptions(workload);
  options.auto_drain = false;
  Engine engine(options);
  const QueryHandle h = engine.RegisterQuery(PlainQuery(4, "Q1"));

  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&engine, merged, 0, merged.size());
  // Nothing processed yet: results appear only as the caller polls.
  EXPECT_EQ(engine.ResultCount(h), 0u);
  uint64_t polled = 0;
  while (engine.Poll(64) > 0) ++polled;
  EXPECT_GT(polled, 0u);
  engine.Drain();
  engine.Finish();
  EXPECT_EQ(engine.CollectedResults(h),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(4)));
}

TEST(EngineTest, ShardedMatchesDeterministic) {
  Workload workload = SmallWorkload(53);
  RekeyForEquiJoin(&workload, 16, 53);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  std::map<std::string, int> results[2];
  for (int sharded = 0; sharded < 2; ++sharded) {
    Engine::Options options = BaseOptions(workload);
    options.mode = sharded == 1 ? ExecutionMode::kSharded
                                : ExecutionMode::kDeterministic;
    options.shard_count = 3;
    Engine engine(options);
    ContinuousQuery q = PlainQuery(4, "Q1");
    q.selection_a = Predicate::GreaterThan(0.2);
    const QueryHandle h = engine.RegisterQuery(q);
    PushRange(&engine, merged, 0, merged.size());
    engine.Finish();
    results[sharded] = engine.CollectedResults(h);
    EXPECT_FALSE(results[sharded].empty());
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(EngineTest, SnapshotAggregatesAcrossRebuilds) {
  const Workload workload = SmallWorkload(59);
  Engine::Options options = BaseOptions(workload);
  options.strategy = SharingStrategy::kPullUp;  // every churn op rebuilds
  Engine engine(options);
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));

  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t s1 = StrictIncreaseAt(merged, merged.size() / 3);
  const size_t s2 = StrictIncreaseAt(merged, 2 * merged.size() / 3);
  PushRange(&engine, merged, 0, s1);
  const RunStats before = engine.Snapshot();
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(6, "Q2"));
  PushRange(&engine, merged, s1, s2);
  ASSERT_TRUE(engine.UnregisterQuery(h2));
  PushRange(&engine, merged, s2, merged.size());
  engine.Finish();

  EXPECT_EQ(engine.rebuilds(), 2u);
  ASSERT_EQ(engine.rebuild_cutoffs().size(), 2u);
  const RunStats after = engine.Snapshot();
  EXPECT_EQ(after.input_tuples, merged.size());
  EXPECT_GE(after.events_processed, before.events_processed);
  EXPECT_GE(after.cost.Total(), before.cost.Total());
  EXPECT_EQ(after.results_delivered,
            engine.ResultCount(h1) + engine.ResultCount(h2));
  // Q1's cumulative delivery is the segment-split oracle.
  EXPECT_EQ(engine.CollectedResults(h1),
            SegmentedOracle(workload.stream_a, workload.stream_b,
                            workload.condition, PlainQuery(2), 0,
                            engine.rebuild_cutoffs()));
}

TEST(EngineTest, RegistrationAdvancesWatermarkPastTies) {
  // Registering mid-stream advances the session watermark to the cutoff,
  // so a later arrival can never tie with pre-registration tuples — both
  // churn paths then deliver exactly the post-cutoff join (a tie would
  // otherwise leak a pre-cutoff pair into the rebuilt plan).
  const Workload workload = SmallWorkload(67, 6);
  Engine::Options options = BaseOptions(workload);
  options.strategy = SharingStrategy::kPullUp;  // rebuild path
  Engine engine(options);
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h1.valid());
  Tuple a = workload.stream_a.front();
  a.timestamp = SecondsToTicks(1.0);
  engine.Push(StreamSide::kA, a);
  const TimePoint before = engine.watermark();
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(4, "Q2"));
  ASSERT_TRUE(h2.valid());
  EXPECT_EQ(engine.watermark(), before + 1);
  EXPECT_EQ(engine.ResultsFrom(h2), engine.watermark());
  // A tuple tying with the pre-registration arrival is now out of order:
  // rejected (counted, reasoned), never ingested, watermark unmoved.
  Tuple b = workload.stream_b.front();
  b.timestamp = before;
  const TimePoint at = engine.watermark();
  engine.Push(StreamSide::kB, b);
  EXPECT_EQ(engine.rejected_tuples(), 1u);
  EXPECT_EQ(engine.rejected_by_stream()[static_cast<size_t>(StreamSide::kB)],
            1u);
  EXPECT_NE(engine.last_error().find("out-of-order"), std::string::npos);
  EXPECT_EQ(engine.watermark(), at);
}

TEST(EngineTest, LazyBuildDoesNotFakeACutoff) {
  // A plan built lazily (PlanDot) without any pushed tuple must not make
  // the next registration look mid-stream: results_from stays 0 and the
  // query sees pairs involving timestamp-0 tuples.
  const Workload workload = SmallWorkload(71, 6);
  Engine engine(BaseOptions(workload));
  const QueryHandle h1 = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h1.valid());
  EXPECT_NE(engine.PlanDot(), "");  // builds the plan, nothing pushed
  const QueryHandle h2 = engine.RegisterQuery(PlainQuery(4, "Q2"));
  ASSERT_TRUE(h2.valid());
  EXPECT_EQ(engine.ResultsFrom(h2), 0);
  EXPECT_TRUE(engine.rebuild_cutoffs().empty());

  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&engine, merged, 0, merged.size());
  engine.Finish();
  EXPECT_EQ(engine.CollectedResults(h2),
            OracleJoin(workload.stream_a, workload.stream_b,
                       workload.condition, PlainQuery(4)));
}

TEST(EngineTest, PlanDotAndChainSlices) {
  const Workload workload = SmallWorkload(61, 6);
  Engine engine(BaseOptions(workload));
  EXPECT_EQ(engine.PlanDot(), "");  // idle
  engine.RegisterQuery(PlainQuery(2, "Q1"));
  engine.RegisterQuery(PlainQuery(4, "Q2"));
  const std::string dot = engine.PlanDot();  // builds lazily
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("slice"), std::string::npos);
  const auto slices = engine.ChainSlices();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].range.start, 0);
  EXPECT_EQ(slices[0].range.end, SecondsToTicks(2));
  EXPECT_EQ(slices[1].range.end, SecondsToTicks(4));
}

TEST(EngineTest, SnapshotOfLiveSessionCarriesPhysicalCounters) {
  // Equi-key chains probe through the key index, so a live session has
  // done key lookups. Snapshot() must report them while the plan runs,
  // and a restored engine (whose accumulators come from the checkpoint)
  // must report the same totals before it does any work of its own.
  Workload workload = SmallWorkload(71, 6);
  RekeyForEquiJoin(&workload, 16, 71);
  Engine engine(BaseOptions(workload));
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(4, "Q2")).valid());
  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&engine, merged, 0, merged.size());

  const CostCounters live = engine.Snapshot().cost;
  EXPECT_GT(live.GetPhysical(PhysCategory::kKeyLookup), 0u);
  EXPECT_GT(live.GetPhysical(PhysCategory::kEntryVisit), 0u);

  std::string snapshot;
  ASSERT_TRUE(engine.Checkpoint(&snapshot)) << engine.last_error();
  Engine restored(BaseOptions(workload));
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
  const CostCounters after = restored.Snapshot().cost;
  for (int c = 0; c < static_cast<int>(PhysCategory::kPhysCategoryCount);
       ++c) {
    const auto category = static_cast<PhysCategory>(c);
    EXPECT_EQ(after.GetPhysical(category), live.GetPhysical(category))
        << CostCounters::Name(category);
  }
  EXPECT_EQ(after.Total(), live.Total());
}

// Deterministic memory sampling: one sample per sample_interval boundary
// crossed by an arrival (taken before that arrival is processed), plus one
// at the last arrival's timestamp when the plan is torn down.
TEST(EngineTest, SamplesOncePerIntervalCrossedPlusTeardown) {
  Engine::Options options;
  options.condition = JoinCondition::EquiKey();
  Engine engine(options);
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(1, "Q1")).valid());
  for (const Tuple& t : {A(0, 0.5), testing::B(0, 0.7), A(1, 3.2),
                         testing::B(1, 3.9)}) {
    engine.Push(t.side, t);
  }
  engine.Finish();
  const RunStats stats = engine.Snapshot();
  const std::vector<TimePoint> want = {0, SecondsToTicks(1.0),
                                       SecondsToTicks(2.0),
                                       SecondsToTicks(3.0),
                                       SecondsToTicks(3.9)};
  ASSERT_EQ(stats.memory_samples.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(stats.memory_samples[i].time, want[i]) << i;
  }
  EXPECT_EQ(stats.memory_samples[0].state_tuples, 0u);  // before 0.5 s
  EXPECT_EQ(stats.memory_samples[1].state_tuples, 2u);  // before 3.2 s
}

TEST(RunStatsTest, AvgAndMaxStateHelpers) {
  RunStats stats;
  stats.memory_samples = {{0, 10, 0}, {kTicksPerSecond, 20, 0},
                          {2 * kTicksPerSecond, 30, 0}};
  EXPECT_DOUBLE_EQ(stats.AvgStateTuples(), 20.0);
  EXPECT_DOUBLE_EQ(stats.AvgStateTuples(kTicksPerSecond), 25.0);
  EXPECT_EQ(stats.MaxStateTuples(), 30u);
  EXPECT_DOUBLE_EQ(RunStats{}.AvgStateTuples(), 0.0);
}

TEST(EngineTest, SnapshotDebugStringNamesTheMode) {
  Workload workload = SmallWorkload(73, 2);
  RekeyForEquiJoin(&workload, 16, 73);
  for (const ExecutionMode mode :
       {ExecutionMode::kDeterministic, ExecutionMode::kSharded}) {
    Engine::Options options = BaseOptions(workload);
    options.mode = mode;
    options.shard_count = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.RegisterQuery(PlainQuery(1, "Q1")).valid());
    const std::vector<Tuple> merged = MergedArrivals(workload);
    PushRange(&engine, merged, 0, merged.size());
    engine.Finish();
    const std::string line = engine.Snapshot().DebugString();
    if (mode == ExecutionMode::kSharded) {
      EXPECT_EQ(line.rfind("sharded workers=2 ", 0), 0u) << line;
    } else {
      EXPECT_EQ(line.rfind("deterministic workers=1 ", 0), 0u) << line;
    }
  }
}

}  // namespace
}  // namespace stateslice
