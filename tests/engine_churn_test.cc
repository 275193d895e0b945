// Fuzzed query churn on a live Engine: random register/unregister
// operations mid-stream, across sharing strategies and execution modes,
// with every query's cumulative delivery checked against a fresh oracle
// over its post-registration suffix (segmented by rebuild cutoffs).
//
// Roughly half the churn points additionally checkpoint the engine and
// swap in a freshly-restored replacement, so both churn paths (in-place
// migration and drain-rebuild) are exercised on plans that have crossed a
// serialization boundary; CheckPlanInvariants() pins chain-spec and
// key-index consistency on every restored plan.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::SegmentedOracle;
using ::stateslice::testing::StrictIncreaseAt;

// One registered query's ground truth, tracked by the test harness.
struct TrackedQuery {
  QueryHandle handle;
  ContinuousQuery query;
  TimePoint removed_before = kMaxTime;  // delivery stops at this cutoff
};

struct ChurnConfig {
  SharingStrategy strategy = SharingStrategy::kStateSlice;
  ChainObjective objective = ChainObjective::kMemOpt;
  bool use_lineage = false;
  bool filtered = false;  // some queries carry the shared predicate
  std::string DebugString() const {
    std::string s = "strategy=";
    switch (strategy) {
      case SharingStrategy::kStateSlice: s += "slice"; break;
      case SharingStrategy::kPullUp: s += "pullup"; break;
      case SharingStrategy::kPushDown: s += "pushdown"; break;
      case SharingStrategy::kUnshared: s += "unshared"; break;
    }
    s += objective == ChainObjective::kCpuOpt ? " cpu-opt" : " mem-opt";
    if (use_lineage) s += " lineage";
    if (filtered) s += " filtered";
    return s;
  }
};

ChurnConfig DrawChurnConfig(Rng* rng) {
  ChurnConfig config;
  const SharingStrategy strategies[] = {
      SharingStrategy::kStateSlice, SharingStrategy::kStateSlice,
      SharingStrategy::kPullUp, SharingStrategy::kPushDown,
      SharingStrategy::kUnshared};
  config.strategy = strategies[rng->NextBounded(5)];
  config.objective = rng->NextBounded(4) == 0 ? ChainObjective::kCpuOpt
                                              : ChainObjective::kMemOpt;
  config.filtered = rng->NextBounded(2) == 0;
  config.use_lineage = config.strategy == SharingStrategy::kStateSlice &&
                       config.filtered && rng->NextBounded(2) == 0;
  return config;
}

ContinuousQuery DrawQuery(Rng* rng, const ChurnConfig& config, int serial) {
  ContinuousQuery q;
  q.name = "F" + std::to_string(serial);
  // Windows 0.5 .. 6.0 s in half-second steps; duplicates allowed.
  q.window =
      WindowSpec::TimeSeconds(0.5 * (1 + static_cast<double>(
                                             rng->NextBounded(12))));
  // All filtered queries share one predicate so push-down stays eligible.
  if (config.filtered && rng->NextBounded(2) == 0) {
    q.selection_a = Predicate::GreaterThan(0.4);
  }
  return q;
}

void RunChurnFuzz(uint64_t seed, ExecutionMode mode) {
  Rng rng(seed);
  const ChurnConfig config = DrawChurnConfig(&rng);

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = 15.0 + static_cast<double>(
                                           rng.NextBounded(15));
  wspec.duration_s = 10;
  wspec.join_selectivity = 0.1;
  wspec.seed = rng.NextU64();
  Workload workload = GenerateWorkload(wspec);
  if (mode == ExecutionMode::kSharded) {
    // Key partitioning needs an equi-key predicate; alternate uniform and
    // Zipf-skewed key draws so shard churn also runs under imbalance.
    if (seed % 2 == 0) {
      RekeyForEquiJoin(&workload, 10, seed * 17);
    } else {
      RekeyForEquiJoinZipf(&workload, 10, 1.1, seed * 17);
    }
  }
  const std::vector<Tuple> merged = MergedArrivals(workload);

  Engine::Options options;
  options.strategy = config.strategy;
  options.objective = config.objective;
  options.use_lineage = config.use_lineage;
  options.collect_results = true;
  options.condition = workload.condition;
  options.mode = mode;
  options.shard_count = 1 + static_cast<int>(seed % 3);
  auto engine = std::make_unique<Engine>(options);

  SCOPED_TRACE("seed=" + std::to_string(seed) + " " +
               config.DebugString() + " mode=" + ExecutionModeName(mode));

  std::vector<TrackedQuery> tracked;
  int serial = 0;
  const int initial = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < initial; ++i) {
    TrackedQuery t;
    t.query = DrawQuery(&rng, config, ++serial);
    t.handle = engine->RegisterQuery(t.query);
    ASSERT_TRUE(t.handle.valid()) << engine->last_error();
    tracked.push_back(t);
  }

  // Churn points: 2-4 clean (strictly increasing timestamp) positions.
  const int num_ops = 2 + static_cast<int>(rng.NextBounded(3));
  std::vector<size_t> positions;
  for (int k = 1; k <= num_ops; ++k) {
    positions.push_back(StrictIncreaseAt(
        merged, merged.size() * static_cast<size_t>(k) / (num_ops + 1)));
  }

  size_t fed = 0;
  for (const size_t pos : positions) {
    for (; fed < pos && fed < merged.size(); ++fed) {
      engine->Push(merged[fed].side, merged[fed]);
    }
    if (pos >= merged.size()) break;
    size_t live = 0;
    for (const TrackedQuery& t : tracked) {
      live += engine->IsActive(t.handle) ? 1 : 0;
    }
    const bool unregister = live >= 2 && rng.NextBounded(3) == 0;
    if (unregister) {
      // Remove a random live query; its delivery freezes at the cutoff.
      size_t pick = rng.NextBounded(live);
      for (TrackedQuery& t : tracked) {
        if (!engine->IsActive(t.handle)) continue;
        if (pick-- > 0) continue;
        ASSERT_TRUE(engine->UnregisterQuery(t.handle))
            << engine->last_error();
        t.removed_before = merged[pos].timestamp;
        break;
      }
    } else {
      TrackedQuery t;
      t.query = DrawQuery(&rng, config, ++serial);
      t.handle = engine->RegisterQuery(t.query);
      ASSERT_TRUE(t.handle.valid()) << engine->last_error();
      // The cutoff falls in the tuple-free gap before merged[pos].
      EXPECT_GT(engine->ResultsFrom(t.handle), merged[pos - 1].timestamp);
      EXPECT_LE(engine->ResultsFrom(t.handle), merged[pos].timestamp);
      tracked.push_back(t);
    }
    // Half the churn points round-trip the engine through a checkpoint:
    // the restored replacement (same handles — tokens survive restore)
    // carries the rest of the run, so churned plans must serialize,
    // deserialize, and keep their structural invariants.
    if (rng.NextBounded(2) == 0) {
      std::string snapshot;
      ASSERT_TRUE(engine->Checkpoint(&snapshot)) << engine->last_error();
      auto restored = std::make_unique<Engine>(options);
      ASSERT_TRUE(restored->Restore(snapshot)) << restored->last_error();
      restored->CheckPlanInvariants();
      ASSERT_EQ(restored->input_tuples(), engine->input_tuples());
      ASSERT_EQ(restored->watermark(), engine->watermark());
      ASSERT_EQ(restored->rebuild_cutoffs(), engine->rebuild_cutoffs());
      engine = std::move(restored);
    }
  }
  for (; fed < merged.size(); ++fed) {
    engine->Push(merged[fed].side, merged[fed]);
  }
  engine->Finish();

  // Every query — live or removed — delivered exactly its oracle suffix,
  // segmented by the rebuild cutoffs and truncated at its removal.
  const std::vector<TimePoint>& cutoffs = engine->rebuild_cutoffs();
  for (const TrackedQuery& t : tracked) {
    auto until = [&](const std::vector<Tuple>& stream) {
      std::vector<Tuple> head;
      for (const Tuple& tu : stream) {
        if (tu.timestamp < t.removed_before) head.push_back(tu);
      }
      return head;
    };
    const auto expected = SegmentedOracle(
        until(workload.stream_a), until(workload.stream_b),
        workload.condition, t.query, engine->ResultsFrom(t.handle), cutoffs);
    EXPECT_EQ(engine->CollectedResults(t.handle), expected)
        << t.query.DebugString() << " results_from="
        << engine->ResultsFrom(t.handle);
    uint64_t total = 0;
    for (const auto& [key, count] : expected) total += count;
    EXPECT_EQ(engine->ResultCount(t.handle), total);
  }

  const RunStats stats = engine->Snapshot();
  EXPECT_EQ(stats.input_tuples + engine->dropped_tuples(), merged.size());
}

TEST(EngineChurnFuzzTest, Deterministic) {
  for (uint64_t seed = 1; seed <= 14; ++seed) {
    RunChurnFuzz(seed, ExecutionMode::kDeterministic);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Sharded churn always takes the drain-rebuild path (ChainMigrator would
// have to mutate every replica in lock-step), so every register and
// unregister exercises shard teardown + rebuild + restart.
TEST(EngineChurnFuzzTest, Sharded) {
  for (uint64_t seed = 201; seed <= 208; ++seed) {
    RunChurnFuzz(seed, ExecutionMode::kSharded);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace stateslice
