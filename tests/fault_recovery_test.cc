// Crash-recovery fuzz: feed → checkpoint periodically → die at an injected
// fault point → restore the latest snapshot into a fresh engine → replay
// the tail → compare against an uninterrupted oracle run. Exercised across
// execution modes × window kinds × join conditions, seeded for replay.
//
// Only meaningful in a fault-test build (cmake --preset faults /
// -DSTATESLICE_FAULT_TEST=ON): elsewhere STATESLICE_FAULT_POINT compiles
// to nothing and every test here skips. Environment knobs:
//   STATESLICE_FAULT_SEED     base seed (default 1; CI nightly varies it)
//   STATESLICE_FAULT_NIGHTLY  iteration multiplier (default 1)
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/common/fault_point.h"
#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

#if !defined(STATESLICE_FAULT_TEST)

TEST(FaultRecoveryTest, RequiresFaultBuild) {
  GTEST_SKIP() << "fault points compiled out; rebuild with "
                  "-DSTATESLICE_FAULT_TEST=ON (preset: faults)";
}

#else  // STATESLICE_FAULT_TEST

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

// Simulated process death, thrown from a fault point on the caller thread.
struct SimulatedCrash {
  std::string site;
};

// Counts every fault-point hit; when armed, throws SimulatedCrash at the
// Nth hit of one site. This suite only ever arms caller-thread sites
// (throwing through a worker run loop is std::terminate) — worker-seam
// counts document coverage instead. Worker threads hit fault points
// concurrently with the caller, so the whole injector is mutex-guarded.
class CrashInjector : public faulttest::FaultInjector {
 public:
  void Arm(std::string site, uint64_t nth_hit) {
    const std::lock_guard<std::mutex> lock(mu_);
    armed_site_ = std::move(site);
    remaining_ = nth_hit;
  }

  void OnFaultPoint(const char* site) override {
    const std::lock_guard<std::mutex> lock(mu_);
    ++counts_[site];
    if (!armed_site_.empty() && armed_site_ == site && --remaining_ == 0) {
      armed_site_.clear();
      throw SimulatedCrash{site};
    }
  }

  uint64_t count(const std::string& site) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = counts_.find(site);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::string armed_site_;
  uint64_t remaining_ = 0;
  std::map<std::string, uint64_t> counts_;
};

// RAII install/uninstall around one driven engine.
class InjectorScope {
 public:
  explicit InjectorScope(CrashInjector* injector) {
    faulttest::InstallInjector(injector);
  }
  ~InjectorScope() { faulttest::InstallInjector(nullptr); }
};

struct FuzzConfig {
  ExecutionMode mode = ExecutionMode::kDeterministic;
  WindowKind kind = WindowKind::kTime;
  bool equi = false;  // EquiKey (true) or the workload's ModSum (false)
  const char* name = "";
};

Engine::Options MakeOptions(const FuzzConfig& config,
                            const Workload& workload) {
  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.mode = config.mode;
  if (config.mode == ExecutionMode::kSharded) options.shard_count = 2;
  return options;
}

std::vector<ContinuousQuery> MakeQueries(const FuzzConfig& config) {
  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "Q1";
  queries[1].name = "Q2";
  if (config.kind == WindowKind::kTime) {
    queries[0].window = WindowSpec::TimeSeconds(2);
    queries[1].window = WindowSpec::TimeSeconds(4);
  } else {
    queries[0].window = WindowSpec::Count(40);
    queries[1].window = WindowSpec::Count(90);
  }
  return queries;
}

// One fuzz iteration: returns the site counts it observed (for coverage
// assertions by the caller).
void RunCrashRecovery(uint64_t seed, const FuzzConfig& config) {
  SCOPED_TRACE(std::string(config.name) + " seed=" + std::to_string(seed));
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 25;
  spec.duration_s = 10;
  spec.seed = seed * 7919 + 11;
  Workload workload = GenerateWorkload(spec);
  if (config.equi) {
    RekeyForEquiJoin(&workload, /*key_domain=*/16, seed * 31 + 7);
  }
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const Engine::Options options = MakeOptions(config, workload);
  const std::vector<ContinuousQuery> queries = MakeQueries(config);

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  // Crash site and position: die inside ingestion or inside a checkpoint
  // write, somewhere in the second half of the feed (so at least one
  // snapshot exists and a real tail remains).
  const bool crash_in_checkpoint = (rng() % 4) == 0;
  const size_t crash_at =
      merged.size() / 2 + rng() % (merged.size() / 3);
  const size_t checkpoint_every = 40 + rng() % 40;
  // One config in three registers a third query mid-stream so the
  // engine.migrate_* seams and the gate-cutoff snapshot path get fuzzed.
  const bool churn = (rng() % 3) == 0 &&
                     config.mode == ExecutionMode::kDeterministic;
  const size_t churn_at = merged.size() / 3;

  CrashInjector injector;
  std::string snapshot;    // latest durable checkpoint
  size_t snapshot_pos = 0; // merged[] index the snapshot covers
  std::vector<QueryHandle> handles;
  bool crashed = false;

  // --- the run that dies -------------------------------------------------
  {
    Engine engine(options);
    InjectorScope scope(&injector);
    for (const ContinuousQuery& q : queries) {
      const QueryHandle h = engine.RegisterQuery(q);
      ASSERT_TRUE(h.valid()) << engine.last_error();
      handles.push_back(h);
    }
    ASSERT_TRUE(engine.Checkpoint(&snapshot)) << engine.last_error();

    try {
      for (size_t i = 0; i < merged.size(); ++i) {
        if (churn && i == churn_at) {
          ContinuousQuery extra;
          extra.name = "Q3";
          extra.window = queries[0].window;
          const QueryHandle h = engine.RegisterQuery(extra);
          ASSERT_TRUE(h.valid()) << engine.last_error();
          handles.push_back(h);
        }
        if (i > 0 && i % checkpoint_every == 0) {
          if (crash_in_checkpoint && i >= crash_at) {
            injector.Arm("checkpoint.mid_write", 1);
          }
          std::string candidate;
          if (engine.Checkpoint(&candidate)) {
            snapshot = std::move(candidate);
            snapshot_pos = i;
          }
        }
        if (!crash_in_checkpoint && i == crash_at) {
          injector.Arm("engine.push", 1);
        }
        engine.Push(merged[i].side, merged[i]);
      }
    } catch (const SimulatedCrash& crash) {
      crashed = true;
      // The process "died": the engine is abandoned as-is (its destructor
      // must cope with whatever state the crash left behind).
    }
    EXPECT_TRUE(crashed) << "crash site never fired";
    EXPECT_GT(injector.count("engine.push"), 0u);
  }

  // --- recovery ----------------------------------------------------------
  Engine recovered(options);
  ASSERT_TRUE(recovered.Restore(snapshot)) << recovered.last_error();
  // Replay the tail the snapshot does not cover. Mid-stream churn replays
  // at the same position; RegisterQuery on the restored engine mints the
  // same token the original got (tokens count registrations).
  for (size_t i = snapshot_pos; i < merged.size(); ++i) {
    if (churn && i == churn_at && snapshot_pos <= churn_at) {
      // The snapshot predates the mid-stream registration: replaying it
      // re-mints the same token (tokens count registrations), so the
      // crashed run's handle resolves against the recovered engine too.
      ContinuousQuery extra;
      extra.name = "Q3";
      extra.window = queries[0].window;
      const QueryHandle h = recovered.RegisterQuery(extra);
      ASSERT_TRUE(h.valid()) << recovered.last_error();
      ASSERT_TRUE(handles.size() < 3 || h == handles[2]);
    }
    recovered.Push(merged[i].side, merged[i]);
  }
  recovered.Finish();

  // --- uninterrupted oracle ---------------------------------------------
  Engine oracle(options);
  std::vector<QueryHandle> oracle_handles;
  for (const ContinuousQuery& q : queries) {
    oracle_handles.push_back(oracle.RegisterQuery(q));
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (churn && i == churn_at) {
      ContinuousQuery extra;
      extra.name = "Q3";
      extra.window = queries[0].window;
      oracle_handles.push_back(oracle.RegisterQuery(extra));
    }
    oracle.Push(merged[i].side, merged[i]);
  }
  oracle.Finish();

  ASSERT_GE(handles.size(), oracle_handles.size());
  for (size_t q = 0; q < oracle_handles.size(); ++q) {
    EXPECT_EQ(recovered.ResultCount(handles[q]),
              oracle.ResultCount(oracle_handles[q]));
    EXPECT_EQ(recovered.CollectedResults(handles[q]),
              oracle.CollectedResults(oracle_handles[q]));
  }
  EXPECT_EQ(recovered.input_tuples(), oracle.input_tuples());
  EXPECT_EQ(recovered.watermark(), oracle.watermark());
}

class FaultRecoveryFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(FaultRecoveryFuzz, CrashRestoreReplayMatchesOracle) {
  const uint64_t base_seed = EnvOr("STATESLICE_FAULT_SEED", 1);
  const uint64_t iterations = EnvOr("STATESLICE_FAULT_NIGHTLY", 1);
  for (uint64_t i = 0; i < iterations; ++i) {
    RunCrashRecovery(base_seed + i, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesWindowsConditions, FaultRecoveryFuzz,
    ::testing::Values(
        FuzzConfig{ExecutionMode::kDeterministic, WindowKind::kTime, false,
                   "det-time-modsum"},
        FuzzConfig{ExecutionMode::kDeterministic, WindowKind::kTime, true,
                   "det-time-equi"},
        FuzzConfig{ExecutionMode::kDeterministic, WindowKind::kCount, false,
                   "det-count-modsum"},
        FuzzConfig{ExecutionMode::kDeterministic, WindowKind::kCount, true,
                   "det-count-equi"},
        FuzzConfig{ExecutionMode::kSharded, WindowKind::kTime, true,
                   "sharded-time-equi"}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FaultRecoveryTest, CrashInsideRestoreLeavesPoisonNotCorruption) {
  // Die at restore.apply, abandon the half-restored engine, then restore
  // the same snapshot cleanly into another fresh engine.
  WorkloadSpec spec;
  spec.duration_s = 6;
  spec.seed = 97;
  const Workload workload = GenerateWorkload(spec);
  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;

  Engine original(options);
  ContinuousQuery q;
  q.name = "Q1";
  q.window = WindowSpec::TimeSeconds(2);
  const QueryHandle h = original.RegisterQuery(q);
  ASSERT_TRUE(h.valid());
  const std::vector<Tuple> merged = MergedArrivals(workload);
  for (size_t i = 0; i < merged.size() / 2; ++i) {
    original.Push(merged[i].side, merged[i]);
  }
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot));

  CrashInjector injector;
  {
    InjectorScope scope(&injector);
    injector.Arm("restore.apply", 1);
    Engine victim(options);
    EXPECT_THROW((void)victim.Restore(snapshot), SimulatedCrash);
    // Abandoned; destructor must cope.
  }
  EXPECT_EQ(injector.count("restore.apply"), 1u);

  Engine recovered(options);
  ASSERT_TRUE(recovered.Restore(snapshot)) << recovered.last_error();
  for (size_t i = merged.size() / 2; i < merged.size(); ++i) {
    recovered.Push(merged[i].side, merged[i]);
    original.Push(merged[i].side, merged[i]);
  }
  recovered.Finish();
  original.Finish();
  EXPECT_EQ(recovered.CollectedResults(h), original.CollectedResults(h));
}

TEST(FaultRecoveryTest, WorkerSeamCountsAccumulate) {
  // The shard seams (caller-side ingress, worker-side runs) are
  // count-only; prove they are live in a fault build by observing counts
  // from a sharded run.
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 6;
  spec.seed = 101;
  Workload workload = GenerateWorkload(spec);
  RekeyForEquiJoin(&workload, /*key_domain=*/8, /*seed=*/3);
  const std::vector<Tuple> merged = MergedArrivals(workload);

  CrashInjector injector;
  InjectorScope scope(&injector);
  {
    Engine::Options options;
    options.condition = workload.condition;
    options.mode = ExecutionMode::kSharded;
    options.shard_count = 2;
    Engine engine(options);
    ContinuousQuery q;
    q.window = WindowSpec::TimeSeconds(4);
    ASSERT_TRUE(engine.RegisterQuery(q).valid());
    for (const Tuple& t : merged) engine.Push(t.side, t);
    engine.Finish();
    EXPECT_GT(injector.count("shard.push_entry"), 0u);
    EXPECT_GT(injector.count("shard.worker_run"), 0u);
  }
}

#endif  // STATESLICE_FAULT_TEST

}  // namespace
}  // namespace stateslice
