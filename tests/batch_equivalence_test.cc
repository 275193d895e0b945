// Batch-vs-scalar execution equivalence. Three claims, matching the
// run-at-a-time refactor's order argument (draining a bounded FIFO
// snapshot is the same as popping the events one by one):
//
//  1. The deterministic run-at-a-time machinery is deterministic: any
//     config replayed over the same feed is byte-identical to itself,
//     and single-event PushBatch spans are byte-identical to per-event
//     Push (the two ingestion spellings share one code path). At the
//     default run length the per-event scalar feed is itself the oracle.
//  2. Across run lengths, ingestion batch sizes, and in sharded mode
//     (equi-key matrices), per-query result *multisets* are identical to
//     the oracle's.
//  3. Nothing more: a scalar Push drains the plan to quiescence before
//     the next event enters, while a batch leaves an entry backlog the
//     round-robin scheduler interleaves with downstream work — so
//     delivery order between *independent* results shifts with both the
//     quantum and the ingestion batch size. Result sets never do.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace stateslice {
namespace {

// One engine run's observable output: the per-query delivery sequence seen
// by a subscription callback plus the collected result multisets.
struct RunOutput {
  std::vector<std::vector<std::string>> sequences;  // [query] -> keys
  std::vector<std::map<std::string, int>> collected;
};

enum class IngestMode {
  kScalar,          // per-event Push
  kSpans,           // PushBatch over maximal same-stream spans
  kSingletonSpans,  // PushBatch over one-event spans (must match kScalar)
};

struct FeedConfig {
  ExecutionMode mode = ExecutionMode::kDeterministic;
  int run_length = 0;  // Engine::Options::run_length (0 = defaults)
  IngestMode ingest = IngestMode::kScalar;
};

RunOutput RunEngine(const std::vector<ContinuousQuery>& queries,
                    const JoinCondition& condition,
                    const std::vector<Tuple>& merged,
                    const FeedConfig& config) {
  Engine::Options eopt;
  eopt.strategy = SharingStrategy::kStateSlice;
  eopt.collect_results = true;
  eopt.condition = condition;
  eopt.mode = config.mode;
  eopt.run_length = config.run_length;
  if (config.mode == ExecutionMode::kSharded) eopt.shard_count = 3;
  Engine engine(eopt);

  RunOutput out;
  out.sequences.resize(queries.size());
  // Sharded-mode callbacks fire on the merge worker; one lock keeps the
  // recorders safe whichever thread runs them.
  std::mutex mu;
  std::vector<QueryHandle> handles;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryHandle h = engine.RegisterQuery(queries[i]);
    EXPECT_TRUE(h.valid()) << engine.last_error();
    engine.Subscribe(h, [&out, &mu, i](const JoinResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      out.sequences[i].push_back(JoinPairKey(r));
    });
    handles.push_back(h);
  }

  switch (config.ingest) {
    case IngestMode::kScalar:
      for (const Tuple& t : merged) engine.Push(t.side, t);
      break;
    case IngestMode::kSpans: {
      size_t i = 0;
      while (i < merged.size()) {
        size_t j = i + 1;
        while (j < merged.size() && merged[j].side == merged[i].side) ++j;
        engine.PushBatch(merged[i].side,
                         std::span(merged).subspan(i, j - i));
        i = j;
      }
      break;
    }
    case IngestMode::kSingletonSpans:
      for (size_t i = 0; i < merged.size(); ++i) {
        engine.PushBatch(merged[i].side, std::span(merged).subspan(i, 1));
      }
      break;
  }
  engine.Finish();

  for (const QueryHandle& h : handles) {
    out.collected.push_back(engine.CollectedResults(h));
  }
  return out;
}

std::map<std::string, int> AsMultiset(const std::vector<std::string>& seq) {
  std::map<std::string, int> counts;
  for (const std::string& k : seq) ++counts[k];
  return counts;
}

// Run lengths the matrix sweeps: scalar-degenerate, small, the
// deterministic default (8 — must reproduce the oracle exactly), a
// batched 64, and effectively unbounded (one run per scheduler visit).
constexpr int kRunLengths[] = {1, 4, 8, 64, 1 << 20};

void CheckMatrix(const std::vector<ContinuousQuery>& queries,
                 const JoinCondition& condition,
                 const std::vector<Tuple>& merged) {
  // Oracle: scalar per-event feed, deterministic mode, default run length.
  const RunOutput oracle = RunEngine(queries, condition, merged, FeedConfig{});

  // Claim 1a: replaying the oracle config is byte-identical — the
  // run-at-a-time machinery (DrainRun/OnRun) is deterministic.
  const RunOutput replay = RunEngine(queries, condition, merged, FeedConfig{});
  EXPECT_EQ(replay.sequences, oracle.sequences);
  EXPECT_EQ(replay.collected, oracle.collected);

  // Claim 1b: one-event PushBatch spans are byte-identical to per-event
  // Push — the two ingestion spellings share one code path.
  const RunOutput singleton =
      RunEngine(queries, condition, merged,
                {ExecutionMode::kDeterministic, 0, IngestMode::kSingletonSpans});
  EXPECT_EQ(singleton.sequences, oracle.sequences);
  EXPECT_EQ(singleton.collected, oracle.collected);

  for (const int run_length : kRunLengths) {
    SCOPED_TRACE(::testing::Message() << "run_length=" << run_length);
    const RunOutput scalar =
        RunEngine(queries, condition, merged,
                  {ExecutionMode::kDeterministic, run_length,
                   IngestMode::kScalar});
    const RunOutput batched =
        RunEngine(queries, condition, merged,
                  {ExecutionMode::kDeterministic, run_length,
                   IngestMode::kSpans});
    // At the deterministic default quantum the scalar feed *is* the
    // oracle, so there the sequences must also match it byte for byte.
    if (run_length == 8) {
      EXPECT_EQ(scalar.sequences, oracle.sequences);
    }
    // Claim 2: result multisets are invariant across the run length and
    // the ingestion batch size.
    EXPECT_EQ(scalar.collected, oracle.collected);
    EXPECT_EQ(batched.collected, oracle.collected);
    for (size_t q = 0; q < oracle.sequences.size(); ++q) {
      EXPECT_EQ(AsMultiset(scalar.sequences[q]),
                AsMultiset(oracle.sequences[q]))
          << "scalar query " << q;
      EXPECT_EQ(AsMultiset(batched.sequences[q]),
                AsMultiset(oracle.sequences[q]))
          << "batched query " << q;
    }

    // Sharded: key partitioning needs an equi-key predicate, so the arm
    // runs only on rekeyed matrices. Same multiset claim as above
    // (delivery order across shards depends on merge timing).
    if (condition.kind == JoinCondition::Kind::kEquiKey) {
      const RunOutput sharded =
          RunEngine(queries, condition, merged,
                    {ExecutionMode::kSharded, run_length, IngestMode::kSpans});
      EXPECT_EQ(sharded.collected, oracle.collected);
      for (size_t q = 0; q < oracle.sequences.size(); ++q) {
        EXPECT_EQ(AsMultiset(sharded.sequences[q]),
                  AsMultiset(oracle.sequences[q]))
            << "sharded query " << q;
      }
    }
  }
}

TEST(BatchEquivalenceTest, BinaryChainMatrix) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 18;
  spec.join_selectivity = 0.1;
  const Workload workload = GenerateWorkload(spec);

  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(5);
  queries[1].selection_a = Predicate::WithSelectivity(0.7);

  CheckMatrix(queries, workload.condition, MergedArrivals(workload));
}

// Equi-key rekeys of both matrices: identical claims, plus the sharded
// arm (key partitioning requires equi-key). Zipf skew on the binary one
// drives the hot shard's ring into backpressure.
TEST(BatchEquivalenceTest, BinaryChainEquiKeyMatrix) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 14;
  spec.join_selectivity = 0.1;
  Workload workload = GenerateWorkload(spec);
  RekeyForEquiJoinZipf(&workload, 12, 1.1, 99);

  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(5);
  queries[1].selection_a = Predicate::WithSelectivity(0.7);

  CheckMatrix(queries, workload.condition, MergedArrivals(workload));
}

TEST(BatchEquivalenceTest, ThreeWayTreeEquiKeyMatrix) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 22;
  spec.duration_s = 8;
  spec.join_selectivity = 0.25;
  MultiWorkload workload = GenerateMultiWorkload(spec, 3);
  RekeyForEquiJoin(&workload, 6, 42);

  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(4);
  queries[1].stream_names = {"A", "B", "C"};

  CheckMatrix(queries, workload.condition, MergedArrivals(workload));
}

TEST(BatchEquivalenceTest, ThreeWayTreeMatrix) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 22;
  spec.duration_s = 10;
  spec.join_selectivity = 0.25;
  const MultiWorkload workload = GenerateMultiWorkload(spec, 3);

  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "Q1";
  queries[0].window = WindowSpec::TimeSeconds(2);
  queries[1].name = "Q2";
  queries[1].window = WindowSpec::TimeSeconds(4);
  queries[1].stream_names = {"A", "B", "C"};

  CheckMatrix(queries, workload.condition, MergedArrivals(workload));
}

}  // namespace
}  // namespace stateslice
