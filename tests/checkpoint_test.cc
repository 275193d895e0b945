// Engine::Checkpoint / Engine::Restore: snapshot round-trips across
// execution modes, window kinds and churn histories, and the rejection
// surface for torn/truncated/mismatched snapshots (which must poison the
// engine with a diagnostic, never crash or half-restore).
//
// The core equivalence harness exploits that Checkpoint keeps the source
// engine running: push a prefix, snapshot, restore into a fresh engine,
// then feed BOTH engines the identical tail and compare their delivered
// results — the original engine doubles as the uninterrupted oracle.
#include "src/api/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::StrictIncreaseAt;

Workload SmallWorkload(uint64_t seed = 5, double duration_s = 12) {
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

ContinuousQuery PlainQuery(double window_s, const std::string& name = "") {
  ContinuousQuery q;
  q.name = name;
  q.window = WindowSpec::TimeSeconds(window_s);
  return q;
}

void PushRange(Engine* engine, const std::vector<Tuple>& merged, size_t from,
               size_t to) {
  for (size_t i = from; i < to && i < merged.size(); ++i) {
    engine->Push(merged[i].side, merged[i]);
  }
}

// Re-seals a tampered snapshot body with a fresh CRC so the corruption
// under test is the one the decoder sees (not just "checksum mismatch").
std::string Resealed(std::string body) {
  StateWriter w;
  w.U32(Crc32(body));
  return body + w.data();
}

// Expects Restore(bytes) to fail with `diagnostic` in last_error() and to
// leave a poisoned shell that rejects ingestion, churn and checkpoints but
// keeps answering introspection calls.
void ExpectRejectedAndPoisoned(const Engine::Options& options,
                               const std::string& bytes,
                               const std::string& diagnostic,
                               const std::string& name) {
  Engine restored(options);
  EXPECT_FALSE(restored.Restore(bytes)) << name;
  EXPECT_TRUE(restored.poisoned()) << name;
  EXPECT_NE(restored.last_error().find(diagnostic), std::string::npos)
      << name << ": " << restored.last_error();
  Tuple t;
  t.timestamp = SecondsToTicks(1.0);
  restored.Push(StreamSide::kA, t);
  EXPECT_EQ(restored.input_tuples(), 0u) << name;
  EXPECT_EQ(restored.rejected_tuples(), 1u) << name;
  EXPECT_FALSE(restored.RegisterQuery(PlainQuery(2)).valid()) << name;
  std::string out;
  EXPECT_FALSE(restored.Checkpoint(&out)) << name;
  const RunStats stats = restored.Snapshot();
  EXPECT_EQ(stats.input_tuples, 0u) << name;
  EXPECT_EQ(stats.results_delivered, 0u) << name;
  // Poll/Drain/Finish are safe and idempotent on the poisoned shell.
  EXPECT_EQ(restored.Poll(), 0u) << name;
  restored.Drain();
  restored.Finish();
  restored.Finish();
}

// Full equality of the externally observable per-query surface plus the
// session counters both engines agree on deterministically.
void ExpectSameResults(Engine* restored, Engine* oracle,
                       const std::vector<QueryHandle>& handles) {
  for (const QueryHandle h : handles) {
    EXPECT_EQ(restored->IsActive(h), oracle->IsActive(h));
    EXPECT_EQ(restored->ResultsFrom(h), oracle->ResultsFrom(h));
    EXPECT_EQ(restored->ResultCount(h), oracle->ResultCount(h));
    EXPECT_EQ(restored->CollectedResults(h), oracle->CollectedResults(h));
  }
  EXPECT_EQ(restored->watermark(), oracle->watermark());
  EXPECT_EQ(restored->input_tuples(), oracle->input_tuples());
  EXPECT_EQ(restored->dropped_tuples(), oracle->dropped_tuples());
  EXPECT_EQ(restored->rejected_tuples(), oracle->rejected_tuples());
  const RunStats rs = restored->Snapshot();
  const RunStats os = oracle->Snapshot();
  EXPECT_EQ(rs.input_tuples, os.input_tuples);
  EXPECT_EQ(rs.results_delivered, os.results_delivered);
}

// Prefix / snapshot / tail-into-both harness shared by the mode and
// window-kind round-trip tests.
void RoundTrip(Engine::Options options, std::vector<ContinuousQuery> queries,
               const std::vector<Tuple>& merged, bool strict_order) {
  Engine original(options);
  std::vector<QueryHandle> handles;
  for (const ContinuousQuery& q : queries) {
    const QueryHandle h = original.RegisterQuery(q);
    ASSERT_TRUE(h.valid()) << original.last_error();
    handles.push_back(h);
  }
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&original, merged, 0, split);

  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();
  EXPECT_FALSE(original.finished());  // checkpoint keeps the engine live

  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
  EXPECT_FALSE(restored.poisoned());
  EXPECT_EQ(restored.watermark(), original.watermark());
  EXPECT_EQ(restored.active_queries(), original.active_queries());

  // Deterministic mode delivers an identical result *sequence*; record it
  // via subscriptions on both engines (not part of the snapshot, so both
  // attach fresh ones here).
  std::vector<std::string> restored_seq, original_seq;
  if (strict_order) {
    for (const QueryHandle h : handles) {
      ASSERT_TRUE(restored
                      .Subscribe(h,
                                 [&restored_seq](const JoinResult& r) {
                                   restored_seq.push_back(JoinPairKey(r));
                                 })
                      .valid());
      ASSERT_TRUE(original
                      .Subscribe(h,
                                 [&original_seq](const JoinResult& r) {
                                   original_seq.push_back(JoinPairKey(r));
                                 })
                      .valid());
    }
  }

  PushRange(&restored, merged, split, merged.size());
  PushRange(&original, merged, split, merged.size());
  restored.Finish();
  original.Finish();

  if (strict_order) {
    EXPECT_EQ(restored_seq, original_seq);
  }
  ExpectSameResults(&restored, &original, handles);
  EXPECT_TRUE(restored.finished());
}

TEST(CheckpointTest, RoundTripDeterministicMidStream) {
  const Workload workload = SmallWorkload(5);
  RoundTrip(BaseOptions(workload),
            {PlainQuery(2, "Q1"), PlainQuery(4, "Q2"), PlainQuery(6, "Q3")},
            MergedArrivals(workload), /*strict_order=*/true);
}

TEST(CheckpointTest, RoundTripCpuOptChain) {
  const Workload workload = SmallWorkload(7);
  Engine::Options options = BaseOptions(workload);
  options.objective = ChainObjective::kCpuOpt;
  RoundTrip(options, {PlainQuery(2, "Q1"), PlainQuery(5, "Q2")},
            MergedArrivals(workload), /*strict_order=*/true);
}

TEST(CheckpointTest, RoundTripWithLineage) {
  const Workload workload = SmallWorkload(9);
  Engine::Options options = BaseOptions(workload);
  options.use_lineage = true;
  std::vector<ContinuousQuery> queries = {PlainQuery(2, "Q1"),
                                          PlainQuery(4, "Q2")};
  queries[1].selection_a = Predicate::GreaterThan(0.3);
  RoundTrip(options, std::move(queries), MergedArrivals(workload),
            /*strict_order=*/true);
}

TEST(CheckpointTest, RoundTripCountWindows) {
  const Workload workload = SmallWorkload(11);
  std::vector<ContinuousQuery> queries(2);
  queries[0].name = "C1";
  queries[0].window = WindowSpec::Count(40);
  queries[1].name = "C2";
  queries[1].window = WindowSpec::Count(90);
  RoundTrip(BaseOptions(workload), std::move(queries),
            MergedArrivals(workload), /*strict_order=*/true);
}

TEST(CheckpointTest, RoundTripSharded) {
  // Sharded mode serves equi-key time-window workloads only.
  Workload workload = SmallWorkload(17);
  RekeyForEquiJoin(&workload, /*key_domain=*/16, /*seed=*/17 * 31 + 7);
  Engine::Options options = BaseOptions(workload);
  options.mode = ExecutionMode::kSharded;
  options.shard_count = 2;
  RoundTrip(options, {PlainQuery(2, "Q1"), PlainQuery(4, "Q2")},
            MergedArrivals(workload), /*strict_order=*/false);
}

TEST(CheckpointTest, RoundTripNonStateSliceStrategies) {
  const Workload workload = SmallWorkload(19, 8);
  for (const SharingStrategy strategy :
       {SharingStrategy::kPullUp, SharingStrategy::kPushDown,
        SharingStrategy::kUnshared}) {
    Engine::Options options = BaseOptions(workload);
    options.strategy = strategy;
    std::vector<ContinuousQuery> queries = {PlainQuery(2, "Q1"),
                                            PlainQuery(4, "Q2")};
    if (strategy == SharingStrategy::kPushDown) {
      // Push-down wants a shared selection to push below the join.
      queries[0].selection_a = Predicate::GreaterThan(0.2);
      queries[1].selection_a = Predicate::GreaterThan(0.2);
    }
    RoundTrip(options, std::move(queries), MergedArrivals(workload),
              /*strict_order=*/true);
  }
}

TEST(CheckpointTest, RoundTripMultiwayTree) {
  // Three-stream left-deep tree (num_levels > 1): the snapshot carries no
  // chain section and the restore recomputes the tree.
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 8;
  spec.seed = 23;
  const MultiWorkload workload = GenerateMultiWorkload(spec, 3);
  Engine::Options options;
  options.condition = workload.condition;
  options.collect_results = true;
  ContinuousQuery q;
  q.name = "M1";
  q.window = WindowSpec::TimeSeconds(2);
  q.stream_names = {"S0", "S1", "S2"};
  RoundTrip(options, {q}, MergedArrivals(workload), /*strict_order=*/true);
}

TEST(CheckpointTest, RoundTripAfterChurnKeepsGatesAndTotals) {
  // Mid-stream registration (migration installs a fresh-start gate),
  // removal (the retired entry keeps its totals) and compaction all survive
  // the snapshot.
  const Workload workload = SmallWorkload(29);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  Engine::Options options = BaseOptions(workload);
  Engine original(options);
  const QueryHandle h1 = original.RegisterQuery(PlainQuery(2, "Q1"));
  const QueryHandle h2 = original.RegisterQuery(PlainQuery(6, "Q2"));
  ASSERT_TRUE(h1.valid() && h2.valid());

  const size_t third = StrictIncreaseAt(merged, merged.size() / 3);
  PushRange(&original, merged, 0, third);
  const QueryHandle h3 = original.RegisterQuery(PlainQuery(4, "Q3"));
  ASSERT_TRUE(h3.valid()) << original.last_error();
  EXPECT_GT(original.ResultsFrom(h3), 0);

  const size_t half = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&original, merged, third, half);
  ASSERT_TRUE(original.UnregisterQuery(h1));
  original.CompactChain();
  const uint64_t q1_final = original.ResultCount(h1);
  EXPECT_GT(q1_final, 0u);

  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();

  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
  // The removed query's totals survive as a retired entry.
  EXPECT_FALSE(restored.IsActive(h1));
  EXPECT_EQ(restored.ResultCount(h1), q1_final);
  EXPECT_EQ(restored.CollectedResults(h1), original.CollectedResults(h1));
  EXPECT_EQ(restored.migrations(), original.migrations());
  EXPECT_EQ(restored.rebuilds(), original.rebuilds());
  EXPECT_EQ(restored.rebuild_cutoffs(), original.rebuild_cutoffs());
  restored.CheckPlanInvariants();

  PushRange(&restored, merged, half, merged.size());
  PushRange(&original, merged, half, merged.size());
  restored.Finish();
  original.Finish();
  ExpectSameResults(&restored, &original, {h1, h2, h3});
}

TEST(CheckpointTest, RestoredChainMatchesOriginalStructure) {
  const Workload workload = SmallWorkload(31);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  Engine::Options options = BaseOptions(workload);
  Engine original(options);
  ASSERT_TRUE(original.RegisterQuery(PlainQuery(2, "Q1")).valid());
  ASSERT_TRUE(original.RegisterQuery(PlainQuery(5, "Q2")).valid());
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&original, merged, 0, split);
  // Mid-stream registration leaves a migration-split boundary behind.
  ASSERT_TRUE(original.RegisterQuery(PlainQuery(3, "Q3")).valid());

  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();
  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();

  const std::vector<Engine::SliceInfo> original_slices =
      original.ChainSlices();
  const std::vector<Engine::SliceInfo> restored_slices =
      restored.ChainSlices();
  ASSERT_EQ(original_slices.size(), restored_slices.size());
  for (size_t i = 0; i < original_slices.size(); ++i) {
    EXPECT_TRUE(original_slices[i].range == restored_slices[i].range);
    EXPECT_EQ(original_slices[i].state_tuples,
              restored_slices[i].state_tuples);
  }
  restored.CheckPlanInvariants();
}

TEST(CheckpointTest, IdleAndFinishedEnginesRoundTrip) {
  // Empty engine.
  {
    Engine original;
    std::string snapshot;
    ASSERT_TRUE(original.Checkpoint(&snapshot));
    Engine restored;
    ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
    EXPECT_EQ(restored.active_queries(), 0u);
    EXPECT_FALSE(restored.running());
  }
  // Registered but never pushed: no plan section; the restored engine
  // builds lazily on first push, exactly like the original would.
  {
    Engine original;
    const QueryHandle h = original.RegisterQuery(PlainQuery(2, "Q1"));
    ASSERT_TRUE(h.valid());
    std::string snapshot;
    ASSERT_TRUE(original.Checkpoint(&snapshot));
    Engine restored;
    ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
    EXPECT_TRUE(restored.IsActive(h));
    EXPECT_FALSE(restored.running());
    Tuple t;
    t.timestamp = SecondsToTicks(1.0);
    restored.Push(StreamSide::kA, t);
    EXPECT_EQ(restored.input_tuples(), 1u);
  }
  // Finished engine: terminal state round-trips, counts stay readable.
  {
    const Workload workload = SmallWorkload(37, 6);
    Engine original(BaseOptions(workload));
    const QueryHandle h = original.RegisterQuery(PlainQuery(2, "Q1"));
    ASSERT_TRUE(h.valid());
    const std::vector<Tuple> merged = MergedArrivals(workload);
    PushRange(&original, merged, 0, merged.size());
    original.Finish();
    std::string snapshot;
    ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();
    Engine restored(BaseOptions(workload));
    ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
    EXPECT_TRUE(restored.finished());
    EXPECT_EQ(restored.ResultCount(h), original.ResultCount(h));
    EXPECT_EQ(restored.CollectedResults(h), original.CollectedResults(h));
    restored.Finish();  // idempotent on a restored-finished engine
  }
}

TEST(CheckpointTest, CorruptSnapshotsRejectWithDiagnosticsAndPoison) {
  const Workload workload = SmallWorkload(41, 6);
  Engine original(BaseOptions(workload));
  ASSERT_TRUE(original.RegisterQuery(PlainQuery(2, "Q1")).valid());
  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&original, merged, 0, merged.size() / 2);
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot));
  const std::string body = snapshot.substr(0, snapshot.size() - 4);

  struct Case {
    std::string name;
    std::string bytes;
    std::string diagnostic;
  };
  std::string flipped_magic = body;
  flipped_magic[0] = 'X';
  std::string flipped_version = body;
  flipped_version[5] = '\x7f';
  // The version is a little-endian u32 after the 4-byte magic; a v3
  // snapshot must fail the version check, not decode as v4.
  std::string v3 = body;
  v3[4] = '\x03';
  std::string bitflip = snapshot;
  bitflip[snapshot.size() / 2] =
      static_cast<char>(bitflip[snapshot.size() / 2] ^ 0x40);
  const std::vector<Case> cases = {
      {"empty", "", "shorter"},
      {"truncated", snapshot.substr(0, snapshot.size() - 10), "checksum"},
      {"torn-tail", snapshot.substr(0, snapshot.size() / 3), "checksum"},
      {"bitflip", bitflip, "checksum"},
      {"bad-magic", Resealed(flipped_magic), "magic"},
      {"bad-version", Resealed(flipped_version), "version"},
      {"v3-snapshot", Resealed(v3), "unsupported snapshot version 3"},
      {"trailing-garbage", Resealed(body + std::string(8, '\0')),
       "trailing garbage"},
  };
  for (const Case& c : cases) {
    ExpectRejectedAndPoisoned(BaseOptions(workload), c.bytes, c.diagnostic,
                              c.name);
  }
}

// The 28-byte v3 retired entry of a query removed without collect_results:
// u64 token, i64 results_from, u64 delivered, u32 collected count (0).
std::string RetiredEntry(uint64_t token, TimePoint results_from,
                         uint64_t delivered) {
  StateWriter w;
  w.U64(token);
  w.I64(results_from);
  w.U64(delivered);
  w.U32(0);
  return w.Take();
}

// `body` with the u64 at `offset` replaced by `value`.
std::string WithU64At(std::string body, size_t offset, uint64_t value) {
  StateWriter w;
  w.U64(value);
  body.replace(offset, w.data().size(), w.data());
  return body;
}

TEST(CheckpointTest, CorruptRetiredSectionRejectsWithDiagnosticsAndPoison) {
  // Four queries, the first two removed mid-stream: active tokens {3, 4},
  // retired tokens {1, 2} in two adjacent fixed-size entries.
  const Workload workload = SmallWorkload(61, 6);
  Engine::Options options = BaseOptions(workload);
  options.collect_results = false;
  Engine original(options);
  std::vector<QueryHandle> h;
  for (const double w : {2.0, 4.0, 6.0, 8.0}) {
    h.push_back(original.RegisterQuery(PlainQuery(w)));
    ASSERT_TRUE(h.back().valid()) << original.last_error();
  }
  ASSERT_EQ(h[0].token, 1u);
  ASSERT_EQ(h[3].token, 4u);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&original, merged, 0, merged.size() / 2);
  ASSERT_TRUE(original.UnregisterQuery(h[0]));
  ASSERT_TRUE(original.UnregisterQuery(h[1]));
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();
  const std::string body = snapshot.substr(0, snapshot.size() - 4);

  // Locate both retired entries by their exact encoding.
  const std::string first =
      RetiredEntry(1, original.ResultsFrom(h[0]), original.ResultCount(h[0]));
  const std::string second =
      RetiredEntry(2, original.ResultsFrom(h[1]), original.ResultCount(h[1]));
  ASSERT_GT(original.ResultCount(h[0]), 0u);
  const size_t at = body.find(first + second);
  ASSERT_NE(at, std::string::npos);
  const size_t first_token = at;
  const size_t second_token = at + first.size();
  // The next_token scalar (5: four queries, no subscriptions) sits right
  // before the watermark.
  StateWriter scalars;
  scalars.U64(5);
  scalars.I64(original.watermark());
  const size_t next_token_at = body.find(scalars.data());
  ASSERT_NE(next_token_at, std::string::npos);

  // Sanity: the untouched snapshot restores.
  {
    Engine restored(options);
    ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
    EXPECT_FALSE(restored.IsActive(h[0]));
    EXPECT_EQ(restored.ResultCount(h[1]), original.ResultCount(h[1]));
  }

  struct Case {
    std::string name;
    std::string body;
    std::string diagnostic;
  };
  const std::vector<Case> cases = {
      {"duplicate-retired-token", WithU64At(body, second_token, 1),
       "duplicate retired token 1"},
      {"descending-retired-token",
       WithU64At(WithU64At(body, first_token, 2), second_token, 1),
       "retired token 1 out of order"},
      {"retired-token-is-active", WithU64At(body, second_token, 3),
       "retired token 3 is also an active token"},
      {"next-token-not-above-active", WithU64At(body, next_token_at, 4),
       "next_token 4 does not exceed stored token 4"},
      {"next-token-not-above-retired", WithU64At(body, second_token, 9),
       "next_token 5 does not exceed stored token 9"},
      {"truncated-retired-section", body.substr(0, second_token + 10),
       "truncated retired section"},
  };
  for (const Case& c : cases) {
    ExpectRejectedAndPoisoned(options, Resealed(c.body), c.diagnostic,
                              c.name);
  }
}

// Drives `pairs` register/remove pairs on a deterministic chain that keeps
// one long-lived query: each churned query registers in place, sees one
// matching A/B pair, and is removed in place. Returns every handle issued
// (the long-lived query first).
std::vector<QueryHandle> ChurnPairs(Engine* engine, int pairs,
                                    TimePoint* clock) {
  std::vector<QueryHandle> handles;
  if (engine->active_queries() == 0) {
    handles.push_back(engine->RegisterQuery(PlainQuery(2, "Q0")));
  }
  for (int i = 0; i < pairs; ++i) {
    const QueryHandle h = engine->RegisterQuery(PlainQuery(1));
    EXPECT_TRUE(h.valid()) << engine->last_error();
    *clock += SecondsToTicks(0.25);
    Tuple a;
    a.timestamp = *clock;
    a.key = i % 3;
    Tuple b = a;
    engine->Push(StreamSide::kA, a);
    engine->Push(StreamSide::kB, b);
    EXPECT_TRUE(engine->UnregisterQuery(h)) << engine->last_error();
    handles.push_back(h);
  }
  return handles;
}

uint64_t SumResultCounts(Engine* engine,
                         const std::vector<QueryHandle>& handles) {
  uint64_t total = 0;
  for (const QueryHandle h : handles) total += engine->ResultCount(h);
  return total;
}

TEST(CheckpointTest, LongChurnRoundTripKeepsRetiredTotals) {
  Engine::Options options;
  options.collect_results = true;
  Engine original(options);
  TimePoint clock = 0;
  const std::vector<QueryHandle> handles =
      ChurnPairs(&original, 2000, &clock);
  ASSERT_EQ(handles.size(), 2001u);
  EXPECT_EQ(original.active_queries(), 1u);
  // Mostly in place; ChainMigrator never reuses a plan id, so every ~63
  // in-place registrations one drain-rebuild renumbers the plan.
  EXPECT_GT(original.migrations(), 3000u);
  const uint64_t delivered = SumResultCounts(&original, handles);
  EXPECT_EQ(original.Snapshot().results_delivered, delivered);

  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot)) << original.last_error();
  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();

  for (const size_t i : {size_t{1}, size_t{1000}, size_t{2000}}) {
    const QueryHandle h = handles[i];
    EXPECT_FALSE(restored.IsActive(h)) << i;
    EXPECT_EQ(restored.ResultsFrom(h), original.ResultsFrom(h)) << i;
    // The first churned query registered before any input.
    if (i > 1) {
      EXPECT_GT(restored.ResultsFrom(h), 0) << i;
    }
    EXPECT_EQ(restored.ResultCount(h), original.ResultCount(h)) << i;
    EXPECT_GT(restored.ResultCount(h), 0u) << i;
    EXPECT_EQ(restored.CollectedResults(h), original.CollectedResults(h))
        << i;
    EXPECT_FALSE(restored.CollectedResults(h).empty()) << i;
  }
  EXPECT_TRUE(restored.IsActive(handles[0]));
  EXPECT_EQ(SumResultCounts(&restored, handles), delivered);
  EXPECT_EQ(restored.Snapshot().results_delivered, delivered);

  // The restored session keeps churning, and new handles never collide
  // with retired ones.
  const std::vector<QueryHandle> more = ChurnPairs(&restored, 10, &clock);
  EXPECT_GT(more.front().token, handles.back().token);
  std::vector<QueryHandle> all = handles;
  all.insert(all.end(), more.begin(), more.end());
  EXPECT_EQ(restored.Snapshot().results_delivered,
            SumResultCounts(&restored, all));
}

TEST(CheckpointTest, RetiredQueriesCostAtMost32BytesEach) {
  // Without collect_results a retired query is one fixed 28-byte entry.
  // Two checkpoints of the same periodic session 1000 pairs apart differ
  // by the new retired entries plus the memory samples taken meanwhile
  // (24 bytes each); the live plan's state has the same size at both.
  Engine::Options options;
  Engine engine(options);
  TimePoint clock = 0;
  ChurnPairs(&engine, 1000, &clock);
  std::string before;
  ASSERT_TRUE(engine.Checkpoint(&before)) << engine.last_error();
  const size_t samples_before = engine.Snapshot().memory_samples.size();
  ChurnPairs(&engine, 1000, &clock);
  std::string after;
  ASSERT_TRUE(engine.Checkpoint(&after)) << engine.last_error();
  const size_t samples_after = engine.Snapshot().memory_samples.size();
  ASSERT_GT(after.size(), before.size());
  const size_t growth = after.size() - before.size() -
                        24 * (samples_after - samples_before);
  EXPECT_LE(growth, 32u * 1000) << "snapshot grew " << growth
                                << " bytes over 1000 retired queries";
  EXPECT_GE(growth, 28u * 1000);
}

TEST(CheckpointTest, OptionsFingerprintMismatchIsNamed) {
  const Workload workload = SmallWorkload(43, 6);
  Engine original(BaseOptions(workload));
  ASSERT_TRUE(original.RegisterQuery(PlainQuery(2, "Q1")).valid());
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot));

  Engine::Options wrong_objective = BaseOptions(workload);
  wrong_objective.objective = ChainObjective::kCpuOpt;
  Engine e1(wrong_objective);
  EXPECT_FALSE(e1.Restore(snapshot));
  EXPECT_NE(e1.last_error().find("objective"), std::string::npos)
      << e1.last_error();

  Engine::Options wrong_mode = BaseOptions(workload);
  wrong_mode.mode = ExecutionMode::kSharded;
  wrong_mode.shard_count = 2;
  Engine e2(wrong_mode);
  EXPECT_FALSE(e2.Restore(snapshot));
  EXPECT_NE(e2.last_error().find("mode"), std::string::npos)
      << e2.last_error();

  // And the other way round: a sharded snapshot refuses a deterministic
  // engine.
  {
    Workload equi = SmallWorkload(43, 6);
    RekeyForEquiJoin(&equi, /*key_domain=*/16, /*seed=*/43);
    Engine::Options sharded = BaseOptions(equi);
    sharded.mode = ExecutionMode::kSharded;
    sharded.shard_count = 2;
    Engine source(sharded);
    ASSERT_TRUE(source.RegisterQuery(PlainQuery(2, "Q1")).valid());
    const std::vector<Tuple> merged = MergedArrivals(equi);
    PushRange(&source, merged, 0, merged.size() / 2);
    std::string sharded_snapshot;
    ASSERT_TRUE(source.Checkpoint(&sharded_snapshot)) << source.last_error();
    Engine det(BaseOptions(equi));
    EXPECT_FALSE(det.Restore(sharded_snapshot));
    EXPECT_NE(det.last_error().find("mode"), std::string::npos)
        << det.last_error();
  }

  Engine::Options wrong_condition = BaseOptions(workload);
  wrong_condition.condition = JoinCondition::ModSum(97, 13);
  Engine e3(wrong_condition);
  EXPECT_FALSE(e3.Restore(snapshot));
  EXPECT_NE(e3.last_error().find("condition"), std::string::npos)
      << e3.last_error();

  // Every other fingerprint field, changed alone, is the one named.
  std::vector<std::pair<std::string, Engine::Options>> fields;
  const auto changed = [&](std::string field) -> Engine::Options& {
    fields.emplace_back(std::move(field), BaseOptions(workload));
    return fields.back().second;
  };
  changed("strategy").strategy = SharingStrategy::kPullUp;
  changed("use_lineage").use_lineage = true;
  changed("collect_results").collect_results = false;
  changed("parallel_edge_capacity").parallel_edge_capacity *= 2;
  changed("condition.mod").condition.mod += 1;
  changed("condition.band").condition.band += 1;
  changed("sample_interval").sample_interval *= 2;
  changed("auto_drain").auto_drain = false;
  changed("run_length").run_length = 16;
  changed("cost_params.lambda_a").cost_params.lambda_a += 1;
  changed("cost_params.lambda_b").cost_params.lambda_b += 1;
  changed("cost_params.s1").cost_params.s1 += 1;
  changed("cost_params.c_sys").cost_params.c_sys += 1;
  changed("cost_params.tuple_kb").cost_params.tuple_kb += 1;
  for (const auto& [field, options] : fields) {
    Engine engine(options);
    EXPECT_FALSE(engine.Restore(snapshot)) << field;
    EXPECT_NE(engine.last_error().find("options mismatch: " + field),
              std::string::npos)
        << field << ": " << engine.last_error();
  }

  // The resolved shard count: a sharded snapshot refuses another count.
  Workload equi = SmallWorkload(43, 6);
  RekeyForEquiJoin(&equi, /*key_domain=*/16, /*seed=*/43);
  Engine::Options two_shards = BaseOptions(equi);
  two_shards.mode = ExecutionMode::kSharded;
  two_shards.shard_count = 2;
  Engine source(two_shards);
  ASSERT_TRUE(source.RegisterQuery(PlainQuery(2, "Q1")).valid());
  std::string sharded_snapshot;
  ASSERT_TRUE(source.Checkpoint(&sharded_snapshot)) << source.last_error();
  Engine::Options three_shards = two_shards;
  three_shards.shard_count = 3;
  Engine e4(three_shards);
  EXPECT_FALSE(e4.Restore(sharded_snapshot));
  EXPECT_NE(e4.last_error().find("options mismatch: shard_count (resolved)"),
            std::string::npos)
      << e4.last_error();
}

TEST(CheckpointTest, RestoreRequiresFreshEngineWithoutPoisoning) {
  const Workload workload = SmallWorkload(47, 6);
  Engine original(BaseOptions(workload));
  const QueryHandle h = original.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h.valid());
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot));

  // The original engine itself is no longer fresh: Restore refuses but
  // does NOT poison — the engine keeps serving.
  EXPECT_FALSE(original.Restore(snapshot));
  EXPECT_FALSE(original.poisoned());
  EXPECT_NE(original.last_error().find("freshly constructed"),
            std::string::npos);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&original, merged, 0, merged.size());
  original.Finish();
  EXPECT_GT(original.ResultCount(h), 0u);
}

TEST(CheckpointTest, HandlesFromTheCheckpointedEngineStayValid) {
  const Workload workload = SmallWorkload(53, 8);
  Engine original(BaseOptions(workload));
  const QueryHandle h1 = original.RegisterQuery(PlainQuery(2, "Q1"));
  const QueryHandle h2 = original.RegisterQuery(PlainQuery(4, "Q2"));
  ASSERT_TRUE(h1.valid() && h2.valid());
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t split = StrictIncreaseAt(merged, merged.size() / 2);
  PushRange(&original, merged, 0, split);
  std::string snapshot;
  ASSERT_TRUE(original.Checkpoint(&snapshot));

  Engine restored(BaseOptions(workload));
  ASSERT_TRUE(restored.Restore(snapshot)) << restored.last_error();
  // Handles minted by the original resolve identically in the restored
  // engine: churn through them works.
  EXPECT_TRUE(restored.IsActive(h1));
  uint64_t tail_results = 0;
  ASSERT_TRUE(restored
                  .Subscribe(h2,
                             [&tail_results](const JoinResult&) {
                               ++tail_results;
                             })
                  .valid());
  ASSERT_TRUE(restored.UnregisterQuery(h1));
  EXPECT_FALSE(restored.IsActive(h1));
  PushRange(&restored, merged, split, merged.size());
  restored.Finish();
  EXPECT_GT(tail_results, 0u);
  EXPECT_EQ(restored.ResultCount(h2), tail_results + [&] {
    // Results delivered before the snapshot were folded into the record.
    Engine replay(BaseOptions(workload));
    const QueryHandle rh1 = replay.RegisterQuery(PlainQuery(2, "Q1"));
    const QueryHandle rh2 = replay.RegisterQuery(PlainQuery(4, "Q2"));
    EXPECT_EQ(rh1, h1);
    EXPECT_EQ(rh2, h2);
    PushRange(&replay, merged, 0, split);
    return replay.ResultCount(h2);
  }());
}

TEST(CheckpointTest, CheckpointingAPoisonedEngineFails) {
  Engine engine;
  EXPECT_FALSE(engine.Restore("garbage-that-is-not-a-snapshot"));
  ASSERT_TRUE(engine.poisoned());
  std::string out = "sentinel";
  EXPECT_FALSE(engine.Checkpoint(&out));
  EXPECT_EQ(out, "sentinel");  // failed checkpoint writes nothing
  EXPECT_NE(engine.last_error().find("poisoned"), std::string::npos);
}

TEST(CheckpointTest, DoubleFinishIsIdempotent) {
  const Workload workload = SmallWorkload(59, 6);
  Engine engine(BaseOptions(workload));
  const QueryHandle h = engine.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(h.valid());
  const std::vector<Tuple> merged = MergedArrivals(workload);
  PushRange(&engine, merged, 0, merged.size());
  engine.Finish();
  const uint64_t delivered = engine.ResultCount(h);
  engine.Finish();  // second Finish is a no-op
  engine.Drain();
  EXPECT_EQ(engine.Poll(), 0u);
  EXPECT_EQ(engine.ResultCount(h), delivered);
}

// ------------------------------------------------------ v4 wire-format pins

// Registers `queries`, pushes the first half of `merged` (all of it, then
// Finish, when `finish` is set) and returns the snapshot.
std::string SnapshotOf(const Engine::Options& options,
                       const std::vector<ContinuousQuery>& queries,
                       const std::vector<Tuple>& merged, bool finish = false) {
  Engine engine(options);
  for (const ContinuousQuery& q : queries) {
    EXPECT_TRUE(engine.RegisterQuery(q).valid()) << engine.last_error();
  }
  PushRange(&engine, merged, 0, finish ? merged.size() : merged.size() / 2);
  if (finish) engine.Finish();
  std::string snapshot;
  EXPECT_TRUE(engine.Checkpoint(&snapshot)) << engine.last_error();
  return snapshot;
}

// Checkpoint(Restore(snapshot)): Restore decodes every field and an
// immediate Checkpoint writes each one back, so the bytes must not move.
void ExpectReencodesIdentically(const Engine::Options& options,
                                const std::string& snapshot,
                                const std::string& name) {
  Engine restored(options);
  ASSERT_TRUE(restored.Restore(snapshot))
      << name << ": " << restored.last_error();
  std::string again;
  ASSERT_TRUE(restored.Checkpoint(&again))
      << name << ": " << restored.last_error();
  EXPECT_EQ(again.size(), snapshot.size()) << name;
  EXPECT_TRUE(again == snapshot) << name;
}

TEST(CheckpointWireTest, RestoreThenCheckpointIsByteIdentical) {
  const Workload workload = SmallWorkload(67, 8);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const std::vector<ContinuousQuery> chain = {
      PlainQuery(2, "Q1"), PlainQuery(4, "Q2"), PlainQuery(6, "Q3")};

  ExpectReencodesIdentically(BaseOptions(workload),
                             SnapshotOf(BaseOptions(workload), chain, merged),
                             "mem-opt chain");
  Engine::Options cpu = BaseOptions(workload);
  cpu.objective = ChainObjective::kCpuOpt;
  ExpectReencodesIdentically(cpu, SnapshotOf(cpu, chain, merged),
                             "cpu-opt chain");
  Engine::Options pull_up = BaseOptions(workload);
  pull_up.strategy = SharingStrategy::kPullUp;
  std::vector<ContinuousQuery> filtered = chain;
  filtered[1].selection_a = Predicate::GreaterThan(0.4);
  ExpectReencodesIdentically(pull_up, SnapshotOf(pull_up, filtered, merged),
                             "pull-up plan");

  std::vector<ContinuousQuery> counts(2);
  counts[0].name = "C1";
  counts[0].window = WindowSpec::Count(40);
  counts[1].name = "C2";
  counts[1].window = WindowSpec::Count(90);
  ExpectReencodesIdentically(BaseOptions(workload),
                             SnapshotOf(BaseOptions(workload), counts, merged),
                             "count windows");

  ExpectReencodesIdentically(BaseOptions(workload),
                             SnapshotOf(BaseOptions(workload), {}, merged),
                             "idle engine");

  // A chain whose middle slice was split in place: the migration-created
  // joins must re-encode like any other (no operator names on the wire).
  {
    Engine split(BaseOptions(workload));
    ASSERT_TRUE(split.RegisterQuery(PlainQuery(2, "Q1")).valid());
    ASSERT_TRUE(split.RegisterQuery(PlainQuery(6, "Q2")).valid());
    const size_t mid = StrictIncreaseAt(merged, merged.size() / 3);
    PushRange(&split, merged, 0, mid);
    // 4 s falls inside the [2 s, 6 s) slice: an in-place split.
    ASSERT_TRUE(split.RegisterQuery(PlainQuery(4, "Q3")).valid());
    ASSERT_EQ(split.migrations(), 1u);
    PushRange(&split, merged, mid, merged.size() / 2);
    std::string snapshot;
    ASSERT_TRUE(split.Checkpoint(&snapshot)) << split.last_error();
    ExpectReencodesIdentically(BaseOptions(workload), snapshot,
                               "split-migrated chain");
  }
  ExpectReencodesIdentically(
      BaseOptions(workload),
      SnapshotOf(BaseOptions(workload), chain, merged, /*finish=*/true),
      "finished engine");
}

TEST(CheckpointWireTest, MultiwayAndShardedReencodeIdentically) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 8;
  spec.seed = 71;
  const MultiWorkload three = GenerateMultiWorkload(spec, 3);
  Engine::Options tree;
  tree.condition = three.condition;
  tree.collect_results = true;
  ContinuousQuery m1;
  m1.name = "M1";
  m1.window = WindowSpec::TimeSeconds(2);
  m1.stream_names = {"S0", "S1", "S2"};
  ContinuousQuery m2 = PlainQuery(3, "M2");
  ExpectReencodesIdentically(
      tree, SnapshotOf(tree, {m1, m2}, MergedArrivals(three)),
      "multi-way tree");

  // Sharded bytes carry timing-dependent edge accumulators, so only
  // restore-then-checkpoint (no workers ran in between) is pinned.
  Workload equi = SmallWorkload(73, 8);
  RekeyForEquiJoin(&equi, /*key_domain=*/16, /*seed=*/73);
  Engine::Options sharded = BaseOptions(equi);
  sharded.mode = ExecutionMode::kSharded;
  sharded.shard_count = 2;
  ExpectReencodesIdentically(
      sharded,
      SnapshotOf(sharded, {PlainQuery(2, "Q1"), PlainQuery(5, "Q2")},
                 MergedArrivals(equi)),
      "sharded engine");
}

// (size, CRC-32 of everything before the trailing checksum) of a v4
// snapshot. The workloads come from the library's own xoshiro generator,
// so the bytes are reproducible; a change here means the wire format
// moved and kCheckpointVersion must move with it.
std::pair<size_t, uint32_t> Pin(const std::string& snapshot) {
  return {snapshot.size(), Crc32(snapshot.substr(0, snapshot.size() - 4))};
}

TEST(CheckpointWireTest, GoldenV4Snapshots) {
  const Workload workload = SmallWorkload(79, 10);
  const std::vector<Tuple> merged = MergedArrivals(workload);

  // A churned chain: a mid-stream registration that migrates in place
  // (fresh-start gate) and an in-place removal (retired entry). Both land
  // on existing slice boundaries, so the pinned bytes carry no migrated
  // operator names.
  Engine churned(BaseOptions(workload));
  const QueryHandle h1 = churned.RegisterQuery(PlainQuery(2, "Q1"));
  ASSERT_TRUE(churned.RegisterQuery(PlainQuery(6, "Q2")).valid());
  ASSERT_TRUE(churned.RegisterQuery(PlainQuery(8, "Q3")).valid());
  PushRange(&churned, merged, 0, StrictIncreaseAt(merged, merged.size() / 3));
  ASSERT_TRUE(churned.RegisterQuery(PlainQuery(6, "Q4")).valid());
  PushRange(&churned, merged, StrictIncreaseAt(merged, merged.size() / 3),
            StrictIncreaseAt(merged, merged.size() / 2));
  ASSERT_TRUE(churned.UnregisterQuery(h1));
  ASSERT_EQ(churned.migrations(), 2u);
  ASSERT_EQ(churned.rebuilds(), 0u);
  std::string snapshot;
  ASSERT_TRUE(churned.Checkpoint(&snapshot)) << churned.last_error();
  EXPECT_EQ(Pin(snapshot), std::make_pair(size_t{72396}, uint32_t{828694783}))
      << "churned chain";

  Engine::Options pull_up = BaseOptions(workload);
  pull_up.strategy = SharingStrategy::kPullUp;
  std::vector<ContinuousQuery> filtered = {PlainQuery(2, "P1"),
                                           PlainQuery(5, "P2")};
  filtered[0].selection_a = Predicate::GreaterThan(0.3);
  EXPECT_EQ(Pin(SnapshotOf(pull_up, filtered, merged)),
            std::make_pair(size_t{43947}, uint32_t{3868372908}))
      << "pull-up plan";
}

// Operators a migration inserts are named from their plan's own serial,
// so two identical engines that split a slice write identical snapshots,
// whatever migrated earlier in the process.
TEST(CheckpointWireTest, IdenticalSplitEnginesCheckpointIdentically) {
  const Workload workload = SmallWorkload(83, 8);
  const std::vector<Tuple> merged = MergedArrivals(workload);
  const size_t mid = StrictIncreaseAt(merged, merged.size() / 2);
  const auto split_snapshot = [&] {
    Engine engine(BaseOptions(workload));
    EXPECT_TRUE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());
    EXPECT_TRUE(engine.RegisterQuery(PlainQuery(6, "Q2")).valid());
    PushRange(&engine, merged, 0, mid);
    // 4 s falls inside the [2 s, 6 s) slice: an in-place split.
    EXPECT_TRUE(engine.RegisterQuery(PlainQuery(4, "Q3")).valid());
    EXPECT_EQ(engine.migrations(), 1u);
    EXPECT_EQ(engine.ChainSlices().size(), 3u);
    PushRange(&engine, merged, mid, merged.size());
    std::string snapshot;
    EXPECT_TRUE(engine.Checkpoint(&snapshot)) << engine.last_error();
    return snapshot;
  };
  const std::string first = split_snapshot();
  EXPECT_EQ(split_snapshot(), first);
}

TEST(CheckpointDeathTest, PushAfterFinishDies) {
  Engine engine;
  ASSERT_TRUE(engine.RegisterQuery(PlainQuery(2, "Q1")).valid());
  engine.Finish();
  Tuple t;
  t.timestamp = SecondsToTicks(1.0);
  EXPECT_DEATH(engine.Push(StreamSide::kA, t), "CHECK failed");
}

}  // namespace
}  // namespace stateslice
