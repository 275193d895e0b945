// Shared helpers for the stateslice test suite.
#ifndef STATESLICE_TESTS_TEST_UTIL_H_
#define STATESLICE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stateslice.h"

namespace stateslice::testing {

// Builds a tuple with the given fields (seconds-based timestamp).
inline Tuple MakeTuple(StreamId side, uint32_t seq, double t_seconds,
                       int64_t key = 0, double value = 0.5) {
  Tuple t;
  t.side = side;
  t.seq = seq;
  t.timestamp = SecondsToTicks(t_seconds);
  t.key = key;
  t.value = value;
  return t;
}

inline Tuple A(uint32_t seq, double t_seconds, int64_t key = 0,
               double value = 0.5) {
  return MakeTuple(StreamSide::kA, seq, t_seconds, key, value);
}

inline Tuple B(uint32_t seq, double t_seconds, int64_t key = 0,
               double value = 0.5) {
  return MakeTuple(StreamSide::kB, seq, t_seconds, key, value);
}

// Brute-force (oracle) evaluation of one N-way continuous query directly
// over the generated tuple buffers: a naive nested windowed join over the
// full history. A result (t_0, ..., t_{n-1}) qualifies iff
//  - every constituent passes its stream's selection,
//  - each stream k >= 1 matches its anchor constituent under `cond`,
//  - each level's prefix-window constraint holds:
//    |max(t_0..t_{k-1}) - t_k| < w (the left-deep tree semantics),
//  - every constituent arrives at or after `results_from`, and no two
//    constituents straddle a rebuild cutoff (operator state resets there).
// Returns the result multiset keyed by JoinPairKey. The binary oracle is
// the n = 2 degenerate case.
inline std::map<std::string, int> MultiwayOracle(
    const std::vector<const std::vector<Tuple>*>& streams,
    const JoinCondition& cond, const ContinuousQuery& q,
    TimePoint results_from = 0,
    const std::vector<TimePoint>& cutoffs = {}) {
  const int n = q.num_streams();
  auto segment = [&cutoffs](TimePoint t) {
    size_t s = 0;
    for (const TimePoint c : cutoffs) {
      if (t >= c) ++s;
    }
    return s;
  };
  std::map<std::string, int> expected;
  std::vector<const Tuple*> parts(static_cast<size_t>(n), nullptr);
  // Depth-first over streams in FROM order, pruning on the prefix-window,
  // anchor-match, selection, suffix, and segment constraints.
  auto recurse = [&](auto&& self, int k, TimePoint prefix_max) -> void {
    if (k == n) {
      JoinResult r{*parts[0], *parts[1]};
      for (int i = 2; i < n; ++i) r.tail.push_back(*parts[i]);
      ++expected[JoinPairKey(r)];
      return;
    }
    const std::vector<Tuple>& stream = *streams[static_cast<size_t>(k)];
    auto begin = stream.begin();
    auto end = stream.end();
    if (k > 0) {
      // Streams are timestamp-ordered: only (prefix_max - w, prefix_max + w)
      // can satisfy the prefix-window constraint.
      begin = std::lower_bound(begin, end,
                               prefix_max - q.window.extent + 1,
                               [](const Tuple& t, TimePoint v) {
                                 return t.timestamp < v;
                               });
      end = std::lower_bound(begin, end, prefix_max + q.window.extent,
                             [](const Tuple& t, TimePoint v) {
                               return t.timestamp < v;
                             });
    }
    for (auto it = begin; it != end; ++it) {
      const Tuple& t = *it;
      if (t.timestamp < results_from) continue;
      if (!q.selection(k).Eval(t)) continue;
      if (k > 0) {
        if (std::llabs(prefix_max - t.timestamp) >= q.window.extent) continue;
        if (!cond.Match(*parts[static_cast<size_t>(q.anchor(k - 1))], t)) {
          continue;
        }
        if (segment(t.timestamp) != segment(parts[0]->timestamp)) continue;
      }
      parts[static_cast<size_t>(k)] = &t;
      self(self, k + 1, std::max(prefix_max, t.timestamp));
    }
  };
  recurse(recurse, 0, kMinTime);
  return expected;
}

// Binary spelling of the oracle (the n = 2 degenerate case).
inline std::map<std::string, int> OracleJoin(
    const std::vector<Tuple>& stream_a, const std::vector<Tuple>& stream_b,
    const JoinCondition& cond, const ContinuousQuery& q) {
  return MultiwayOracle({&stream_a, &stream_b}, cond, q);
}

// Serves `queries` with an Engine over the workload's merged arrivals and
// returns the finished session's stats (options.condition is taken from
// the workload).
inline RunStats RunEngine(Engine::Options options,
                          const std::vector<ContinuousQuery>& queries,
                          const Workload& workload) {
  options.condition = workload.condition;
  Engine engine(options);
  for (const ContinuousQuery& q : queries) {
    EXPECT_TRUE(engine.RegisterQuery(q).valid()) << engine.last_error();
  }
  for (const Tuple& t : MergedArrivals(workload)) engine.Push(t.side, t);
  engine.Finish();
  return engine.Snapshot();
}

// A terminal operator counting the bare tuples it receives (plan and
// scheduler tests; a QuerySink counts join results only).
class TupleCounter : public Operator {
 public:
  explicit TupleCounter(std::string name) : Operator(std::move(name)) {}
  void Process(Event event, int /*input_port*/) override {
    if (IsTuple(event)) ++tuple_count_;
  }
  uint64_t tuple_count() const { return tuple_count_; }

 private:
  uint64_t tuple_count_ = 0;
};

// Attaches the query sinks to a built plan and replays the workload
// through it (ReplayArrivals); callers read the plan's sinks and
// cost_counters() afterwards.
inline void RunPlan(BuiltPlan* built, const Workload& workload) {
  AttachQuerySinks(built);
  ReplayArrivals(built->plan.get(), built->entry, MergedArrivals(workload));
}

// A random query workload + chain partition drawn from a seed. Shared by
// the fuzz equivalence tests and the probe-index plan fuzz so both explore
// the same configuration space. The multiway variant
// (DrawMultiwayFuzzConfig) additionally fills `num_streams` and the
// per-level `tree`.
struct FuzzConfig {
  std::vector<ContinuousQuery> queries;
  ChainPlan chain;
  int num_streams = 2;
  JoinTreePlan tree;
  double s1 = 0.1;
  double rate = 25.0;
  uint64_t workload_seed = 0;
  bool use_lineage = false;
  std::string DebugString() const {
    std::string s = "queries:";
    for (const auto& q : queries) s += " " + q.DebugString();
    if (num_streams > 2) {
      s += " levels:";
      for (const auto& level : tree.levels) {
        s += " " + level.partition.DebugString();
      }
    } else {
      s += " partition " + chain.partition.DebugString();
    }
    return s;
  }
};

// A random partition of `spec`: every interior boundary kept with
// probability 1/2 (the draw DrawFuzzConfig has always used).
inline ChainPartition DrawPartition(const ChainSpec& spec, Rng* rng) {
  ChainPartition partition;
  const int m = spec.num_boundaries();
  for (int k = 0; k + 1 < m; ++k) {
    if (rng->NextBounded(2) == 0) {
      partition.slice_end_boundaries.push_back(k);
    }
  }
  partition.slice_end_boundaries.push_back(m - 1);
  return partition;
}

inline FuzzConfig DrawFuzzConfig(uint64_t seed) {
  Rng rng(seed);
  FuzzConfig config;
  const int num_queries = 1 + static_cast<int>(rng.NextBounded(6));
  config.queries.resize(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    config.queries[q].id = q;
    config.queries[q].name = "Q" + std::to_string(q + 1);
    // Windows 0.5 .. 8.0 s in half-second steps; duplicates allowed.
    const double w = 0.5 * (1 + static_cast<double>(rng.NextBounded(16)));
    config.queries[q].window = WindowSpec::TimeSeconds(w);
    // 50%: no selection; else selectivity in {0.2 .. 0.9}.
    if (rng.NextBounded(2) == 1) {
      config.queries[q].selection_a =
          Predicate::WithSelectivity(0.2 + 0.1 * rng.NextBounded(8));
    }
  }
  config.chain.spec = BuildChainSpec(config.queries);
  // Random partition: keep each interior boundary with probability 1/2
  // (DrawPartition consumes the identical RNG sequence, preserving the
  // configs every existing fuzz seed has always drawn).
  config.chain.partition = DrawPartition(config.chain.spec, &rng);
  const double s1_choices[] = {0.025, 0.1, 0.25, 0.5};
  config.s1 = s1_choices[rng.NextBounded(4)];
  config.rate = 15.0 + static_cast<double>(rng.NextBounded(20));
  config.workload_seed = rng.NextU64();
  config.use_lineage = rng.NextBounded(4) == 0;
  return config;
}

// A random N-way workload (queries of 2..max_streams streams sharing one
// join-tree prefix, at least one at full depth) plus a random per-level
// slicing. Used by the 3- and 4-way equivalence fuzz suites.
inline FuzzConfig DrawMultiwayFuzzConfig(uint64_t seed, int max_streams) {
  Rng rng(seed);
  FuzzConfig config;
  config.num_streams = max_streams;
  // One shared anchor vector: query k+1 joins a random earlier stream.
  std::vector<int> anchors(static_cast<size_t>(max_streams) - 1);
  for (size_t k = 0; k < anchors.size(); ++k) {
    anchors[k] = static_cast<int>(rng.NextBounded(k + 1));
  }
  const int num_queries = 1 + static_cast<int>(rng.NextBounded(4));
  config.queries.resize(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    ContinuousQuery& query = config.queries[static_cast<size_t>(q)];
    query.id = q;
    query.name = "Q" + std::to_string(q + 1);
    // Windows 0.5 .. 4.0 s in half-second steps; duplicates allowed.
    // (Kept modest: each tree level multiplies the intermediate result
    // volume by ~2*lambda*S1*w, so wide windows blow up run time.)
    const double w = 0.5 * (1 + static_cast<double>(rng.NextBounded(8)));
    query.window = WindowSpec::TimeSeconds(w);
    // The last query always reaches full depth so the tree has
    // max_streams levels; earlier queries draw 2..max_streams.
    const int n = q + 1 == num_queries
                      ? max_streams
                      : 2 + static_cast<int>(rng.NextBounded(
                                static_cast<uint64_t>(max_streams) - 1));
    if (n > 2) {
      for (int s = 0; s < n; ++s) {
        query.stream_names.push_back("S" + std::to_string(s));
      }
      query.join_anchors.assign(anchors.begin(),
                                anchors.begin() + (n - 1));
      // Multi-way terminals gate σ on any stream: draw one per stream
      // with probability 1/4.
      for (int s = 0; s < n; ++s) {
        if (rng.NextBounded(4) != 0) continue;
        const Predicate pred =
            Predicate::WithSelectivity(0.3 + 0.1 * rng.NextBounded(6));
        if (s == 0) {
          query.selection_a = pred;
        } else if (s == 1) {
          query.selection_b = pred;
        } else {
          query.extra_selections.resize(static_cast<size_t>(n) - 2);
          query.extra_selections[static_cast<size_t>(s) - 2] = pred;
        }
      }
    } else if (rng.NextBounded(2) == 1) {
      // Binary queries keep the chain restriction: σ on stream 0 only.
      query.selection_a =
          Predicate::WithSelectivity(0.2 + 0.1 * rng.NextBounded(8));
    }
  }
  // Anchor prefix compatibility requires the binary queries to share the
  // tree's level-0 anchor, which is always 0 — nothing to fix up.
  for (const TreeLevelQueries& level : TreeLevels(config.queries)) {
    ChainPlan plan;
    plan.spec = BuildChainSpec(level.local);
    plan.partition = DrawPartition(plan.spec, &rng);
    config.tree.levels.push_back(std::move(plan));
  }
  const double s1_choices[] = {0.05, 0.1, 0.25};
  config.s1 = s1_choices[rng.NextBounded(3)];
  config.rate = 8.0 + static_cast<double>(rng.NextBounded(8));
  config.workload_seed = rng.NextU64();
  return config;
}

// First index k >= target where merged[k] strictly increases the arrival
// timestamp — a clean churn point: everything before has timestamp
// <= merged[k-1] and everything after has timestamp >= merged[k] >
// merged[k-1], so an Engine cutoff (watermark + 1) splits the stream
// exactly there. Returns merged.size() when no such index exists.
inline size_t StrictIncreaseAt(const std::vector<Tuple>& merged,
                               size_t target) {
  for (size_t k = std::max<size_t>(target, 1); k < merged.size(); ++k) {
    if (merged[k].timestamp > merged[k - 1].timestamp) return k;
  }
  return merged.size();
}

// Expected cumulative delivery of an Engine query: the oracle join
// restricted to results whose constituents all arrive at or after
// `results_from` (Engine::ResultsFrom) and do not straddle any rebuild
// cutoff (Engine::rebuild_cutoffs — operator state resets there, so
// results across a cutoff are never produced). Works for any stream count
// via MultiwayOracle; this binary spelling serves the pre-existing suites.
inline std::map<std::string, int> SegmentedOracle(
    const std::vector<Tuple>& stream_a, const std::vector<Tuple>& stream_b,
    const JoinCondition& cond, const ContinuousQuery& q,
    TimePoint results_from, const std::vector<TimePoint>& cutoffs) {
  return MultiwayOracle({&stream_a, &stream_b}, cond, q, results_from,
                        cutoffs);
}

// Drains `queue` into a vector (test inspection).
inline std::vector<Event> DrainQueue(EventQueue* queue) {
  std::vector<Event> events;
  while (!queue->empty()) events.push_back(queue->Pop());
  return events;
}

// Extracts the JoinResults from an event list, dropping punctuations.
inline std::vector<JoinResult> ResultsOf(const std::vector<Event>& events) {
  std::vector<JoinResult> results;
  for (const Event& e : events) {
    if (IsJoinResult(e)) results.push_back(std::get<JoinResult>(e));
  }
  return results;
}

}  // namespace stateslice::testing

#endif  // STATESLICE_TESTS_TEST_UTIL_H_
