// Synthetic workload generation matching the paper's experimental setup
// (Section 7): Poisson tuple arrivals, tunable join selectivity S1 and
// selection selectivity Sσ, and the window distributions of Tables 3 and 4.
#ifndef STATESLICE_QUERY_WORKLOAD_H_
#define STATESLICE_QUERY_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/tuple.h"
#include "src/operators/join_condition.h"
#include "src/query/query.h"

namespace stateslice {

// Parameters of one synthetic two-stream workload.
struct WorkloadSpec {
  double rate_a = 20.0;      // stream A arrival rate (tuples/sec)
  double rate_b = 20.0;      // stream B arrival rate (tuples/sec)
  double duration_s = 90.0;  // generation horizon (paper runs 90 s)
  double join_selectivity = 0.1;  // target S1
  uint64_t seed = 20060912;  // VLDB'06 conference date, why not

  // Arrival pattern: Poisson (exponential inter-arrivals, the paper's
  // setting) or fixed-rate (deterministic spacing; useful in tests).
  bool poisson = true;
};

// A generated two-stream workload plus the join condition and key domain
// that realize the requested S1.
struct Workload {
  std::vector<Tuple> stream_a;  // timestamp-ordered
  std::vector<Tuple> stream_b;  // timestamp-ordered
  JoinCondition condition;
  int64_t key_domain = 0;
  WorkloadSpec spec;
};

// Generates both streams. Values are U(0,1) (so Predicate::WithSelectivity
// hits its target Sσ exactly in expectation); keys are uniform over the
// domain chosen to realize `spec.join_selectivity` through a ModSum
// condition (see JoinCondition).
Workload GenerateWorkload(const WorkloadSpec& spec);

// Both workload streams merged into one globally timestamp-ordered
// arrival feed — what a long-lived Engine session ingests tuple by tuple.
std::vector<Tuple> MergedArrivals(const Workload& workload);

// A generated N-stream workload for multi-way join trees. Stream 0 uses
// spec.rate_a; every further stream uses spec.rate_b.
struct MultiWorkload {
  std::vector<std::vector<Tuple>> streams;  // [stream id], timestamp-ordered
  JoinCondition condition;
  int64_t key_domain = 0;
  WorkloadSpec spec;
};

// Generates `num_streams` (>= 2) independent streams under `spec`, with
// the same key-domain / S1 model as GenerateWorkload.
MultiWorkload GenerateMultiWorkload(const WorkloadSpec& spec, int num_streams);

// All streams merged into one globally timestamp-ordered arrival feed.
std::vector<Tuple> MergedArrivals(const MultiWorkload& workload);

// Chooses (mod, band) with band/mod == s1 for reasonable rational s1; falls
// back to a 1000-denominator approximation. Exposed for tests.
JoinCondition ConditionForSelectivity(double s1);

// Rewrites a generated workload in place into a pure equi-join: keys drawn
// uniformly over [0, key_domain) from `key_seed`, condition kEquiKey
// (S1 = 1/key_domain). Shared by the probe-index bench and its
// equivalence suite so both measure the same key model.
void RekeyForEquiJoin(Workload* workload, int64_t key_domain,
                      uint64_t key_seed);
void RekeyForEquiJoin(MultiWorkload* workload, int64_t key_domain,
                      uint64_t key_seed);

// Like RekeyForEquiJoin, but keys follow a Zipf(s) distribution over
// [0, key_domain): P(key = k) ∝ 1/(k+1)^s. s = 0 degenerates to uniform;
// s ≈ 1 is the classic web-trace skew where the hottest key dominates.
// Used by the sharded runtime's skew benchmarks and equivalence tests —
// hash partitioning sends each hot key to a single shard, so Zipf keys
// load one shard's worker far more than the others.
void RekeyForEquiJoinZipf(Workload* workload, int64_t key_domain,
                          double zipf_s, uint64_t key_seed);

// ---------------------------------------------------------------------
// Query-set factories for the paper's experiments.
// ---------------------------------------------------------------------

// The window distributions of Table 3 (three queries, seconds).
enum class WindowDistribution3 {
  kMostlySmall,  // 5, 10, 30
  kUniform,      // 10, 20, 30
  kMostlyLarge,  // 20, 25, 30
};

// Queries for Fig. 17/18: Q1 = A[w1] |x| B[w1] (no selection),
// Q2 = σ(A)[w2] |x| B[w2], Q3 = σ(A)[w3] |x| B[w3], with σ of
// selectivity `s_sigma` on stream A.
std::vector<ContinuousQuery> MakeSection72Queries(WindowDistribution3 dist,
                                                  double s_sigma);

// Window lists (seconds) for the three-query distributions above.
std::vector<double> Section72Windows(WindowDistribution3 dist);

// The window distributions of Table 4 (N queries, seconds). For N = 12
// these are exactly the paper's lists; other N scale the same shapes:
//  - kUniformN:     evenly spaced up to 30 s;
//  - kMostlySmallN: N-2 small windows (1..N-2 s) plus 20 s and 30 s;
//  - kSmallLargeN:  half packed at 1..N/2 s, half at 31-N/2..30 s.
enum class WindowDistributionN {
  kUniformN,
  kMostlySmallN,
  kSmallLargeN,
};

// Window lists (seconds) for N-query distributions; N must be >= 4.
std::vector<double> Section73Windows(WindowDistributionN dist, int n);

// Queries for Fig. 19: N joins without selections over the distribution.
std::vector<ContinuousQuery> MakeSection73Queries(WindowDistributionN dist,
                                                  int n);

// Human-readable names for reports.
std::string ToString(WindowDistribution3 dist);
std::string ToString(WindowDistributionN dist);

}  // namespace stateslice

#endif  // STATESLICE_QUERY_WORKLOAD_H_
