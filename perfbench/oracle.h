// Exact result oracle for the Engine benchmark, computed apart from the
// engine: a brute-force windowed equi-join over the tuples the benchmark
// pushed, written from the documented query semantics alone. It shares no
// code with the library's operators or with the unit tests' oracles.
//
// A binary query q with window w, optional selection `A.Value > t` on
// stream 0, and a live interval [from, to) is owed the pair (a, b),
// a from stream 0 and b from stream 1, iff
//   a.key == b.key, |a.ts - b.ts| < w, a.value > t (when filtered),
//   from <= a.ts, b.ts < to.
// That is the *exact* oracle. The engine's documented churn semantics
// (src/api/engine.h) additionally drops every pair that straddles a
// rebuild cutoff c (min(a.ts, b.ts) < c <= max(a.ts, b.ts)): that is the
// *owed* set. Exact minus owed are the pairs a rebuild may drop, each
// attributed to the earliest cutoff it straddles; the benchmark checks the
// ones that are delivered one by one (see engine_bench.cc).
//
// Results are compared as (count, order-independent digest): the digest is
// the wrapping sum of a 64-bit mix of the pair's two sequence numbers, the
// same fold the benchmark's subscribers apply in their callbacks.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/tuple.h"

namespace perfbench {

// Mix of one result's identity: the sequence numbers of its stream-0 and
// stream-1 constituents (sequence numbers are unique per stream).
uint64_t PairHash(uint32_t seq_a, uint32_t seq_b);

// Multiset summary of a result set.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint64_t hash) {
    ++count;
    sum += hash;
  }
  // The summary of this multiset minus a sub-multiset `part` of it.
  Digest operator-(const Digest& part) const {
    return Digest{count - part.count, sum - part.sum};
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

struct OracleQuery {
  int64_t window = 0;  // microseconds; pairs need |a.ts - b.ts| < window
  int64_t from = 0;    // both constituents at or after
  int64_t to = std::numeric_limits<int64_t>::max();  // both before
  bool filtered = false;
  double a_value_above = 0.0;  // σ on stream 0 when filtered
};

struct OracleResult {
  std::vector<Digest> exact;  // [query]
  std::vector<Digest> owed;   // [query]: exact minus straddling pairs
  // [cutoff index]: exact pairs whose earliest straddled cutoff it is,
  // summed over queries.
  std::vector<uint64_t> straddling_at_cutoff;
  // [cutoff index]: exact pairs that straddle that cutoff and no other, so
  // that only the rebuild there can have dropped them.
  std::vector<uint64_t> sole_at_cutoff;
};

// `a` and `b` are the stream-0 and stream-1 tuples in push order (each
// timestamp-ordered). `cutoffs` must be ascending.
OracleResult RunOracle(const std::vector<stateslice::Tuple>& a,
                       const std::vector<stateslice::Tuple>& b,
                       const std::vector<OracleQuery>& queries,
                       const std::vector<int64_t>& cutoffs);

// Checks RunOracle against a small case computed by hand. Returns false
// with a reason in *error on mismatch.
bool OracleSelfTest(std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
