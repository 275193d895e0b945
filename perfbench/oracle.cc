#include "perfbench/oracle.h"

#include <algorithm>
#include <initializer_list>
#include <unordered_map>
#include <utility>

namespace perfbench {

using stateslice::Tuple;

uint64_t PairHash(uint32_t seq_a, uint32_t seq_b) {
  // splitmix64 finalizer over the packed pair.
  uint64_t z = (static_cast<uint64_t>(seq_a) << 32) | seq_b;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

OracleResult RunOracle(const std::vector<Tuple>& a,
                       const std::vector<Tuple>& b,
                       const std::vector<OracleQuery>& queries,
                       const std::vector<int64_t>& cutoffs) {
  OracleResult out;
  out.exact.resize(queries.size());
  out.owed.resize(queries.size());
  out.straddling_at_cutoff.assign(cutoffs.size(), 0);
  out.sole_at_cutoff.assign(cutoffs.size(), 0);
  int64_t max_window = 0;
  for (const OracleQuery& q : queries) {
    max_window = std::max(max_window, q.window);
  }

  // Queries enter the active set at `from` and leave it at `to`; each pair
  // is enumerated once, at its later constituent, against the queries live
  // at that time (widest window first, so the scan stops at the gap).
  std::vector<size_t> by_from(queries.size());
  for (size_t i = 0; i < by_from.size(); ++i) by_from[i] = i;
  std::sort(by_from.begin(), by_from.end(), [&](size_t x, size_t y) {
    return queries[x].from < queries[y].from;
  });
  size_t next_from = 0;
  std::vector<size_t> active;
  int64_t next_event = by_from.empty() ? std::numeric_limits<int64_t>::max()
                                       : queries[by_from[0]].from;
  const auto refresh = [&](int64_t t) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](size_t q) { return queries[q].to <= t; }),
                 active.end());
    while (next_from < by_from.size() &&
           queries[by_from[next_from]].from <= t) {
      const size_t q = by_from[next_from++];
      if (queries[q].to > t) active.push_back(q);
    }
    std::sort(active.begin(), active.end(), [&](size_t x, size_t y) {
      return queries[x].window > queries[y].window;
    });
    next_event = next_from < by_from.size()
                     ? queries[by_from[next_from]].from
                     : std::numeric_limits<int64_t>::max();
    for (const size_t q : active) {
      next_event = std::min(next_event, queries[q].to);
    }
  };

  std::unordered_map<int64_t, std::vector<uint32_t>> history[2];
  const std::vector<Tuple>* streams[2] = {&a, &b};
  size_t pos[2] = {0, 0};
  while (pos[0] < a.size() || pos[1] < b.size()) {
    const int s = pos[1] >= b.size() ||
                          (pos[0] < a.size() &&
                           a[pos[0]].timestamp <= b[pos[1]].timestamp)
                      ? 0
                      : 1;
    const uint32_t xi = static_cast<uint32_t>(pos[s]++);
    const Tuple& x = (*streams[s])[xi];
    const int64_t t = x.timestamp;
    if (t >= next_event) refresh(t);
    std::vector<uint32_t>& mine = history[s][x.key];
    const auto other_it = history[1 - s].find(x.key);
    mine.push_back(xi);
    if (other_it == history[1 - s].end() || active.empty()) continue;
    const std::vector<uint32_t>& other = other_it->second;
    const std::vector<Tuple>& ostream = *streams[1 - s];
    auto lo = std::partition_point(other.begin(), other.end(), [&](uint32_t i) {
      return ostream[i].timestamp <= t - max_window;
    });
    for (; lo != other.end(); ++lo) {
      const Tuple& y = ostream[*lo];
      const int64_t gap = t - y.timestamp;
      const Tuple& ta = s == 0 ? x : y;
      const Tuple& tb = s == 0 ? y : x;
      const uint64_t h = PairHash(ta.seq, tb.seq);
      const auto first_after = std::upper_bound(cutoffs.begin(), cutoffs.end(),
                                                y.timestamp);
      const bool straddles = first_after != cutoffs.end() && *first_after <= t;
      const bool sole = straddles && (first_after + 1 == cutoffs.end() ||
                                      *(first_after + 1) > t);
      for (const size_t q : active) {
        const OracleQuery& oq = queries[q];
        if (gap >= oq.window) break;
        if (oq.from > y.timestamp) continue;
        if (oq.filtered && !(ta.value > oq.a_value_above)) continue;
        out.exact[q].Add(h);
        if (straddles) {
          ++out.straddling_at_cutoff[first_after - cutoffs.begin()];
          if (sole) ++out.sole_at_cutoff[first_after - cutoffs.begin()];
        } else {
          out.owed[q].Add(h);
        }
      }
    }
  }
  return out;
}

namespace {

Tuple Make(int stream, uint32_t seq, double seconds, int64_t key,
           double value) {
  Tuple t;
  t.timestamp = static_cast<int64_t>(seconds * 1e6);
  t.key = key;
  t.value = value;
  t.seq = seq;
  t.side = static_cast<stateslice::StreamId>(stream);
  return t;
}

Digest Pairs(std::initializer_list<std::pair<uint32_t, uint32_t>> pairs) {
  Digest d;
  for (const auto& [sa, sb] : pairs) d.Add(PairHash(sa, sb));
  return d;
}

}  // namespace

bool OracleSelfTest(std::string* error) {
  // Same-key pairs and their gaps (seconds):
  //   key 1: a0-b0 1, a0-b2 5.5, a0-b3 19, a2-b0 4, a2-b2 0.5, a2-b3 14
  //   key 2: a1-b1 1
  const std::vector<Tuple> a = {Make(0, 0, 1.0, 1, 0.2),
                                Make(0, 1, 3.0, 2, 0.9),
                                Make(0, 2, 6.0, 1, 0.7)};
  const std::vector<Tuple> b = {Make(1, 0, 2.0, 1, 0.0),
                                Make(1, 1, 4.0, 2, 0.0),
                                Make(1, 2, 6.5, 1, 0.0),
                                Make(1, 3, 20.0, 1, 0.0)};
  const int64_t s = 1'000'000;
  std::vector<OracleQuery> queries(4);
  queries[0].window = 2 * s;  // a0b0, a2b2, a1b1
  queries[1].window = 5 * s;  // σ A.value > 0.5: a2b0, a2b2, a1b1
  queries[1].filtered = true;
  queries[1].a_value_above = 0.5;
  queries[2].window = 10 * s;  // live [2.5 s, 7 s): a1b1, a2b2
  queries[2].from = 2'500'000;
  queries[2].to = 7 * s;
  queries[3].window = 20 * s;  // all seven pairs
  const std::vector<int64_t> cutoffs = {5 * s, 15 * s};
  const OracleResult r = RunOracle(a, b, queries, cutoffs);

  const std::vector<Digest> want_exact = {
      Pairs({{0, 0}, {2, 2}, {1, 1}}), Pairs({{2, 0}, {2, 2}, {1, 1}}),
      Pairs({{1, 1}, {2, 2}}),
      Pairs({{0, 0}, {0, 2}, {0, 3}, {2, 0}, {2, 2}, {2, 3}, {1, 1}})};
  // Cutoff 5 s splits a2-b0 (q1) and a0-b2, a0-b3, a2-b0 (q3); cutoff
  // 15 s splits a2-b3 (q3). a0-b3 straddles both and counts at the first;
  // the other four straddle one cutoff only.
  const std::vector<Digest> want_owed = {
      Pairs({{0, 0}, {2, 2}, {1, 1}}), Pairs({{2, 2}, {1, 1}}),
      Pairs({{1, 1}, {2, 2}}), Pairs({{0, 0}, {2, 2}, {1, 1}})};
  const std::vector<uint64_t> want_straddling = {4, 1};
  const std::vector<uint64_t> want_sole = {3, 1};
  for (size_t q = 0; q < queries.size(); ++q) {
    if (r.exact[q] != want_exact[q] || r.owed[q] != want_owed[q]) {
      *error = "oracle self-test: query " + std::to_string(q) +
               " exact/owed mismatch (exact count " +
               std::to_string(r.exact[q].count) + ", owed count " +
               std::to_string(r.owed[q].count) + ")";
      return false;
    }
  }
  if (r.straddling_at_cutoff != want_straddling ||
      r.sole_at_cutoff != want_sole) {
    *error = "oracle self-test: per-cutoff straddling count mismatch";
    return false;
  }
  return true;
}

}  // namespace perfbench
