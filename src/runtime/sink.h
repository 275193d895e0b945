// Result sinks: terminal operators that receive a query's output.
//
// Each continuous query registered with a shared plan gets its own sink
// (the paper's "data receivers", Section 7.1). Sinks count results for
// service-rate metrics; the collecting variant additionally stores results
// for equivalence tests.
#ifndef STATESLICE_RUNTIME_SINK_H_
#define STATESLICE_RUNTIME_SINK_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/operator.h"

namespace stateslice {

// Counts joined results delivered to one query output; drops payloads.
class CountingSink : public Operator {
 public:
  explicit CountingSink(std::string name) : Operator(std::move(name)) {}

  void Process(Event event, int input_port) override;

  // Number of JoinResult events received.
  uint64_t result_count() const { return result_count_; }
  // Number of bare Tuple events received (for selection-only plans).
  uint64_t tuple_count() const { return tuple_count_; }
  // Highest punctuation watermark seen.
  TimePoint watermark() const { return watermark_; }

  // True while every received event's timestamp has been >= all previously
  // received event timestamps (order-preservation check for union outputs).
  bool saw_ordered_stream() const { return ordered_; }

 private:
  uint64_t result_count_ = 0;
  uint64_t tuple_count_ = 0;
  TimePoint watermark_ = kMinTime;
  TimePoint last_time_ = kMinTime;
  bool ordered_ = true;
};

// Stores every JoinResult (identity key + timestamp) for test comparison.
class CollectingSink : public Operator {
 public:
  explicit CollectingSink(std::string name) : Operator(std::move(name)) {}

  void Process(Event event, int input_port) override;

  const std::vector<JoinResult>& results() const { return results_; }

  // Multiset of JoinPairKey() -> count; the canonical form used by the
  // chain-equivalence property tests (Theorems 1-3).
  std::map<std::string, int> ResultMultiset() const;

  // Result identity keys sorted by (timestamp, key): the timestamp-order
  // canonical form for comparing a sharded run against the deterministic
  // reference. Two runs that deliver the same results in the same
  // per-timestamp order compare equal even when same-timestamp ties were
  // released in a different arrival order.
  std::vector<std::pair<TimePoint, std::string>> TimeSortedResults() const;

  // True if result timestamps arrived in non-decreasing order.
  bool saw_ordered_stream() const { return ordered_; }

  uint64_t result_count() const { return results_.size(); }

 private:
  std::vector<JoinResult> results_;
  TimePoint last_time_ = kMinTime;
  bool ordered_ = true;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SINK_H_
