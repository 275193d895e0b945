// QuerySink: the one terminal operator of a query's output.
//
// Each continuous query of the result plan gets exactly one QuerySink (the
// paper's "data receiver", Section 7.1), fed by the query's union, router
// branch or slice. It does everything a delivered result needs:
//  - the fresh-start cutoff of a query registered on a running chain: a
//    result passes iff every constituent arrived at or after the cutoff
//    (one kGate comparison per result, the gate's paper-unit charge);
//  - the result count;
//  - the result list, when the plan was built with collect_results (tests
//    compare result multisets);
//  - the query's subscribed callbacks, which the sink reads through a
//    pointer to their owner's list, so subscriptions survive plan rebuilds
//    and migrations without rewiring.
// Shard replicas hold no sink: their query outputs leave through exit
// queues into the merge plan, which carries the sinks.
#ifndef STATESLICE_RUNTIME_SINK_H_
#define STATESLICE_RUNTIME_SINK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/operator.h"

namespace stateslice {

// Invoked for every JoinResult delivered to a subscribed query.
using ResultCallback = std::function<void(const JoinResult&)>;

// One subscribed callback and its subscription token.
struct Subscriber {
  uint64_t token = 0;
  ResultCallback callback;
};

class QuerySink : public Operator {
 public:
  QuerySink(std::string name, bool collect)
      : Operator(std::move(name)), collect_(collect) {}

  void Process(Event event, int input_port) override;
  // Run path: the devirtualized per-event loop (one virtual hop per run).
  void OnRun(EventRun& run, int input_port) override;

  // Fresh-start semantics from `cutoff` on (> 0); 0 leaves the sink ungated.
  void set_cutoff(TimePoint cutoff) { cutoff_ = cutoff; }
  TimePoint cutoff() const { return cutoff_; }
  // The callbacks to run per delivered result; the list must outlive the
  // sink (or be rebound) and changes only while the plan is quiescent.
  void set_subscribers(const std::vector<Subscriber>* subscribers) {
    subscribers_ = subscribers;
  }

  // Results delivered (past the cutoff).
  uint64_t result_count() const { return result_count_; }

  // Multiset of JoinPairKey() -> count; the canonical form used by the
  // chain-equivalence property tests (Theorems 1-3).
  std::map<std::string, int> ResultMultiset() const;

  // Result identity keys sorted by (timestamp, key): the timestamp-order
  // canonical form for comparing runs whose same-timestamp ties may have
  // been released in a different arrival order.
  std::vector<std::pair<TimePoint, std::string>> TimeSortedResults() const;

  // True while every delivered result's timestamp has been >= all earlier
  // ones (order-preservation check for union outputs).
  bool saw_ordered_stream() const { return ordered_; }

 private:
  bool collect_;
  TimePoint cutoff_ = 0;
  const std::vector<Subscriber>* subscribers_ = nullptr;
  uint64_t result_count_ = 0;
  std::vector<JoinResult> results_;
  TimePoint last_time_ = kMinTime;
  bool ordered_ = true;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SINK_H_
