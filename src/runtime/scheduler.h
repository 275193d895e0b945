// Round-robin operator scheduler.
//
// The paper's experimental system (CAPE, Section 7.1) employs round-robin
// scheduling for executing operators. We reproduce that policy: the
// scheduler cycles over the plan's consumer queues and lets each consumer
// process up to `quantum` events per visit. Execution is single-threaded and
// deterministic.
//
// Run-at-a-time delivery: each visit drains up to `quantum` events from the
// queue into a reused EventRun and hands the whole run to
// Operator::OnRun. Because the plan is acyclic, an operator never feeds its
// own input queue, so draining a snapshot of n <= quantum events is
// order-identical to n sequential pops — the event order (and hence every
// paper-unit cost total) is byte-identical to the historical
// one-pop-per-iteration loop.
#ifndef STATESLICE_RUNTIME_SCHEDULER_H_
#define STATESLICE_RUNTIME_SCHEDULER_H_

#include <cstdint>
#include <span>

#include "src/common/tuple.h"
#include "src/runtime/plan.h"
#include "src/runtime/queue.h"

namespace stateslice {

// Drives a started QueryPlan until all consumer queues are empty.
class RoundRobinScheduler {
 public:
  // `quantum` = max events an operator consumes per scheduling visit.
  explicit RoundRobinScheduler(QueryPlan* plan, int quantum = 8);

  // Processes events until every consumer queue in the plan is empty.
  // Returns the number of events processed.
  uint64_t RunUntilQuiescent();

  // Processes at most `max_events` events (useful for interleaving with
  // sources or for step-wise tests). Returns events processed (< max_events
  // implies quiescence).
  uint64_t RunSome(uint64_t max_events);

  uint64_t total_processed() const { return total_processed_; }

 private:
  QueryPlan* plan_;
  int quantum_;
  uint64_t total_processed_ = 0;
  size_t cursor_ = 0;  // round-robin position over consumer edges
  // Reused run buffer (single-threaded scheduler: one buffer suffices, and
  // clear() keeps its capacity so steady state never reallocates).
  EventRun run_;
};

// Feeds `arrivals` (global timestamp order) into `entry` one tuple at a
// time, running `plan` to quiescence after each (the discipline of the
// Engine's auto_drain), then flushes end-of-stream punctuations and drains.
// Returns the events processed. For builder-level tests and benches that
// inspect a BuiltPlan directly (arbitrary partitions, slice states,
// use_key_index=false); they read plan->cost_counters() and their sinks.
// Sessions go through Engine (src/api/engine.h).
uint64_t ReplayArrivals(QueryPlan* plan, EventQueue* entry,
                        std::span<const Tuple> arrivals);

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SCHEDULER_H_
