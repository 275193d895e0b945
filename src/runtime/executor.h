// Executor: feeds sources into a plan and collects RunStats.
//
// The executor merges all stream sources into global timestamp order,
// pushes each tuple into its entry queue, and lets the single-threaded
// round-robin scheduler drain the plan (ExecutionMode::kDeterministic, the
// CAPE policy of paper Section 7.1). Memory is sampled every
// `sample_interval` of virtual time, which emulates CAPE's statistics
// monitor thread while remaining deterministic. The threaded sharded mode
// is served by the Engine only (src/api/engine.h).
#ifndef STATESLICE_RUNTIME_EXECUTOR_H_
#define STATESLICE_RUNTIME_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "src/runtime/metrics.h"
#include "src/runtime/plan.h"
#include "src/runtime/queue.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/sink.h"
#include "src/runtime/source.h"

namespace stateslice {

// Binds one source to one plan entry queue.
struct SourceBinding {
  StreamSource* source = nullptr;
  EventQueue* entry = nullptr;
};

// Options controlling a run.
struct ExecutorOptions {
  // Virtual-time spacing between memory samples. Default: 1 second.
  Duration sample_interval = kTicksPerSecond;
  // How many tuples to feed before letting the scheduler catch up. A batch
  // of 1 processes each arrival to quiescence (max determinism); larger
  // batches model queueing under bursts. The paper's analysis assumes
  // tuple-at-a-time processing, so 1 is the default.
  int feed_batch = 1;
  // Optional cap on total scheduler events (guards runaway tests); 0 = off.
  // This is a *feed cutoff*, not a hard processing stop: once crossed, no
  // further tuples are fed, but work already in flight still drains, so
  // events_processed can exceed the cap by up to one feed_batch's worth.
  uint64_t max_events = 0;
  // Virtual time at which to snapshot the cost counters for steady-state
  // CPU accounting (0 = no snapshot). See RunStats::cost_at_snapshot.
  TimePoint cost_snapshot_time = 0;
  // If true, call plan->FinishAll() after sources drain so operators can
  // flush final punctuations, then drain again.
  bool finish_at_end = true;
};

// Runs a started plan to completion over the given sources.
class Executor {
 public:
  Executor(QueryPlan* plan, std::vector<SourceBinding> sources,
           ExecutorOptions options = {});

  // Registers a sink whose result counts are added to RunStats.
  void AddSink(const CountingSink* sink) { counting_sinks_.push_back(sink); }
  void AddSink(const CollectingSink* sink) {
    collecting_sinks_.push_back(sink);
  }

  // Feeds everything, drains the plan and returns the collected stats.
  RunStats Run();

 private:
  // Picks the source with the smallest next timestamp; nullptr when all
  // are exhausted.
  const SourceBinding* NextSource() const;
  void CollectSinkCounts(RunStats* stats) const;

  QueryPlan* plan_;
  std::vector<SourceBinding> sources_;
  ExecutorOptions options_;
  std::vector<const CountingSink*> counting_sinks_;
  std::vector<const CollectingSink*> collecting_sinks_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_EXECUTOR_H_
