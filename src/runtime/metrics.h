// Runtime metrics collection for the experiments.
//
// The paper measures (Section 7.1):
//  - state memory as the number of tuples held in join states, and
//  - CPU via the average service rate (total throughput / running time).
// The Engine samples state memory every Options::sample_interval of
// virtual time (the monitor thread of CAPE); RunStats aggregates everything
// a bench needs to print one row.
//
// Threading: MemorySample and RunStats are plain value snapshots with no
// synchronization of their own. They are produced only at quiescent points
// — the Engine's accumulators they are folded from are GUARDED_BY its
// surgery capability (src/api/engine.h), so under Clang -Wthread-safety a
// sample taken while workers run fails to compile rather than tearing.
#ifndef STATESLICE_RUNTIME_METRICS_H_
#define STATESLICE_RUNTIME_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/common/timestamp.h"
#include "src/runtime/execution_mode.h"

namespace stateslice {

// One periodic observation of plan memory.
struct MemorySample {
  TimePoint time = 0;       // virtual time of the sample
  size_t state_tuples = 0;  // sum of join-state sizes
  size_t queue_events = 0;  // sum of queue occupancies
};

// Aggregated outcome of one Engine session (Engine::Snapshot).
struct RunStats {
  // --- execution --------------------------------------------------------
  ExecutionMode mode = ExecutionMode::kDeterministic;
  int worker_threads = 1;  // shard workers (kSharded); 1 if deterministic

  // --- volume -----------------------------------------------------------
  uint64_t input_tuples = 0;    // tuples ingested from all streams
  uint64_t events_processed = 0;  // scheduler event count (incl. internal)
  uint64_t results_delivered = 0;  // JoinResults received by all sinks
  // Malformed or unreadable arrivals bounced at ingestion (NaN values,
  // out-of-order or out-of-range timestamps, streams no active query
  // reads); rejected_by_stream[s] attributes them to stream s (pushes with
  // an invalid stream id count in the total only). Distinct from
  // dropped_tuples-style drops: a drop is a well-formed tuple arriving
  // while no query is registered.
  uint64_t rejected_tuples = 0;
  std::vector<uint64_t> rejected_by_stream;
  // kSharded only: events relayed over the lock-free ingress and result
  // rings, and the largest ring occupancy observed (queue-memory
  // analogue). The names predate sharded mode and are kept for readers.
  uint64_t parallel_edge_events = 0;
  size_t parallel_edge_high_water_mark = 0;
  // kSharded only: overflow runs executed by a non-owner worker, and runs
  // spilled from ingress rings into the overflow deques (stealable work).
  uint64_t shard_steals = 0;
  uint64_t shard_spilled_runs = 0;

  // --- time -------------------------------------------------------------
  TimePoint virtual_end_time = 0;  // virtual time horizon of the run
  double wall_seconds = 0.0;       // wall-clock processing time

  // --- memory -----------------------------------------------------------
  std::vector<MemorySample> memory_samples;

  // --- cpu --------------------------------------------------------------
  CostCounters cost;  // comparison counts by category (Eqs. 1-3 units)

  // Average state-memory tuples over samples taken at or after `from`
  // (warm-up exclusion). Returns 0 if no samples qualify.
  double AvgStateTuples(TimePoint from = 0) const;

  // Peak state-memory tuples over all samples.
  size_t MaxStateTuples() const;

  // Paper's service rate: results delivered per wall-clock second.
  double ServiceRate() const {
    return wall_seconds > 0 ? static_cast<double>(results_delivered) /
                                  wall_seconds
                            : 0.0;
  }

  // Comparisons per virtual second — the measured analogue of Cp.
  double ComparisonsPerVirtualSecond() const;

  std::string DebugString() const;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_METRICS_H_
