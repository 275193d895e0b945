// Execution modes of the stream runtime.
//
// Kept in its own small header so low-level consumers (metrics) can name
// the mode without depending on the full plan/operator graph.
#ifndef STATESLICE_RUNTIME_EXECUTION_MODE_H_
#define STATESLICE_RUNTIME_EXECUTION_MODE_H_

namespace stateslice {

// How a plan is driven at runtime.
//
//  - kDeterministic: the single-threaded round-robin scheduler of
//    src/runtime/scheduler.h (CAPE's policy, paper Section 7.1). The
//    reference for correctness; supports online migration.
//  - kSharded: the key-partitioned scheduler of
//    src/runtime/sharded_scheduler.h. Arrivals are hash-partitioned by the
//    plan's equi-join key into N independent replicas of the sliced chain
//    (data parallelism), one fixed worker per shard (a hot key serializes
//    on its shard); a merge plan re-establishes timestamp order
//    through UnionMerge before the authoritative sinks. Requires an
//    equi-key join condition; plan surgery takes the drain-rebuild path.
//
// The values are stable: checkpoints record them.
enum class ExecutionMode {
  kDeterministic = 0,
  kSharded = 2,
};

// Stable lower-case name of `mode` ("deterministic", "sharded").
constexpr const char* ExecutionModeName(ExecutionMode mode) {
  return mode == ExecutionMode::kSharded ? "sharded" : "deterministic";
}

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_EXECUTION_MODE_H_
