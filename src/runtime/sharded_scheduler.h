// Key-partitioned shard-parallel scheduler: one fixed worker per shard.
//
// This scheduler splits the *data*, not the plan: a ShardRouter
// hash-partitions arrivals by equi-join key into N independent replicas of
// the shared sliced chain (ShardedPlanSet), one worker thread per shard.
// Each worker drives its replica with the deterministic round-robin
// scheduler, so all operator code runs exactly as in deterministic mode —
// the parallelism lives entirely in the routing, the shard ingress rings,
// and the result merge.
//
// Worker w owns shard w for its whole life: it is the only consumer of the
// shard's ingress ring, the only thread that runs the replica, and the only
// producer of the shard's result rings. It drains the ring run by run,
// relays the replica's exit queues after each run, and exits once the
// shard is closed and its ring empty. A full ring makes the feeder wait
// (ShardRouter::Route), so a hot key serializes on its shard; no other
// worker ever runs it.
//
// Results: each (shard, query) result stream is tapped by an exit queue
// (ShardedPlanSet::exits); the shard's worker relays it into a
// per-(shard, query) SPSC ring, and a dedicated merge worker drains the
// rings into the merge plan, whose per-query UnionMerge re-establishes
// global timestamp order before the authoritative sinks. The shard
// replicas, the rings, and the merge plan form a forward-only DAG, so
// bounded backpressure cannot deadlock.
//
// Thread roles (checked under Clang -Wthread-safety):
//  - caller_role_: one thread constructs, feeds (PushEntry*), finishes,
//    joins, and reads the accounting.
//  - ShardExec::role: the shard's one worker, asserted at the top of
//    RunWorker (and by the constructing thread before any worker exists).
//  - merge_role_: the merge worker thread.
// The SPSC rings carry their own producer/consumer roles.
#ifndef STATESLICE_RUNTIME_SHARDED_SCHEDULER_H_
#define STATESLICE_RUNTIME_SHARDED_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/core/sharded_plan.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_router.h"
#include "src/runtime/spsc_queue.h"
#include "src/runtime/sync_point.h"

namespace stateslice {

// Tuning knobs for a sharded execution.
struct ShardedSchedulerOptions {
  // Per-shard ingress ring capacity, in events.
  size_t ring_capacity = 256;
  // Round-robin quantum inside each replica, and the ring pop-run bound.
  int quantum = 64;
  // Per-(shard, query) result ring capacity, in events.
  size_t result_ring_capacity = 1024;
};

// Drives a ShardedPlanSet with one worker per shard plus a merge worker.
//
// Usage (the Engine wraps this; see ExecutionMode::kSharded):
//   ShardedScheduler sched(&plans, options);
//   sched.Start();
//   for (...) sched.PushEntry(event);   // feeder == caller thread
//   sched.FinishInput();
//   sched.Join();
// After Join() all routed input has reached the merge plan's sinks; only
// operator Finish() flushes remain (the Engine performs them on the
// caller thread — see Engine::TearDownPlan).
class ShardedScheduler {
 public:
  ShardedScheduler(ShardedPlanSet* plans, ShardedSchedulerOptions options = {});
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  // Launches the shard workers and the merge worker.
  void Start();

  // Routes one event (caller/feeder thread only; waits on a full shard
  // ring — ingestion backpressure).
  void PushEntry(Event event);
  // Routes a whole run in order, consuming it (cleared on return).
  void PushEntryRun(EventRun* run);

  // Declares end of input: closes every shard. Workers drain
  // and exit; the merge worker follows once the result rings are empty.
  void FinishInput();

  // Waits for all workers to exit. Idempotent.
  void Join();

  // Events consumed across all shard replicas and the merge plan (same
  // unit as RoundRobinScheduler::total_processed). Exact after Join(); a
  // relaxed snapshot while running.
  uint64_t total_processed() const {
    // lint: allow(atomic-memory-order) -- stale-snapshot accounting read
    return STATESLICE_ATOMIC_ACCOUNTING_LOAD("shard.total", total_processed_,
                                             std::memory_order_relaxed);
  }

  int num_shards() const { return plans_->num_shards(); }

  // Aggregate lock-free-edge accounting (ingress rings + result rings),
  // for queue-memory reporting (RunStats::parallel_edge_*).
  uint64_t edges_total_pushed() const;
  size_t edges_high_water_mark() const;

 private:
  // Everything a shard's worker touches. The container of ShardExecs is
  // structurally frozen before workers spawn; workers only ever index it
  // read-only, and the mutable members are guarded by the worker's role.
  struct ShardExec {
    // Capability of the shard's one worker.
    ThreadRole role;
    BuiltPlan* built = nullptr;  // the shard replica (frozen wiring)
    std::unique_ptr<RoundRobinScheduler> rr STATESLICE_GUARDED_BY(role);
    // Scratch runs: ring drain, exit relay.
    EventRun ring_run STATESLICE_GUARDED_BY(role);
    EventRun relay_run STATESLICE_GUARDED_BY(role);
    // rr->total_processed() already folded into total_processed_.
    uint64_t reported STATESLICE_GUARDED_BY(role) = 0;
    // Result rings, one per query (owned here; frozen after construction).
    std::vector<std::unique_ptr<SpscQueue<Event>>> results;
  };

  // Worker loop of shard `shard`: drain, run, relay until closed + empty.
  void RunWorker(int shard);
  void RunMerge();
  // Drains the shard's exit taps into its result rings. Shard worker only.
  void RelayExits(ShardExec* ex, int shard) STATESLICE_REQUIRES(ex->role);

  ShardedPlanSet* const plans_;
  const ShardedSchedulerOptions options_;
  std::unique_ptr<ShardRouter> router_;
  // Frozen before Start() spawns workers (see ShardExec comment).
  std::vector<std::unique_ptr<ShardExec>> execs_;

  // Merge-worker state.
  ThreadRole merge_role_;
  std::unique_ptr<RoundRobinScheduler> merge_rr_
      STATESLICE_GUARDED_BY(merge_role_);
  EventRun merge_run_ STATESLICE_GUARDED_BY(merge_role_);
  // Set (release) by Join() after the shard workers exit: no result-ring
  // producer remains, so ring-empty means done.
  std::atomic<uint32_t> merge_close_{0};

  std::atomic<uint64_t> total_processed_{0};

  std::vector<std::thread> worker_threads_ STATESLICE_GUARDED_BY(caller_role_);
  std::thread merge_thread_ STATESLICE_GUARDED_BY(caller_role_);
  bool started_ STATESLICE_GUARDED_BY(caller_role_) = false;
  bool input_finished_ STATESLICE_GUARDED_BY(caller_role_) = false;
  bool joined_ STATESLICE_GUARDED_BY(caller_role_) = false;

  // The single thread that owns construction, feeding, and teardown.
  ThreadRole caller_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SHARDED_SCHEDULER_H_
