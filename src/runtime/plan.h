// QueryPlan: ownership and wiring of an operator DAG.
//
// A shared query plan capturing multi-queries is a DAG of operators
// (paper Section 2). The plan owns operators and queues, wires them, checks
// acyclicity, and exposes aggregate metrics (state memory, cost counters).
#ifndef STATESLICE_RUNTIME_PLAN_H_
#define STATESLICE_RUNTIME_PLAN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/cost_counters.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/execution_mode.h"
#include "src/runtime/operator.h"
#include "src/runtime/queue.h"

namespace stateslice {

// Owns a DAG of operators and the queues between them.
//
// Typical construction:
//   QueryPlan plan;
//   auto* join = plan.AddOperator(std::make_unique<SlidingWindowJoin>(...));
//   EventQueue* in = plan.AddEntryQueue("in", join, /*port=*/0);
//   plan.Connect(join, kResultPort, sink, 0);
//   plan.Start();
class QueryPlan {
 public:
  QueryPlan() = default;

  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  // Adds `op` to the plan and returns a non-owning pointer (typed for
  // convenience). The plan installs its cost-counter sink on the operator.
  template <typename OpT>
  OpT* AddOperator(std::unique_ptr<OpT> op) {
    OpT* raw = op.get();
    RegisterOperator(std::move(op));
    return raw;
  }

  // Creates a queue feeding `op` at `port` from outside the plan (a source
  // pushes into it). Returned pointer is owned by the plan.
  EventQueue* AddEntryQueue(const std::string& name, Operator* op, int port);

  // Creates a queue from `from`'s output `out_port` to `to`'s input
  // `in_port`. Output ports broadcast: connecting the same output port twice
  // fans out a copy of each event to each queue.
  EventQueue* Connect(Operator* from, int out_port, Operator* to,
                      int in_port);

  // Creates an exit queue fed by `from`'s output `out_port`, to be drained
  // externally (rare; sinks are usually plan operators).
  EventQueue* AddExitQueue(const std::string& name, Operator* from,
                           int out_port);

  // Verifies the DAG (acyclicity over queue edges) and calls Start() on all
  // operators. Must be called exactly once before execution.
  void Start();

  // Calls Finish() on operators in topological order, then drains any
  // events those flushes produced. Used by the executor at end-of-input.
  // (Exposed for tests; most callers use Executor::Run.)
  void FinishAll();

  // Sum of StateSize() over all operators: the paper's state-memory metric.
  size_t TotalStateSize() const;

  // Sum of current queue occupancy (queue memory).
  size_t TotalQueueSize() const;

  // All operators in insertion order.
  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return operators_;
  }
  // All queues in creation order.
  const std::vector<std::unique_ptr<EventQueue>>& queues() const {
    return queues_;
  }
  // Queues that feed operator inputs (entry + internal), i.e. queues the
  // scheduler must drain. Exit queues are excluded.
  const std::vector<std::pair<EventQueue*, std::pair<Operator*, int>>>&
  consumer_edges() const {
    return consumer_edges_;
  }

  // Operators in a topological order following queue edges; CHECK-fails on
  // a cycle. FinishAll flushes operators in this order.
  std::vector<Operator*> TopologicalOrder() const;

  CostCounters& cost_counters() { return cost_counters_; }
  const CostCounters& cost_counters() const { return cost_counters_; }

  // The plan's epoch arena backing spilled composite-tuple tails.
  // Schedulers install it (ArenaScope) for the duration of a run; its
  // lifetime is the plan's lifetime. Immutable pointer after construction,
  // safe to read from any thread.
  Arena* arena() { return &arena_; }

  bool started() const { return started_; }

  // --- execution-mode bookkeeping --------------------------------------
  // The active scheduler declares its mode for the duration of a run. The
  // deterministic mode is the default; while a sharded execution is
  // active, operators and queues are touched by worker threads, so plan
  // surgery and whole-plan traversals from other threads are forbidden
  // (the *WhileRunning hooks CHECK against it).
  void BeginExecution(ExecutionMode mode) {
    SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
    active_mode_ = mode;
  }
  void EndExecution() { active_mode_ = ExecutionMode::kDeterministic; }

  // Graphviz DOT rendering of the DAG for docs/debugging.
  std::string ToDot() const;

  // --- runtime plan surgery (Section 5.3 online migration) -------------
  // These are low-level hooks used by core/migration.cc. They bypass the
  // "wire before Start()" rule; callers are responsible for quiescing the
  // affected region as described in the paper.
  //
  // The "no migration while threaded" rule is enforced twice: at runtime by
  // the SLICE_CHECK against active_mode_, and at compile time (Clang
  // -Wthread-safety) by the structure-surgery role below — every hook
  // requires it, and the only way to obtain it is AssertSurgeryExclusive(),
  // whose call sites must justify that the workers are quiescent.

  // Declares that the calling thread has exclusive access to plan
  // structure: no threaded execution is active (workers joined, or the
  // plan never left deterministic mode) and no other thread touches the
  // plan. Engine::QuiesceForSurgery establishes exactly this state.
  void AssertSurgeryExclusive() const
      STATESLICE_ASSERT_CAPABILITY(structure_role_) {}

  // Detaches nothing (operators keep their queues); simply registers `op`
  // into the running plan and starts it.
  template <typename OpT>
  OpT* InsertOperatorWhileRunning(std::unique_ptr<OpT> op)
      STATESLICE_REQUIRES(structure_role_) {
    SLICE_CHECK(active_mode_ == ExecutionMode::kDeterministic);
    OpT* raw = op.get();
    RegisterOperator(std::move(op));
    raw->Start();
    return raw;
  }

  // Removes `op` from scheduling. Its queues are kept (they may still be
  // referenced); the operator object is destroyed. All of its input queues
  // must be empty.
  void RemoveOperatorWhileRunning(Operator* op)
      STATESLICE_REQUIRES(structure_role_);

  // Like Connect, but permitted after Start(). The new queue joins the
  // scheduler's round-robin immediately.
  EventQueue* ConnectWhileRunning(Operator* from, int out_port, Operator* to,
                                  int in_port)
      STATESLICE_REQUIRES(structure_role_);

  // Moves `queue` from `old_from`'s output `old_port` to `new_from`'s
  // output `new_port`, keeping the consumer side untouched. The migration
  // primitive for handing a live edge to a new producer.
  void MoveQueueProducer(EventQueue* queue, Operator* old_from, int old_port,
                         Operator* new_from, int new_port)
      STATESLICE_REQUIRES(structure_role_);

  // Rebinds `queue`'s consumer to (`to`, `in_port`). `queue` must currently
  // have a consumer. Used when a merged slice replaces the chain element
  // that a queue used to feed.
  void ReplaceQueueConsumer(EventQueue* queue, Operator* to, int in_port)
      STATESLICE_REQUIRES(structure_role_);

  // Removes `queue` from the consumer/producer edge tables (it stops being
  // scheduled). The queue must be empty; the owning storage is retained so
  // stale pointers stay valid.
  void RetireQueue(EventQueue* queue) STATESLICE_REQUIRES(structure_role_);

 private:
  void RegisterOperator(std::unique_ptr<Operator> op);

  // Declared before operators_/queues_ so it is destroyed *last*: operator
  // state and queued events may hold arena-backed composite tails, and
  // their destructors return blocks to this arena.
  Arena arena_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  // queue -> (consumer operator, port)
  std::vector<std::pair<EventQueue*, std::pair<Operator*, int>>>
      consumer_edges_;
  // producer operator -> queue (for DOT and topo-sort)
  std::vector<std::pair<Operator*, EventQueue*>> producer_edges_;
  CostCounters cost_counters_;
  bool started_ = false;
  ExecutionMode active_mode_ = ExecutionMode::kDeterministic;
  // Capability for structural surgery on a running plan (see the surgery
  // section above).
  ThreadRole structure_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_PLAN_H_
