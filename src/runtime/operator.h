// Base class for stream operators.
//
// An operator consumes events from zero or more input queues and pushes
// events into zero or more output queues. The scheduler drives execution by
// repeatedly asking operators to process the front event of one of their
// inputs. Operators never block; all state lives inside the operator.
#ifndef STATESLICE_RUNTIME_OPERATOR_H_
#define STATESLICE_RUNTIME_OPERATOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/common/tuple.h"
#include "src/runtime/queue.h"

namespace stateslice {

// Abstract stream operator node in a query plan DAG.
//
// Subclasses implement Process(). Input/output queues are attached by the
// QueryPlan during wiring; an operator addresses them by port index. Port
// meanings are subclass-specific (e.g. the binary join has one logical input
// port; the union has one port per producer).
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  // Handles one event arriving on `input_port`. Called by the scheduler.
  virtual void Process(Event event, int input_port) = 0;

  // Batch entry point: handles a run of events drained from input
  // `input_port`'s queue, in order. Schedulers deliver runs (bounded by
  // their quantum / run length); the scalar Process path is the degenerate
  // run of one. The base implementation loops Process over the run, so
  // overriding is an optimization, never a semantic change — overriders
  // must preserve exact per-event ordering. Events in `run` are consumed
  // (moved from); the caller clears the run afterwards.
  virtual void OnRun(EventRun& run, int input_port);

  // Number of tuples currently held in operator state (join windows). The
  // paper's memory metric (Figures 17a-f) sums this over all operators.
  virtual size_t StateSize() const { return 0; }

  // Called once after wiring, before the first event. Subclasses verify
  // their port configuration here.
  virtual void Start() {}

  // Called when all sources are exhausted and all queues drained; lets
  // operators flush end-of-stream punctuations.
  virtual void Finish() {}

  // --- wiring (used by QueryPlan) -------------------------------------

  // Attaches `queue` as input port `port`. Growing the port vector as
  // needed; a port may be attached only once.
  void AttachInput(int port, EventQueue* queue);

  // Attaches `queue` as one of the fan-out destinations of output `port`.
  // Pushing to an output port broadcasts to all attached queues.
  void AttachOutput(int port, EventQueue* queue);

  // Removes `queue` from output `port`'s fan-out set. Used by online chain
  // migration (Section 5.3) when a queue's producer changes. The queue must
  // currently be attached.
  void DetachOutput(int port, EventQueue* queue);

  // Rebinds input `port` to `queue` (migration: a queue's consumer moved).
  void ReplaceInput(int port, EventQueue* queue);

  // Charges comparison costs here; set by the plan (may be null in tests).
  void set_cost_counters(CostCounters* counters) { cost_ = counters; }

  int input_port_count() const { return static_cast<int>(inputs_.size()); }
  int output_port_count() const { return static_cast<int>(outputs_.size()); }

  EventQueue* input(int port) const { return inputs_[port]; }

  const std::string& name() const { return name_; }

 protected:
  // Sends `event` to every queue attached to output `port`. Unattached
  // ports silently drop (paper: optional Purged-A-Tuple queues "if exists").
  void Emit(int port, const Event& event);

  // Emit with move semantics: the event is moved into the last attached
  // queue and copied into any earlier fan-out queues. Worth using for
  // composite events, whose constituent-tail vector a copy would clone.
  void EmitMove(int port, Event&& event);

  // True if at least one queue is attached to output `port`.
  bool HasOutput(int port) const {
    return port < static_cast<int>(outputs_.size()) &&
           !outputs_[port].empty();
  }

  // Charges `n` comparisons to `category` (no-op without a counter sink).
  void Charge(CostCategory category, uint64_t n) {
    if (cost_ != nullptr) cost_->Add(category, n);
  }

  // Charges `n` units of physical probe/index work (kept on a separate
  // axis from the paper-unit categories; see PhysCategory).
  void ChargePhysical(PhysCategory category, uint64_t n) {
    if (cost_ != nullptr && n > 0) cost_->AddPhysical(category, n);
  }

  // Charges one probe's outcome: the logical comparisons (paper unit) plus
  // the physical lookup/visit work, and drains the probed state's pending
  // index-upkeep counter. Duck-typed over ProbeStats/BasicJoinState so the
  // runtime layer needs no operator-level includes.
  template <typename StatsT, typename StateT>
  void ChargeProbe(const StatsT& stats, StateT* state) {
    Charge(CostCategory::kProbe, stats.comparisons);
    ChargePhysical(PhysCategory::kKeyLookup, stats.key_lookups);
    ChargePhysical(PhysCategory::kEntryVisit, stats.entries_visited);
    ChargePhysical(PhysCategory::kIndexUpkeep, state->TakeIndexUpkeep());
  }

 private:
  std::string name_;
  std::vector<EventQueue*> inputs_;
  std::vector<std::vector<EventQueue*>> outputs_;
  CostCounters* cost_ = nullptr;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_OPERATOR_H_
