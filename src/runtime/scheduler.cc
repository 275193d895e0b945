#include "src/runtime/scheduler.h"

#include "src/common/check.h"

namespace stateslice {

RoundRobinScheduler::RoundRobinScheduler(QueryPlan* plan, int quantum)
    : plan_(plan), quantum_(quantum) {
  SLICE_CHECK(plan != nullptr);
  SLICE_CHECK_GT(quantum, 0);
}

uint64_t RoundRobinScheduler::RunSome(uint64_t max_events) {
  // Composite tails spilled while operators run draw from the plan arena.
  ArenaScope arena_scope(plan_->arena());
  uint64_t processed = 0;
  // One "lap" visits every consumer edge once. We stop after a full lap with
  // no progress (quiescent) or when the budget is exhausted.
  size_t idle_visits = 0;
  while (processed < max_events) {
    const auto& edges = plan_->consumer_edges();
    if (edges.empty()) break;
    if (cursor_ >= edges.size()) cursor_ = 0;
    auto& [queue, consumer] = edges[cursor_];
    auto& [op, port] = consumer;
    const uint64_t budget_left = max_events - processed;
    const size_t budget =
        budget_left < static_cast<uint64_t>(quantum_)
            ? static_cast<size_t>(budget_left)
            : static_cast<size_t>(quantum_);
    run_.clear();
    const size_t consumed = queue->DrainRun(&run_, budget);
    if (consumed == 0) {
      ++idle_visits;
      // A full idle lap means every queue is empty.
      if (idle_visits >= edges.size()) break;
    } else {
      op->OnRun(run_, port);
      run_.clear();
      processed += consumed;
      idle_visits = 0;
    }
    ++cursor_;
  }
  total_processed_ += processed;
  return processed;
}

uint64_t RoundRobinScheduler::RunUntilQuiescent() {
  uint64_t processed = 0;
  for (;;) {
    const uint64_t n = RunSome(UINT64_MAX);
    processed += n;
    if (n == 0) break;
  }
  return processed;
}

uint64_t ReplayArrivals(QueryPlan* plan, EventQueue* entry,
                        std::span<const Tuple> arrivals) {
  RoundRobinScheduler scheduler(plan);
  for (const Tuple& tuple : arrivals) {
    entry->Push(tuple);
    scheduler.RunUntilQuiescent();
  }
  plan->FinishAll();
  scheduler.RunUntilQuiescent();
  return scheduler.total_processed();
}

}  // namespace stateslice
