#include "src/runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"

namespace stateslice {

Executor::Executor(QueryPlan* plan, std::vector<SourceBinding> sources,
                   ExecutorOptions options)
    : plan_(plan), sources_(std::move(sources)), options_(options) {
  SLICE_CHECK(plan != nullptr);
  for (const SourceBinding& b : sources_) {
    SLICE_CHECK(b.source != nullptr);
    SLICE_CHECK(b.entry != nullptr);
  }
}

const SourceBinding* Executor::NextSource() const {
  const SourceBinding* best = nullptr;
  TimePoint best_time = kMaxTime;
  for (const SourceBinding& b : sources_) {
    const TimePoint t = b.source->NextTime();
    if (t < best_time) {
      best_time = t;
      best = &b;
    }
  }
  return best;
}

void Executor::CollectSinkCounts(RunStats* stats) const {
  for (const CountingSink* sink : counting_sinks_) {
    stats->results_delivered += sink->result_count();
  }
  for (const CollectingSink* sink : collecting_sinks_) {
    stats->results_delivered += sink->result_count();
  }
}

RunStats Executor::Run() {
  SLICE_CHECK(plan_->started());
  RunStats stats;
  stats.mode = ExecutionMode::kDeterministic;
  stats.worker_threads = 1;
  RoundRobinScheduler scheduler(plan_);

  TimePoint next_sample = 0;
  TimePoint now = 0;
  bool cost_snapshotted = false;

  const auto wall_start = std::chrono::steady_clock::now();

  int fed_since_drain = 0;
  for (;;) {
    // Pick the source with the smallest next timestamp (global ordering).
    const SourceBinding* best = NextSource();
    if (best == nullptr) break;  // all exhausted
    const TimePoint best_time = best->source->NextTime();

    // Take memory samples for every interval boundary we are crossing.
    while (best_time >= next_sample) {
      stats.memory_samples.push_back(MemorySample{
          .time = next_sample,
          .state_tuples = plan_->TotalStateSize(),
          .queue_events = plan_->TotalQueueSize(),
      });
      next_sample += options_.sample_interval;
    }
    if (options_.cost_snapshot_time > 0 && !cost_snapshotted &&
        best_time >= options_.cost_snapshot_time) {
      stats.cost_at_snapshot = plan_->cost_counters();
      stats.cost_snapshot_time = options_.cost_snapshot_time;
      cost_snapshotted = true;
    }

    now = best_time;
    best->entry->Push(best->source->PopNext());
    ++stats.input_tuples;

    if (++fed_since_drain >= options_.feed_batch) {
      scheduler.RunUntilQuiescent();
      fed_since_drain = 0;
    }
    if (options_.max_events > 0 &&
        scheduler.total_processed() >= options_.max_events) {
      break;
    }
  }
  scheduler.RunUntilQuiescent();
  if (options_.finish_at_end) {
    plan_->FinishAll();
    scheduler.RunUntilQuiescent();
  }

  const auto wall_end = std::chrono::steady_clock::now();
  stats.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  stats.virtual_end_time = now;
  stats.events_processed = scheduler.total_processed();
  stats.cost = plan_->cost_counters();

  CollectSinkCounts(&stats);
  return stats;
}

}  // namespace stateslice
