#include "src/runtime/sharded_scheduler.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/fault_point.h"
#include "src/runtime/backoff.h"
#include "src/runtime/execution_mode.h"

namespace stateslice {

ShardedScheduler::ShardedScheduler(ShardedPlanSet* plans,
                                   ShardedSchedulerOptions options)
    : plans_(plans), options_(options) {
  // Construction runs on the one owning caller thread; no worker exists
  // yet, so the constructing thread trivially holds every exec role (the
  // later thread spawns give happens-before for everything built here).
  caller_role_.Assert();
  SLICE_CHECK(plans_ != nullptr);
  SLICE_CHECK(plans_->num_shards() >= 1);

  // lint: allow(hot-path-alloc) -- constructor-time setup
  router_ = std::make_unique<ShardRouter>(ShardRouterOptions{
      .num_shards = plans_->num_shards(),
      .ring_capacity = options_.ring_capacity});

  const int nq = plans_->num_queries();
  execs_.reserve(static_cast<size_t>(plans_->num_shards()));
  for (int s = 0; s < plans_->num_shards(); ++s) {
    // lint: allow(hot-path-alloc) -- constructor-time shard setup
    auto ex = std::make_unique<ShardExec>();
    ex->built = &plans_->shards[static_cast<size_t>(s)];
    SLICE_CHECK(ex->built->entry != nullptr);
    ex->role.Assert();  // pre-spawn construction (see above)
    // lint: allow(hot-path-alloc) -- constructor-time shard setup
    ex->rr = std::make_unique<RoundRobinScheduler>(ex->built->plan.get(),
                                                   options_.quantum);
    ex->results.reserve(static_cast<size_t>(nq));
    for (int q = 0; q < nq; ++q) {
      // lint: allow(hot-path-alloc) -- constructor-time result rings
      auto ring = std::make_unique<SpscQueue<Event>>(
          options_.result_ring_capacity);
      ex->results.push_back(std::move(ring));
    }
    execs_.push_back(std::move(ex));
  }

  merge_role_.Assert();  // pre-spawn construction (see above)
  // lint: allow(hot-path-alloc) -- constructor-time merge setup
  merge_rr_ = std::make_unique<RoundRobinScheduler>(plans_->merge.plan.get(),
                                                    options_.quantum);
}

ShardedScheduler::~ShardedScheduler() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  if (started_ && !joined_) {
    FinishInput();
    Join();
  }
}

void ShardedScheduler::Start() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  SLICE_CHECK(!started_);
  started_ = true;
  for (BuiltPlan& shard : plans_->shards) {
    SLICE_CHECK(shard.plan->started());
    shard.plan->BeginExecution(ExecutionMode::kSharded);
  }
  SLICE_CHECK(plans_->merge.plan->started());
  plans_->merge.plan->BeginExecution(ExecutionMode::kSharded);
  worker_threads_.reserve(static_cast<size_t>(plans_->num_shards()));
  for (int s = 0; s < plans_->num_shards(); ++s) {
    // Announce the spawn before the thread exists so a schedule-test
    // explorer knows to wait for the worker's registration.
    STATESLICE_SYNC_THREAD_SPAWN();
    worker_threads_.emplace_back(&ShardedScheduler::RunWorker, this, s);
  }
  STATESLICE_SYNC_THREAD_SPAWN();
  merge_thread_ = std::thread(&ShardedScheduler::RunMerge, this);
}

void ShardedScheduler::PushEntry(Event event) {
  caller_role_.Assert();  // feeder == owning caller (single-caller contract)
  // Crash seam: fires before any state mutates, so an injected failure
  // models the feeder dying between batches (fault_point.h).
  STATESLICE_FAULT_POINT("shard.push_entry");
  SLICE_CHECK(started_);
  SLICE_CHECK(!input_finished_);
  // The owning caller thread is the router's single feeder.
  router_->AssertFeeder();
  router_->Route(std::move(event));
}

void ShardedScheduler::PushEntryRun(EventRun* run) {
  caller_role_.Assert();  // feeder == owning caller (single-caller contract)
  // Crash seam: fires before any state mutates (see PushEntry).
  STATESLICE_FAULT_POINT("shard.push_entry");
  SLICE_CHECK(started_);
  SLICE_CHECK(!input_finished_);
  // The owning caller thread is the router's single feeder.
  router_->AssertFeeder();
  for (Event& event : *run) router_->Route(std::move(event));
  run->clear();
}

void ShardedScheduler::FinishInput() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  SLICE_CHECK(started_);
  if (input_finished_) return;
  input_finished_ = true;
  // The owning caller thread is the router's single feeder.
  router_->AssertFeeder();
  router_->CloseAll();
}

void ShardedScheduler::Join() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  if (joined_) return;
  SLICE_CHECK(started_);
  SLICE_CHECK(input_finished_);  // FinishInput() must precede Join()
  // Park brackets the real blocking joins so a schedule-test explorer does
  // not wait on this thread while it waits on the workers.
  STATESLICE_SYNC_PARK();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  STATESLICE_SYNC_UNPARK();
  // Every result-ring producer has exited (and every relay it published
  // happened-before its exit), so once the rings drain the merge worker is
  // done. Release pairs with the acquire in RunMerge's done check.
  STATESLICE_ATOMIC_STORE("shard.merge_close", merge_close_, 1,
                          std::memory_order_release);
  STATESLICE_SYNC_PARK();
  if (merge_thread_.joinable()) merge_thread_.join();
  STATESLICE_SYNC_UNPARK();
  joined_ = true;
  // Return the plans to deterministic mode: the Engine finishes operators
  // (flush) and rewires subscriptions on the caller thread after Join().
  for (BuiltPlan& shard : plans_->shards) shard.plan->EndExecution();
  plans_->merge.plan->EndExecution();
}

void ShardedScheduler::RelayExits(ShardExec* ex, int shard) {
  const auto& exits = plans_->exits[static_cast<size_t>(shard)];
  for (size_t q = 0; q < exits.size(); ++q) {
    EventQueue* exit = exits[q];
    SpscQueue<Event>& ring = *ex->results[q];
    // The shard's worker is the only thread touching the shard plan's exit
    // taps — and hence the only producer of its result rings.
    ring.AssertProducer();
    while (!exit->empty()) {
      ex->relay_run.clear();
      exit->DrainRun(&ex->relay_run, static_cast<size_t>(options_.quantum));
      size_t pushed = 0;
      SpinBackoff backoff;
      while (pushed < ex->relay_run.size()) {
        const size_t n = ring.TryPushRun(&ex->relay_run, pushed);
        if (n == 0) {
          // Futile until the merge worker pops: result backpressure.
          STATESLICE_SYNC_FUTILE("shard.result_backpressure");
          backoff.Pause();
        } else {
          pushed += n;
          backoff.Reset();
        }
      }
      ex->relay_run.clear();
    }
  }
}

void ShardedScheduler::RunWorker(int shard) {
  STATESLICE_SYNC_THREAD_BEGIN(shard);
  ShardExec& ex = *execs_[static_cast<size_t>(shard)];
  ShardCell& cell = router_->cell(shard);
  // This function is the shard's worker entry point: by construction the
  // executing thread is the shard's one executor, the sole consumer of its
  // ingress ring and the sole producer of its result rings.
  ex.role.Assert();
  cell.ring.AssertConsumer();
  SpinBackoff backoff;
  for (;;) {
    ex.ring_run.clear();
    if (cell.ring.TryPopRun(&ex.ring_run,
                            static_cast<size_t>(options_.quantum)) > 0) {
      // Observation seam: worker runs are countable under fault testing
      // (worker threads reach this — count-only, never throws).
      STATESLICE_FAULT_POINT("shard.worker_run");
      ex.built->entry->PushRun(&ex.ring_run);
      ex.rr->RunUntilQuiescent();
      RelayExits(&ex, shard);
      const uint64_t processed = ex.rr->total_processed();
      // lint: allow(atomic-memory-order) -- commutative accounting counter
      STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD("shard.total_add",
                                             total_processed_,
                                             processed - ex.reported,
                                             std::memory_order_relaxed);
      ex.reported = processed;
      backoff.Reset();
      continue;
    }
    if (router_->ClosedAndEmpty(shard)) break;
    // Futile until the feeder pushes or closes.
    STATESLICE_SYNC_FUTILE("shard.worker_idle");
    backoff.Pause();
  }
  STATESLICE_SYNC_THREAD_END();
}

void ShardedScheduler::RunMerge() {
  STATESLICE_SYNC_THREAD_BEGIN(plans_->num_shards());
  // This function is the merge thread's entry point: by construction the
  // executing thread is the one merge worker.
  merge_role_.Assert();
  const int n = plans_->num_shards();
  const int nq = plans_->num_queries();
  SpinBackoff backoff;
  for (;;) {
    uint64_t moved = 0;
    for (int s = 0; s < n; ++s) {
      ShardExec& ex = *execs_[static_cast<size_t>(s)];
      for (int q = 0; q < nq; ++q) {
        SpscQueue<Event>& ring = *ex.results[static_cast<size_t>(q)];
        // The merge worker is every result ring's single consumer.
        ring.AssertConsumer();
        for (;;) {
          merge_run_.clear();
          if (ring.TryPopRun(&merge_run_,
                             static_cast<size_t>(options_.quantum)) == 0) {
            break;
          }
          moved += merge_run_.size();
          plans_->merge_entries[static_cast<size_t>(s)][static_cast<size_t>(q)]
              ->PushRun(&merge_run_);
        }
      }
    }
    if (moved > 0) {
      backoff.Reset();
      const uint64_t before = merge_rr_->total_processed();
      merge_rr_->RunUntilQuiescent();
      // lint: allow(atomic-memory-order) -- commutative accounting counter
      STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD(
          "shard.merge_total_add", total_processed_,
          merge_rr_->total_processed() - before, std::memory_order_relaxed);
      continue;
    }
    // Close is published only after every producer exited, so close
    // observed + rings empty means no result will ever arrive again.
    if (STATESLICE_ATOMIC_LOAD("shard.merge_close_check", merge_close_,
                               std::memory_order_acquire) != 0) {
      bool drained = true;
      for (int s = 0; s < n && drained; ++s) {
        ShardExec& ex = *execs_[static_cast<size_t>(s)];
        for (int q = 0; q < nq; ++q) {
          if (!ex.results[static_cast<size_t>(q)]->empty()) {
            drained = false;
            break;
          }
        }
      }
      if (drained) break;
    }
    // Futile until a shard worker relays results or Join publishes close.
    STATESLICE_SYNC_FUTILE("shard.merge_idle");
    backoff.Pause();
  }
  STATESLICE_SYNC_THREAD_END();
}

uint64_t ShardedScheduler::edges_total_pushed() const {
  caller_role_.Assert();  // accounting reads: owning caller thread only
  uint64_t total = 0;
  for (int s = 0; s < plans_->num_shards(); ++s) {
    const ShardCell& cell = router_->cell(s);
    total += cell.ring.total_pushed();
    for (const auto& ring : execs_[static_cast<size_t>(s)]->results) {
      total += ring->total_pushed();
    }
  }
  return total;
}

size_t ShardedScheduler::edges_high_water_mark() const {
  caller_role_.Assert();  // accounting reads: owning caller thread only
  size_t hwm = 0;
  for (int s = 0; s < plans_->num_shards(); ++s) {
    const ShardCell& cell = router_->cell(s);
    if (cell.ring.high_water_mark() > hwm) hwm = cell.ring.high_water_mark();
    for (const auto& ring : execs_[static_cast<size_t>(s)]->results) {
      if (ring->high_water_mark() > hwm) hwm = ring->high_water_mark();
    }
  }
  return hwm;
}

}  // namespace stateslice
