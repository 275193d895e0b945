// Lock-free bounded single-producer/single-consumer ring queue.
//
// The sharded scheduler (src/runtime/sharded_scheduler.h) connects the
// router to each shard and each shard to the merge worker with these
// rings: exactly one thread pushes and exactly one thread pops, so a
// classic head/tail ring with acquire/release ordering suffices — no
// locks, no CAS loops. Capacity is bounded, which is what gives the
// workers backpressure: a producer whose downstream ring is full must wait
// (spin/yield) until the consumer catches up.
//
// The queue keeps the same accounting as the deterministic EventQueue
// (high_water_mark / total_pushed) so queue-memory reporting works in both
// execution modes. Both counters are maintained by the producer; the
// high-water mark is computed against the producer's cached view of the
// consumer position, so it can over-estimate occupancy by the consumer's
// lag, but never exceeds the capacity.
#ifndef STATESLICE_RUNTIME_SPSC_QUEUE_H_
#define STATESLICE_RUNTIME_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/sync_point.h"

namespace stateslice {

namespace spsc_internal {

// Publication orders for the ring indices. The release stores are the load-
// bearing half of the SPSC protocol: they order the slot writes before the
// index publication the other side acquires. The STATESLICE_SEEDED_BUG_*
// variants deliberately weaken one of them so the interleave explorer
// (tests/interleave/) can prove it catches the resulting data race — they
// are compiled only by the seeded-violation catch tests, never by
// production targets.
#if defined(STATESLICE_SEEDED_BUG_1)
// lint: allow(atomic-memory-order) -- seeded interleave-catch violation
inline constexpr std::memory_order kTailPublishOrder =
    std::memory_order_relaxed;
#else
inline constexpr std::memory_order kTailPublishOrder =
    std::memory_order_release;
#endif
#if defined(STATESLICE_SEEDED_BUG_2)
// lint: allow(atomic-memory-order) -- seeded interleave-catch violation
inline constexpr std::memory_order kRunPublishOrder =
    std::memory_order_relaxed;
#else
inline constexpr std::memory_order kRunPublishOrder =
    std::memory_order_release;
#endif

}  // namespace spsc_internal

// Bounded SPSC FIFO of default-constructible, movable values.
//
// Thread contract: TryPush (and the producer-side accessors it maintains)
// may be called by one thread at a time; TryPop by one (possibly different)
// thread at a time. empty()/size() are safe from any thread but return a
// snapshot that may be stale by the time the caller acts on it.
//
// The SPSC contract is machine-checked via two thread roles: TryPush
// requires the producer role and TryPop the consumer role. A thread that
// takes on a role (e.g. the merge worker, sole consumer of a shard's
// result ring) declares it with AssertProducer()/AssertConsumer()
// plus a comment justifying the claim; under Clang -Wthread-safety, calling
// TryPush/TryPop — or touching the role-cached indices — without the
// matching assertion in scope is a compile error.
template <typename T>
class SpscQueue {
 public:
  // Rounds `min_capacity` up to the next power of two (>= 2) so the ring
  // index is a mask instead of a modulo.
  explicit SpscQueue(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Declares that the calling thread is this ring's single producer
  // (consumer). The claim must hold by construction of the caller's
  // threading design — document why at each call site.
  void AssertProducer() const STATESLICE_ASSERT_CAPABILITY(producer_role_) {}
  void AssertConsumer() const STATESLICE_ASSERT_CAPABILITY(consumer_role_) {}

  // Attempts to append `value`. Returns false (leaving `value` untouched)
  // when the ring is full. Producer thread only.
  bool TryPush(T&& value) STATESLICE_REQUIRES(producer_role_) {
    // lint: allow(atomic-memory-order) -- producer-owned index, self-read
    const uint64_t tail = STATESLICE_ATOMIC_LOAD_OWNER(
        "spsc.push.tail_read", tail_, std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = STATESLICE_ATOMIC_LOAD("spsc.push.head_refresh", head_,
                                           std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    STATESLICE_SYNC_PLAIN_WRITE("spsc.push.slot", &slots_[tail & mask_]);
    slots_[tail & mask_] = std::move(value);
    STATESLICE_ATOMIC_STORE("spsc.push.tail_publish", tail_, tail + 1,
                            spsc_internal::kTailPublishOrder);
    // lint: allow(atomic-memory-order) -- single-writer accounting counter
    STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD("spsc.push.total", total_pushed_,
                                           1, std::memory_order_relaxed);
    const uint64_t occupancy = tail + 1 - head_cache_;
    // lint: allow(atomic-memory-order) -- single-writer accounting counter
    if (occupancy > STATESLICE_ATOMIC_ACCOUNTING_LOAD(
                        "spsc.push.hwm_read", high_water_mark_,
                        std::memory_order_relaxed)) {
      // lint: allow(atomic-memory-order) -- single-writer accounting counter
      STATESLICE_ATOMIC_ACCOUNTING_STORE("spsc.push.hwm_write",
                                         high_water_mark_, occupancy,
                                         std::memory_order_relaxed);
    }
    return true;
  }

  // Bulk TryPush: appends values of `*run` starting at index `from`, as
  // many as fit, and returns how many were pushed (possibly zero when the
  // ring is full). All pushed values are published with a single release
  // store, amortizing the atomic traffic across the run. `RunT` needs only
  // size() and operator[] (EventRun, std::vector). Producer thread only.
  template <typename RunT>
  size_t TryPushRun(RunT* run, size_t from)
      STATESLICE_REQUIRES(producer_role_) {
    // lint: allow(atomic-memory-order) -- producer-owned index, self-read
    const uint64_t tail = STATESLICE_ATOMIC_LOAD_OWNER(
        "spsc.push_run.tail_read", tail_, std::memory_order_relaxed);
    size_t space = static_cast<size_t>(capacity_ - (tail - head_cache_));
    if (space == 0) {
      head_cache_ = STATESLICE_ATOMIC_LOAD("spsc.push_run.head_refresh",
                                           head_, std::memory_order_acquire);
      space = static_cast<size_t>(capacity_ - (tail - head_cache_));
      if (space == 0) return 0;
    }
    const size_t want = run->size() - from;
    const size_t count = want < space ? want : space;
    for (size_t i = 0; i < count; ++i) {
      STATESLICE_SYNC_PLAIN_WRITE("spsc.push_run.slot",
                                  &slots_[(tail + i) & mask_]);
      slots_[(tail + i) & mask_] = std::move((*run)[from + i]);
    }
    STATESLICE_ATOMIC_STORE("spsc.push_run.tail_publish", tail_,
                            tail + count, spsc_internal::kRunPublishOrder);
    // lint: allow(atomic-memory-order) -- single-writer accounting counter
    STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD("spsc.push_run.total",
                                           total_pushed_, count,
                                           std::memory_order_relaxed);
    const uint64_t occupancy = tail + count - head_cache_;
    // lint: allow(atomic-memory-order) -- single-writer accounting counter
    if (occupancy > STATESLICE_ATOMIC_ACCOUNTING_LOAD(
                        "spsc.push_run.hwm_read", high_water_mark_,
                        std::memory_order_relaxed)) {
      // lint: allow(atomic-memory-order) -- single-writer accounting counter
      STATESLICE_ATOMIC_ACCOUNTING_STORE("spsc.push_run.hwm_write",
                                         high_water_mark_, occupancy,
                                         std::memory_order_relaxed);
    }
    return count;
  }

  // Attempts to move the front value into `*out`. Returns false when the
  // ring is empty. Consumer thread only.
  bool TryPop(T* out) STATESLICE_REQUIRES(consumer_role_) {
    // lint: allow(atomic-memory-order) -- consumer-owned index, self-read
    const uint64_t head = STATESLICE_ATOMIC_LOAD_OWNER(
        "spsc.pop.head_read", head_, std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = STATESLICE_ATOMIC_LOAD("spsc.pop.tail_refresh", tail_,
                                           std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    STATESLICE_SYNC_PLAIN_READ("spsc.pop.slot", &slots_[head & mask_]);
    *out = std::move(slots_[head & mask_]);
    STATESLICE_ATOMIC_STORE("spsc.pop.head_publish", head_, head + 1,
                            std::memory_order_release);
    return true;
  }

  // Bulk TryPop: moves up to `max_values` front values into *out via
  // push_back, publishing the consumption with a single release store.
  // Returns how many moved (zero when empty). Consumer thread only.
  template <typename RunT>
  size_t TryPopRun(RunT* out, size_t max_values)
      STATESLICE_REQUIRES(consumer_role_) {
    // lint: allow(atomic-memory-order) -- consumer-owned index, self-read
    const uint64_t head = STATESLICE_ATOMIC_LOAD_OWNER(
        "spsc.pop_run.head_read", head_, std::memory_order_relaxed);
    uint64_t available = tail_cache_ - head;
    if (available == 0) {
      tail_cache_ = STATESLICE_ATOMIC_LOAD("spsc.pop_run.tail_refresh",
                                           tail_, std::memory_order_acquire);
      available = tail_cache_ - head;
      if (available == 0) return 0;
    }
    const size_t count = max_values < available
                             ? max_values
                             : static_cast<size_t>(available);
    for (size_t i = 0; i < count; ++i) {
      STATESLICE_SYNC_PLAIN_READ("spsc.pop_run.slot",
                                 &slots_[(head + i) & mask_]);
      out->push_back(std::move(slots_[(head + i) & mask_]));
    }
    STATESLICE_ATOMIC_STORE("spsc.pop_run.head_publish", head_, head + count,
                            std::memory_order_release);
    return count;
  }

  // Snapshot emptiness / occupancy (any thread; may be stale).
  bool empty() const { return size() == 0; }
  size_t size() const {
    const uint64_t tail = STATESLICE_ATOMIC_LOAD("spsc.size.tail", tail_,
                                                 std::memory_order_acquire);
    const uint64_t head = STATESLICE_ATOMIC_LOAD("spsc.size.head", head_,
                                                 std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return capacity_; }

  // Largest producer-observed occupancy (see file comment for precision).
  size_t high_water_mark() const {
    // lint: allow(atomic-memory-order) -- stale-snapshot accounting read
    return STATESLICE_ATOMIC_ACCOUNTING_LOAD("spsc.hwm", high_water_mark_,
                                             std::memory_order_relaxed);
  }

  // Total number of values ever pushed.
  uint64_t total_pushed() const {
    // lint: allow(atomic-memory-order) -- stale-snapshot accounting read
    return STATESLICE_ATOMIC_ACCOUNTING_LOAD("spsc.total", total_pushed_,
                                             std::memory_order_relaxed);
  }

 private:
  // Cache-line layout: the two shared indices get a line each, then one
  // line of producer-written state and one line of consumer-written state,
  // so neither side's per-operation writes invalidate a line the other
  // side touches. The trailing members are written only during
  // construction; read-only sharing of their line is free.
  alignas(64) std::atomic<uint64_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<uint64_t> tail_{0};  // next slot to fill
  // -- producer-written --
  // producer's view of head_
  alignas(64) uint64_t head_cache_ STATESLICE_GUARDED_BY(producer_role_) = 0;
  std::atomic<uint64_t> high_water_mark_{0};
  std::atomic<uint64_t> total_pushed_{0};
  // -- consumer-written --
  // consumer's view of tail_
  alignas(64) uint64_t tail_cache_ STATESLICE_GUARDED_BY(consumer_role_) = 0;
  // -- immutable after construction --
  alignas(64) std::vector<T> slots_;
  size_t capacity_ = 0;
  uint64_t mask_ = 0;
  // The SPSC role capabilities (empty tags; see file comment).
  ThreadRole producer_role_;
  ThreadRole consumer_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SPSC_QUEUE_H_
