// Key-hash router feeding the sharded execution mode.
//
// The sharded scheduler (src/runtime/sharded_scheduler.h) replicates the
// shared sliced chain into N independent shard instances, each driven by
// one fixed worker; this router owns the per-shard ingress structures and
// the single-feeder routing discipline that keeps every shard's input
// timestamp-ordered:
//
//  - A Tuple is routed to shard hash(key) % N, so equal keys always meet
//    in the same replica (equi-join results are exactly the union of the
//    per-shard results). Punctuations (and any non-tuple event) broadcast
//    to every shard.
//  - Each shard is fed through one bounded SPSC ring, its only ingress
//    lane. When the ring is full the feeder waits for the shard's worker
//    to pop: that wait is the sharded mode's ingestion backpressure, and a
//    hot key serializes on its shard.
//  - CloseAll publishes each shard's closed flag with a release store after
//    the last push. A worker that reads the flag set (acquire) and then
//    finds the ring empty has seen every routed event (ClosedAndEmpty).
#ifndef STATESLICE_RUNTIME_SHARD_ROUTER_H_
#define STATESLICE_RUNTIME_SHARD_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/tuple.h"
#include "src/runtime/spsc_queue.h"
#include "src/runtime/sync_point.h"

namespace stateslice {

namespace shard_internal {

// Order of the close-flag store. Releasing the flag publishes every ring
// push the feeder made before it to the worker's acquire load, so "closed
// and empty" means no event is left; weakening it to relaxed is the
// seeded-violation variant the interleave catch test proves detectable.
// Compiled only by that test, never by production targets.
#if defined(STATESLICE_SEEDED_BUG_7)
// lint: allow(atomic-memory-order) -- seeded interleave-catch violation
inline constexpr std::memory_order kCloseReleaseOrder =
    std::memory_order_relaxed;
#else
inline constexpr std::memory_order kCloseReleaseOrder =
    std::memory_order_release;
#endif

}  // namespace shard_internal

struct ShardRouterOptions {
  int num_shards = 2;
  // Per-shard SPSC ring capacity (events).
  size_t ring_capacity = 256;
};

// Per-shard ingress state: the ring carries its own role capabilities; the
// closed flag is a lock-free cross-thread site.
struct ShardCell {
  explicit ShardCell(size_t ring_capacity) : ring(ring_capacity) {}

  SpscQueue<Event> ring;
  // Set (release) by the feeder after its last push: no further input will
  // arrive on this shard.
  alignas(64) std::atomic<uint32_t> closed{0};
};

// Owns the shard cells and the feeder-side routing state. Thread contract:
// Route/CloseAll are feeder-thread-only (machine-checked via the feeder
// role); IsClosed/ClosedAndEmpty are any-thread.
class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  int num_shards() const { return options_.num_shards; }
  ShardCell& cell(int shard) { return *cells_[static_cast<size_t>(shard)]; }
  const ShardCell& cell(int shard) const {
    return *cells_[static_cast<size_t>(shard)];
  }

  // Shard index for an equi-join key (splitmix64 finalizer: cheap and
  // well-distributed even for dense sequential key domains).
  int ShardOf(int64_t key) const {
    uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<int>(x % static_cast<uint64_t>(options_.num_shards));
  }

  // Declares that the calling thread is the router's single feeder.
  // Document why at each call site.
  void AssertFeeder() const STATESLICE_ASSERT_CAPABILITY(feeder_role_) {}

  // Routes one event (tuples by key; everything else broadcast). Waits
  // (spin/backoff) while a target shard's ring is full — the sharded
  // mode's ingestion backpressure. Feeder thread only.
  void Route(Event event) STATESLICE_REQUIRES(feeder_role_);

  // Publishes the closed flag on every shard (release): no further input.
  // Feeder thread only.
  void CloseAll() STATESLICE_REQUIRES(feeder_role_);

  // True once CloseAll has published this shard's close (acquire).
  bool IsClosed(int shard) const {
    return STATESLICE_ATOMIC_LOAD("shard.closed_check", cell(shard).closed,
                                  std::memory_order_acquire) != 0;
  }

  // True once the shard is closed and its ring drained: its worker may
  // exit. The flag is read first; its acquire makes the emptiness read
  // authoritative (the other order could pair a stale empty view with a
  // fresh close and strand the last event).
  bool ClosedAndEmpty(int shard) const {
    return IsClosed(shard) && cell(shard).ring.empty();
  }

  // Events routed so far, per shard (feeder-side exact counts; any-thread
  // reads see a stale snapshot).
  uint64_t routed(int shard) const {
    // lint: allow(atomic-memory-order) -- stale-snapshot accounting read
    return STATESLICE_ATOMIC_ACCOUNTING_LOAD(
        "shard.routed", routed_[static_cast<size_t>(shard)],
        std::memory_order_relaxed);
  }

 private:
  // Pushes `event` onto `shard`'s ring, waiting while it is full.
  void PushToShard(int shard, Event event) STATESLICE_REQUIRES(feeder_role_);

  const ShardRouterOptions options_;
  std::vector<std::unique_ptr<ShardCell>> cells_;
  std::vector<std::atomic<uint64_t>> routed_;
  ThreadRole feeder_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_SHARD_ROUTER_H_
