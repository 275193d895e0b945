#include "src/runtime/shard_router.h"

#include <utility>
#include <variant>

#include "src/common/check.h"
#include "src/runtime/backoff.h"

namespace stateslice {

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(options), routed_(static_cast<size_t>(options.num_shards)) {
  SLICE_CHECK(options_.num_shards >= 1);
  cells_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    // lint: allow(hot-path-alloc) -- constructor-time cell setup
    cells_.push_back(std::make_unique<ShardCell>(options_.ring_capacity));
  }
}

void ShardRouter::Route(Event event) {
  if (IsTuple(event)) {
    PushToShard(ShardOf(std::get<Tuple>(event).key), std::move(event));
    return;
  }
  // Non-tuple events (punctuations) carry stream-wide assertions: every
  // shard replica needs them to purge state and advance its merges.
  for (int s = 0; s < options_.num_shards; ++s) {
    PushToShard(s, s + 1 == options_.num_shards ? std::move(event) : event);
  }
}

void ShardRouter::PushToShard(int shard, Event event) {
  // lint: allow(atomic-memory-order) -- single-writer accounting counter
  STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD(
      "shard.routed_add", routed_[static_cast<size_t>(shard)], 1,
      std::memory_order_relaxed);
  SpscQueue<Event>& ring = cell(shard).ring;
  // The router has a single feeder thread (machine-checked via
  // feeder_role_), and that feeder is every shard ring's one producer.
  ring.AssertProducer();
  SpinBackoff backoff;
  while (!ring.TryPush(std::move(event))) {
    // Futile until the shard's worker pops: a full ring is the sharded
    // mode's ingestion backpressure.
    STATESLICE_SYNC_FUTILE("shard.route_backpressure");
    backoff.Pause();
  }
}

void ShardRouter::CloseAll() {
  for (int s = 0; s < options_.num_shards; ++s) {
    STATESLICE_ATOMIC_STORE("shard.close", cell(s).closed, 1,
                            shard_internal::kCloseReleaseOrder);
  }
}

}  // namespace stateslice
