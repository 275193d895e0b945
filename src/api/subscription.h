// Push-based result delivery for Engine queries.
//
// Engine::Subscribe(handle, callback) adds the callback to the query's
// subscriber list, which the engine keeps with the query itself. The
// query's one QuerySink (src/runtime/sink.h) runs every callback on the
// list once per delivered JoinResult, in the query's delivery order, so a
// subscription survives migrations and plan rebuilds untouched. In
// ExecutionMode::kSharded the callbacks run on the engine's merge worker
// thread — callbacks must be thread-compatible and cheap, or they become
// backpressure on every shard.
#ifndef STATESLICE_API_SUBSCRIPTION_H_
#define STATESLICE_API_SUBSCRIPTION_H_

#include <cstdint>

#include "src/runtime/sink.h"

namespace stateslice {

// Identifies one subscription for Engine::Unsubscribe. Default = invalid.
struct SubscriptionId {
  uint64_t token = 0;

  bool valid() const { return token != 0; }
  explicit operator bool() const { return valid(); }

  friend bool operator==(const SubscriptionId&,
                         const SubscriptionId&) = default;
};

}  // namespace stateslice

#endif  // STATESLICE_API_SUBSCRIPTION_H_
