// Push-based result delivery for Engine queries.
//
// Engine::Subscribe(handle, callback) attaches a CallbackSink to the
// query's output path, next to its counting (and optional collecting)
// sinks. The callback fires once per delivered JoinResult, in the query's
// delivery order. In ExecutionMode::kSharded the callback runs on the
// engine's merge worker thread — callbacks must be thread-compatible and
// cheap, or they become backpressure on every shard.
#ifndef STATESLICE_API_SUBSCRIPTION_H_
#define STATESLICE_API_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/api/query_handle.h"
#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/runtime/operator.h"

namespace stateslice {

// Invoked for every JoinResult delivered to a subscribed query.
using ResultCallback = std::function<void(const JoinResult&)>;

// Identifies one subscription for Engine::Unsubscribe. Default = invalid.
struct SubscriptionId {
  uint64_t token = 0;

  bool valid() const { return token != 0; }
  explicit operator bool() const { return valid(); }

  friend bool operator==(const SubscriptionId&,
                         const SubscriptionId&) = default;
};

// Terminal operator that forwards each JoinResult to a user callback.
// Punctuations and bare tuples are absorbed (they carry no result payload).
// The engine wires one per subscription and rewires it across plan
// rebuilds, so the callback outlives any single shared plan.
class CallbackSink : public Operator {
 public:
  CallbackSink(std::string name, ResultCallback callback)
      : Operator(std::move(name)), callback_(std::move(callback)) {
    SLICE_CHECK(callback_ != nullptr);
  }

  void Process(Event event, int input_port) override {
    SLICE_CHECK_EQ(input_port, 0);
    if (IsJoinResult(event)) {
      ++delivered_;
      // Suspend the scheduler's plan-arena scope for the user callback:
      // composite copies the callback makes must go to the global heap so
      // they may outlive the plan epoch.
      ArenaScope suspend(nullptr);
      callback_(std::get<JoinResult>(event));
    }
  }

  // Results delivered through this sink instance (one plan epoch).
  uint64_t delivered() const { return delivered_; }

 private:
  ResultCallback callback_;
  uint64_t delivered_ = 0;
};

}  // namespace stateslice

#endif  // STATESLICE_API_SUBSCRIPTION_H_
