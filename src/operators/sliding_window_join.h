// Regular (non-sliced) sliding-window join.
//
// Implements the paper's baseline join semantics (Section 2): the output of
// A[W1] |x| B[W2] is every pair (a, b) satisfying the join condition such
// that Tb - Ta < W1 or Ta - Tb < W2. Execution per arriving tuple is
// cross-purge, probe, insert (Fig. 1). The operator also runs in one-way
// mode (A[W] |>< B), where B tuples probe but are never stored (Section
// 4.1), and supports count-based windows.
#ifndef STATESLICE_OPERATORS_SLIDING_WINDOW_JOIN_H_
#define STATESLICE_OPERATORS_SLIDING_WINDOW_JOIN_H_

#include <string>

#include "src/operators/join_condition.h"
#include "src/operators/join_state.h"
#include "src/runtime/operator.h"

namespace stateslice {

// Binary or one-way sliding-window join.
//
// Ports:
//   input 0            — tuples of both streams in global timestamp order
//                        (the `side` field distinguishes A from B)
//   output kResultPort — JoinResult events (+ punctuations)
//
// When `punctuate_results` is set, the operator emits a punctuation with the
// processed tuple's timestamp after each arrival, so downstream
// order-preserving unions can merge without unbounded buffering. Incoming
// punctuations are forwarded.
// Execution flavor of a regular window join.
enum class SlidingJoinMode {
  kBinary,   // both sides keep state
  kOneWayA,  // only A keeps state; B tuples probe-and-forget
};

// Construction options for SlidingWindowJoin (namespace scope so `= {}`
// default arguments work within the class definition).
struct SlidingJoinOptions {
  SlidingJoinMode mode = SlidingJoinMode::kBinary;
  JoinCondition condition = JoinCondition::EquiKey();
  bool punctuate_results = false;
  // Maintain per-key hash indexes so kEquiKey probes are O(matches); see
  // join_state.h. Off forces the nested-loop probe path.
  bool use_key_index = true;
};

class SlidingWindowJoin : public Operator {
 public:
  static constexpr int kResultPort = 0;

  using Mode = SlidingJoinMode;
  using Options = SlidingJoinOptions;

  SlidingWindowJoin(std::string name, WindowSpec window_a, WindowSpec window_b,
                    Options options = {});

  void Process(Event event, int input_port) override;
  // Run path: the devirtualized per-event loop (one virtual hop per run).
  void OnRun(EventRun& run, int input_port) override;
  void Finish() override;

  size_t StateSize() const override {
    return state_a_.size() + state_b_.size();
  }

  const JoinState& state_a() const { return state_a_; }
  const JoinState& state_b() const { return state_b_; }

  // Checkpoint support (Engine::Restore): mutable state access so a
  // restored plan can be re-seeded with serialized window contents.
  JoinState* mutable_state_a() { return &state_a_; }
  JoinState* mutable_state_b() { return &state_b_; }

 private:
  void ProcessTuple(const Tuple& t);

  Options options_;
  JoinState state_a_;
  JoinState state_b_;
};

}  // namespace stateslice

#endif  // STATESLICE_OPERATORS_SLIDING_WINDOW_JOIN_H_
