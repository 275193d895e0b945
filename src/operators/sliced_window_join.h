// Sliced window join — the paper's core operator (Definitions 1-3).
//
// A sliced join holds only the portion of a sliding window whose event
// timestamp distance falls in [W_start, W_end). Slices are pipelined into a
// chain (Definition 2): entries purged from slice i's state, plus the
// probing "male" copies, feed slice i+1 through a single FIFO queue, which
// yields the complete join answer with a *linear* number of operators and
// pairwise disjoint states (Lemma 1 / Theorems 1-2).
//
// Binary mode implements the male/female reference-copy discipline of
// Fig. 9:
//  - a male event cross-purges the opposite state (expired entries move
//    down the chain), probes it, emits results, then propagates itself;
//  - a female event inserts into its own side's state and moves down the
//    chain only when purged.
// A raw event (role kBoth) entering the first slice is processed as both
// copies, per the paper's footnote "the copies can be made by the first
// binary sliced join".
//
// One-way mode (A[Ws,We] s|>< B) stores only stream A; A tuples act as
// females and B tuples as males, which is exactly the execution of Fig. 6 /
// Table 2.
//
// N-way trees (composite-left mode): a chain at level k >= 1 of a left-deep
// join tree joins the previous level's composite results (its "left"
// input, stored in a CompositeJoinState) against the tuples of stream k+1
// (its "right" input). Composites follow exactly the binary male/female
// discipline — the binary chain is the degenerate case where the left
// entries have a single constituent. A probe matches the composite's
// `anchor` constituent against the right tuple, and each match emits the
// composite extended by the right tuple.
//
// After each male's probe the operator emits a punctuation carrying the
// male's timestamp on the result port: this is the paper's observation
// (Section 4.3) that male tuples act as punctuations [26] that let the
// downstream union merge slice outputs in timestamp order.
#ifndef STATESLICE_OPERATORS_SLICED_WINDOW_JOIN_H_
#define STATESLICE_OPERATORS_SLICED_WINDOW_JOIN_H_

#include <string>
#include <vector>

#include "src/operators/join_condition.h"
#include "src/operators/join_state.h"
#include "src/runtime/operator.h"

namespace stateslice {

// Half-open window slice [start, end) in ticks (kTime) or tuple ranks
// (kCount). A slice with start == 0 and end == W is equivalent to a regular
// window W (Definition 1: A[W] |>< B = A[0,W] s|>< B).
struct SliceRange {
  WindowKind kind = WindowKind::kTime;
  int64_t start = 0;
  int64_t end = 0;

  static SliceRange Time(Duration start, Duration end) {
    return SliceRange{WindowKind::kTime, start, end};
  }
  static SliceRange TimeSeconds(double start_s, double end_s) {
    return SliceRange{WindowKind::kTime, SecondsToTicks(start_s),
                      SecondsToTicks(end_s)};
  }
  static SliceRange Count(int64_t start, int64_t end) {
    return SliceRange{WindowKind::kCount, start, end};
  }

  int64_t extent() const { return end - start; }
  std::string DebugString() const;

  friend bool operator==(const SliceRange&, const SliceRange&) = default;
};

// Execution flavor of a sliced join.
enum class SlicedJoinMode {
  kBinary,   // Definition 3: both inputs sliced
  kOneWayA,  // Definition 1: A sliced, B probes-and-propagates
};

// Construction options for SlicedWindowJoin (namespace scope so `= {}`
// default arguments work within the class definition).
struct SlicedJoinOptions {
  SlicedJoinMode mode = SlicedJoinMode::kBinary;
  JoinCondition condition = JoinCondition::EquiKey();
  // Emit a punctuation after each male's probe (Section 4.3). On for
  // chain slices feeding unions; off for standalone uses.
  bool punctuate_results = true;
  // Verify W_start <= T_male - T_female < W_end during probes. A slice
  // inside a chain never needs this (Lemma 1 guarantees it); standalone
  // slices (e.g. Definition 1 unit tests) turn it on. Binary mode only.
  bool strict_bounds = false;
  // N-way tree level >= 1: the left input carries CompositeTuple events
  // (the previous level's results). kTime windows only.
  bool composite_left = false;
  // Stream ids of this level's two inputs. `left_stream` classifies plain
  // tuples in binary/one-way mode (composite events are always left);
  // `right_stream` is the stream whose tuples this level appends.
  StreamId left_stream = StreamSide::kA;
  StreamId right_stream = StreamSide::kB;
  // composite_left: constituent index of the left entries that the right
  // stream's join condition anchors to (the earlier stream it joins with).
  int anchor = 0;
  // Constituents per left entry (StateSize metric: state memory counts
  // stored tuples, and one composite holds `left_arity` of them).
  int left_arity = 1;
  // Maintain a per-key hash index on the states so kEquiKey probes are
  // O(matches) bucket lookups (see join_state.h). No effect on results or
  // on the paper-unit cost counters; off forces the nested-loop probe
  // (bench_probe_index's baseline arm).
  bool use_key_index = true;
};

// One slice of a (possibly shared) window join.
//
// Ports:
//   input 0            — chain events: raw events (kBoth) at the chain head,
//                        male/female tagged events further down; events must
//                        arrive in global timestamp order
//   output kResultPort — JoinResult events + per-male punctuations
//   output kNextPort   — purged females + propagated males toward the next
//                        slice (unattached at the chain tail, where events
//                        are discarded per Fig. 6 "if exists")
class SlicedWindowJoin : public Operator {
 public:
  static constexpr int kResultPort = 0;
  static constexpr int kNextPort = 1;

  using Mode = SlicedJoinMode;
  using Options = SlicedJoinOptions;

  SlicedWindowJoin(std::string name, SliceRange range, Options options = {});

  void Process(Event event, int input_port) override;
  // Run path: the devirtualized per-event loop (one virtual hop per run).
  void OnRun(EventRun& run, int input_port) override;
  void Finish() override;

  // Stored tuples across both states; composite entries count one per
  // constituent (the paper's state-memory metric counts tuples).
  size_t StateSize() const override {
    return state_a_.size() + state_b_.size() +
           state_c_.size() * static_cast<size_t>(options_.left_arity);
  }

  const SliceRange& range() const { return range_; }
  const JoinState& state_a() const { return state_a_; }
  const JoinState& state_b() const { return state_b_; }
  const CompositeJoinState& composite_state() const { return state_c_; }
  const Options& options() const { return options_; }

  // --- online migration hooks (Section 5.3) ---------------------------
  // Shrinks or widens this slice's range in place. States adapt lazily:
  // a narrowed end purges extra tuples into the next queue on the next
  // male arrival, exactly as the paper describes for online splitting.
  void SetRange(SliceRange range);

  // Mutable state access for merge migration (concatenating states).
  JoinState* mutable_state_a() { return &state_a_; }
  JoinState* mutable_state_b() { return &state_b_; }
  CompositeJoinState* mutable_composite_state() { return &state_c_; }

 private:
  void ProcessMale(const Tuple& t);
  void ProcessFemale(const Tuple& t);
  void ProcessMaleComposite(const CompositeTuple& c);
  void ProcessFemaleComposite(const CompositeTuple& c);
  bool IsLeft(const Tuple& t) const {
    return t.side == options_.left_stream;
  }
  JoinState* StateOf(StreamId side) {
    return side == options_.left_stream ? &state_a_ : &state_b_;
  }

  SliceRange range_;
  Options options_;
  JoinState state_a_;           // left singles (binary / one-way modes)
  JoinState state_b_;           // right singles
  CompositeJoinState state_c_;  // left composites (composite_left mode)
  // Per-arrival scratch buffers, cleared and reused so the hot path never
  // reallocates (purge hands expired entries back through these).
  std::vector<Tuple> purged_scratch_;
  std::vector<Tuple> evicted_scratch_;
  std::vector<CompositeTuple> purged_composites_scratch_;
};

}  // namespace stateslice

#endif  // STATESLICE_OPERATORS_SLICED_WINDOW_JOIN_H_
