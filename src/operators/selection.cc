#include "src/operators/selection.h"

#include <utility>

#include "src/common/check.h"

namespace stateslice {

// ---------------------------------------------------------------- Selection

Selection::Selection(std::string name, Predicate predicate,
                     StreamId target_side)
    : Operator(std::move(name)),
      predicate_(std::move(predicate)),
      target_side_(target_side) {}

void Selection::Process(Event event, int input_port) {
  SLICE_CHECK_EQ(input_port, 0);
  if (IsPunctuation(event)) {
    Emit(kOutPort, event);
    return;
  }
  SLICE_CHECK(IsTuple(event));
  const Tuple& t = std::get<Tuple>(event);
  if (t.side != target_side_) {
    Emit(kOutPort, event);
    return;
  }
  // Disjunction filters (σ'_i of Fig. 15) charge the short-circuit OR
  // evaluation count; simple predicates charge 1.
  uint64_t evaluations = 0;
  const bool pass = predicate_.EvalCounted(t, &evaluations);
  Charge(CostCategory::kFilter, evaluations);
  if (pass) {
    Emit(kOutPort, event);
  }
}

void Selection::Finish() { Emit(kOutPort, Punctuation{.watermark = kMaxTime}); }

// ----------------------------------------------------------- LineageStamper

LineageStamper::LineageStamper(std::string name,
                               std::vector<Predicate> query_predicates,
                               StreamId target_side)
    : Operator(std::move(name)),
      predicates_(std::move(query_predicates)),
      target_side_(target_side) {
  SLICE_CHECK_LE(predicates_.size(), static_cast<size_t>(kMaxQueries));
}

void LineageStamper::Process(Event event, int input_port) {
  SLICE_CHECK_EQ(input_port, 0);
  if (IsPunctuation(event)) {
    Emit(kOutPort, event);
    return;
  }
  SLICE_CHECK(IsTuple(event));
  Tuple t = std::get<Tuple>(event);
  if (t.side != target_side_) {
    Emit(kOutPort, t);
    return;
  }
  uint64_t mask = 0;
  // Charge with the paper's early-stop discipline: evaluate in decreasing
  // query order, stop charging at the first satisfied predicate (the tuple
  // then "survives until the k-th slice", Section 6.1). We still compute
  // the full mask so downstream routing is exact.
  uint64_t charged = 0;
  bool stopped = false;
  for (int q = static_cast<int>(predicates_.size()) - 1; q >= 0; --q) {
    const bool hit = predicates_[q].Eval(t);
    if (!stopped) {
      ++charged;
      if (hit) stopped = true;
    }
    if (hit) mask |= uint64_t{1} << q;
  }
  Charge(CostCategory::kFilter, charged);
  if (mask == 0) return;  // useful to no query
  t.lineage = mask;
  Emit(kOutPort, t);
}

void LineageStamper::Finish() {
  Emit(kOutPort, Punctuation{.watermark = kMaxTime});
}

// ------------------------------------------------------------ LineageFilter

LineageFilter::LineageFilter(std::string name, uint64_t mask,
                             StreamId target_side)
    : Operator(std::move(name)), mask_(mask), target_side_(target_side) {}

void LineageFilter::Process(Event event, int input_port) {
  SLICE_CHECK_EQ(input_port, 0);
  if (IsPunctuation(event)) {
    Emit(kOutPort, event);
    return;
  }
  SLICE_CHECK(IsTuple(event));
  const Tuple& t = std::get<Tuple>(event);
  if (t.side != target_side_) {
    Emit(kOutPort, event);
    return;
  }
  Charge(CostCategory::kFilter, 1);
  if ((t.lineage & mask_) != 0) {
    Emit(kOutPort, event);
  }
}

void LineageFilter::Finish() {
  Emit(kOutPort, Punctuation{.watermark = kMaxTime});
}

// --------------------------------------------------------------- ResultGate

ResultGate::ResultGate(std::string name, Predicate predicate,
                       StreamId target_side)
    : Operator(std::move(name)),
      predicate_(std::move(predicate)),
      target_side_(target_side) {}

void ResultGate::Process(Event event, int input_port) {
  SLICE_CHECK_EQ(input_port, 0);
  if (IsPunctuation(event)) {
    Emit(kOutPort, event);
    return;
  }
  SLICE_CHECK(IsJoinResult(event));
  const JoinResult& r = std::get<JoinResult>(event);
  SLICE_CHECK_LT(target_side_, r.size());
  const Tuple& component = r.part(target_side_);
  Charge(CostCategory::kGate, 1);
  if (predicate_.Eval(component)) {
    EmitMove(kOutPort, std::move(event));
  }
}

void ResultGate::Finish() {
  Emit(kOutPort, Punctuation{.watermark = kMaxTime});
}

}  // namespace stateslice
