// Filter operators: tuple selections, lineage stamping, and result gates.
//
// Four flavors are used by the sharing strategies of the paper:
//  - Selection:      σ on raw stream tuples (σ_A in the running example, and
//                    the inter-slice disjunction filters σ'_i of Fig. 15);
//  - LineageStamper: optional Section-6.1 optimization — evaluates all query
//                    predicates once per tuple at chain entry and stores the
//                    outcome in the tuple's lineage bitmask (cost charged
//                    with the paper's early-stop discipline);
//  - LineageFilter:  drops tuples whose lineage has no bit in a mask, which
//                    realizes σ'_i without re-evaluating predicates;
//  - ResultGate:     σ'_A-style filter on joined results for one query's
//                    output path (Fig. 10).
#ifndef STATESLICE_OPERATORS_SELECTION_H_
#define STATESLICE_OPERATORS_SELECTION_H_

#include <string>
#include <vector>

#include "src/common/predicate.h"
#include "src/runtime/operator.h"

namespace stateslice {

// σ on stream tuples. Tuples of `target_side` are tested against the
// predicate (one kFilter comparison each); tuples of the other stream pass
// through untouched and uncharged, which lets a single-queue plan spine
// carry both streams through A-only filters. Punctuations are forwarded.
//
// Ports: input 0; output 0 (pass). Dropped tuples simply vanish.
class Selection : public Operator {
 public:
  static constexpr int kOutPort = 0;

  Selection(std::string name, Predicate predicate,
            StreamId target_side = StreamSide::kA);

  void Process(Event event, int input_port) override;
  void Finish() override;

  const Predicate& predicate() const { return predicate_; }

 private:
  Predicate predicate_;
  StreamId target_side_;
};

// Evaluates the per-query predicates once per target-side tuple and records
// satisfaction bit q for query q in the tuple's lineage mask. The cost
// charged follows the paper's early-stop rule (Section 6.1): predicates are
// conceptually evaluated in decreasing query order until one is satisfied.
// Tuples satisfying no predicate are dropped. Other-side tuples keep a full
// mask and pass free.
class LineageStamper : public Operator {
 public:
  static constexpr int kOutPort = 0;

  LineageStamper(std::string name, std::vector<Predicate> query_predicates,
                 StreamId target_side = StreamSide::kA);

  void Process(Event event, int input_port) override;
  void Finish() override;

 private:
  std::vector<Predicate> predicates_;  // index = query id (bit position)
  StreamId target_side_;
};

// Passes target-side tuples iff (lineage & mask) != 0, charging one kFilter
// comparison — the σ'_i inter-slice filter realized over stamped lineage.
class LineageFilter : public Operator {
 public:
  static constexpr int kOutPort = 0;

  LineageFilter(std::string name, uint64_t mask,
                StreamId target_side = StreamSide::kA);

  void Process(Event event, int input_port) override;
  void Finish() override;

  uint64_t mask() const { return mask_; }

 private:
  uint64_t mask_;
  StreamId target_side_;
};

// Filters JoinResults on one query's output path: a result passes iff the
// query's predicate holds on the result's constituent at `target_side`
// (index into the FROM order: 0 = A, 1 = B, >= 2 for the appended streams
// of an N-way tree). One kFilter comparison per result, matching the σ'_A
// cost item of Eq. 3. Punctuations are forwarded.
class ResultGate : public Operator {
 public:
  static constexpr int kOutPort = 0;

  ResultGate(std::string name, Predicate predicate,
             StreamId target_side = StreamSide::kA);

  void Process(Event event, int input_port) override;
  void Finish() override;

 private:
  Predicate predicate_;
  StreamId target_side_;
};

}  // namespace stateslice

#endif  // STATESLICE_OPERATORS_SELECTION_H_
