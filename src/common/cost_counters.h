// CPU-cost accounting in the paper's own unit: tuple comparisons.
//
// Section 3 of the paper estimates CPU cost as "the count of comparisons per
// time unit", split into probe / purge / route / filter / union categories
// (Eqs. 1-3). Every operator charges its comparisons to a CostCounters
// instance owned by the plan, so benchmark binaries can report the measured
// analogue of the analytic formulas next to wall-clock service rates.
#ifndef STATESLICE_COMMON_COST_COUNTERS_H_
#define STATESLICE_COMMON_COST_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/thread_annotations.h"

namespace stateslice {

// Comparison categories matching the cost items of Eqs. 1-3.
//
// These are *logical* units: a probe is charged one comparison per stored
// tuple regardless of how the runtime executes it, so the figure benches
// reproduce the paper's analytic counts even when the hash-indexed probe
// path (src/operators/join_state.h) touches far fewer entries. The actual
// work of the indexed path is tracked separately in PhysCategory.
enum class CostCategory : int {
  kProbe = 0,    // value comparisons while probing join states
  kPurge = 1,    // timestamp comparisons during cross-purge
  kRoute = 2,    // router timestamp checks per joined tuple
  kFilter = 3,   // tuple-side selection predicate evaluations
  kUnion = 4,    // merge comparisons in the order-preserving union
  kSplit = 5,    // split-operator predicate evaluations
  kGate = 6,     // result-side σ' checks on joined tuples (Fig. 10)
  kCategoryCount = 7,
};

// Physical probe-execution counters: what the runtime *actually did*, as
// opposed to the paper-unit logical comparisons above. Kept on a separate
// axis (never mixed into Total()) so the fig11/17/18/19 cost-model numbers
// stay paper-faithful while bench_probe_index can report the real
// O(matches) behaviour of indexed probes.
enum class PhysCategory : int {
  kKeyLookup = 0,    // hash-bucket lookups performed by indexed probes
  kEntryVisit = 1,   // state entries actually examined while probing
  kIndexUpkeep = 2,  // index appends, stale-id prunes, and rebuild visits
  kPhysCategoryCount = 3,
};

// Additive counters shared by every operator of a plan. In sharded mode a
// replica's operators run on its shard's worker while the engine thread
// may read the counters (src/runtime/sharded_scheduler.h), so the
// per-category counts are relaxed atomics:
// charges are commutative sums with no ordering requirement, and the
// uncontended fetch_add is negligible next to the probe loops that
// produce the counts. Copies (RunStats snapshots) are plain value copies
// and may be torn only in the harmless sense of mixing adjacent charges.
class CostCounters {
 public:
  CostCounters() = default;

  CostCounters(const CostCounters& other) { CopyFrom(other); }
  CostCounters& operator=(const CostCounters& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  // Charges `n` comparisons to `category`. Safe from any thread.
  void Add(CostCategory category, uint64_t n) {
    counts_[static_cast<int>(category)].fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  uint64_t Get(CostCategory category) const {
    return counts_[static_cast<int>(category)].load(
        std::memory_order_relaxed);
  }

  // Charges `n` units of physical probe work. Kept out of Total().
  void AddPhysical(PhysCategory category, uint64_t n) {
    phys_[static_cast<int>(category)].fetch_add(n,
                                                std::memory_order_relaxed);
  }

  uint64_t GetPhysical(PhysCategory category) const {
    return phys_[static_cast<int>(category)].load(std::memory_order_relaxed);
  }

  // Sum across all *logical* categories (the paper's cost-model total;
  // physical counters are excluded by design).
  uint64_t Total() const;

  // Sum across the physical categories.
  uint64_t PhysicalTotal() const;

  // Declares that no operator is concurrently charging this instance (the
  // plan is quiescent, or the counters are caller-local). Justify at each
  // call site; required by Reset.
  void AssertQuiescent() const STATESLICE_ASSERT_CAPABILITY(reset_role_) {}

  // Resets all categories (logical and physical) to zero. Unlike Add, a
  // reset racing concurrent charges loses them — callers must hold the
  // quiescence role (see AssertQuiescent).
  void Reset() STATESLICE_REQUIRES(reset_role_);

  // One-line summary like "probe=123 purge=4 ...".
  std::string DebugString() const;

  // Stable short name of a category (for table headers).
  static const char* Name(CostCategory category);
  static const char* Name(PhysCategory category);

 private:
  void CopyFrom(const CostCounters& other) {
    for (int i = 0; i < static_cast<int>(CostCategory::kCategoryCount); ++i) {
      counts_[i].store(other.counts_[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    for (int i = 0; i < static_cast<int>(PhysCategory::kPhysCategoryCount);
         ++i) {
      phys_[i].store(other.phys_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t> counts_[static_cast<int>(
      CostCategory::kCategoryCount)] = {};
  std::atomic<uint64_t> phys_[static_cast<int>(
      PhysCategory::kPhysCategoryCount)] = {};
  // "No concurrent chargers" role gating Reset (copyable with the value).
  ThreadRole reset_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_COMMON_COST_COUNTERS_H_
