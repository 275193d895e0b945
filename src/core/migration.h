// Online migration of a state-slicing chain (Section 5.3).
//
// A running chain needs maintenance when queries enter/leave the system or
// when statistics suggest re-optimizing the merge pattern. The two
// primitives are:
//
//  - SplitSlice: shrink slice J_i's end window to w' and insert a new slice
//    J' = [w', w_i) to its right. No state is moved: J_i's next male purge
//    (with the new, smaller window) migrates tuples into J' through the
//    connecting queue, exactly as the paper describes — the system pause is
//    effectively zero.
//
//  - MergeSlices: concatenate the states of two adjacent slices into one
//    slice [w_{i-1}, w_{i+1}) after the in-between queue has been drained,
//    re-introducing a router for the interior boundary (Fig. 13(b)).
//
// On top of the primitives, AddQuery/RemoveQuery implement query churn for
// chains built without selections (the setting in which Section 5.3
// presents migration). The ChainMigrator operates between executor feed
// steps, when the plan is quiescent.
#ifndef STATESLICE_CORE_MIGRATION_H_
#define STATESLICE_CORE_MIGRATION_H_

#include <vector>

#include "src/core/shared_plan_builder.h"

namespace stateslice {

// Mutates a BuiltPlan produced by BuildStateSlicePlan. All operations
// require: (1) the plan is quiescent (all queues empty — run the scheduler
// to quiescence first), and (2) the chain was built without selections and
// without lineage (CHECK-enforced).
class ChainMigrator {
 public:
  explicit ChainMigrator(BuiltPlan* built);

  // Splits slice `slice_index` at `boundary` (ticks; strictly inside the
  // slice's range). The new right-hand slice serves the same queries as the
  // old slice's downstream consumers. Returns the index of the new slice.
  int SplitSlice(int slice_index, Duration boundary);

  // Merges slice `slice_index` with `slice_index + 1` (both must exist).
  // Result edges of both slices are preserved through a new router with a
  // branch at the interior boundary. Returns the merged slice's index.
  int MergeSlices(int slice_index);

  // Registers a new selection-free query with window `window` while the
  // plan runs: splits a slice if `window` is not an existing slice end,
  // then wires a union over the covering slice prefix to fresh sinks.
  // The query starts receiving results produced from now on. When
  // `results_from` > 0, a ResultTimeGate is inserted in front of the new
  // query's sinks so it delivers exactly the join over tuples with
  // timestamp >= results_from (fresh-start registration semantics; the
  // shared slice states still serve the other queries unchanged). Returns
  // the new query id.
  int AddQuery(WindowSpec window, const std::string& name,
               TimePoint results_from = 0);

  // Puts a fresh-start ResultTimeGate(`cutoff`) behind query `query_id`'s
  // terminal output (its slice, router branch or union) and moves the sink
  // edges already wired to that output behind the gate. Returns the gate;
  // further sinks attach at ResultTimeGate::kOutPort. AddQuery installs
  // the gate before wiring sinks; Engine::Restore re-installs checkpointed
  // gates on a rebuilt plan.
  ResultTimeGate* InstallFreshStartGate(int query_id, TimePoint cutoff,
                                        Operator* terminal,
                                        int terminal_port);

  // Unregisters query `query_id`: detaches its result edges, gate, union
  // and sinks. The slices it used remain (call MergeSlices to compact
  // afterwards, as the paper suggests).
  void RemoveQuery(int query_id);

 private:
  void CheckQuiescent() const;
  // Re-derives every BuiltSlice's boundary indices and the partition's
  // slice ends from the live join ranges, inserting new boundary values
  // into the chain spec as needed. Called after every chain mutation so
  // BuiltPlan::chain and BuiltSlice indices never go stale.
  void SyncChainMetadata();
  // Index of `value` in chain.spec.boundaries, inserting it (and shifting
  // existing query-boundary indices) if absent.
  int EnsureBoundaryIndex(int64_t value);

  BuiltPlan* built_;
};

// Asserts (CHECK-fails on violation) that a state-slice BuiltPlan's chain
// metadata is internally consistent — slices contiguous from 0, boundary
// indices matching join->range(), partition matching the slices, and every
// live query registered at the boundary its window names. Holds right after
// BuildStateSlicePlan and after every ChainMigrator operation.
// `check_indexes` additionally walks every slice state's per-key probe
// index (BasicJoinState::CheckIndexConsistency) — an O(total window state)
// scan, so tests opt in while the Engine's production migration path keeps
// the default O(chain wiring) validation.
void ValidateBuiltChain(const BuiltPlan& built, bool check_indexes = false);

}  // namespace stateslice

#endif  // STATESLICE_CORE_MIGRATION_H_
