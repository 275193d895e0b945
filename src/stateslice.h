// Umbrella header: the full public API of the stateslice library.
//
// stateslice is a C++20 reproduction of "State-Slice: New Paradigm of
// Multi-query Optimization of Window-based Stream Queries" (VLDB 2006):
// a deterministic stream-operator runtime, the sliced window join chain,
// the Mem-Opt / CPU-Opt chain builders, the baseline sharing strategies,
// the analytic cost model, and online chain migration — behind a
// long-lived streaming Engine facade.
//
// The API has two layers:
//
//  1. Engine facade (src/api) — the session API most callers want: a
//     stateslice::Engine owns the shared plan, scheduler and metrics for
//     its whole lifetime; queries register and unregister online (routed
//     through ChainMigrator when the chain allows, drain-rebuild
//     otherwise), tuples arrive by Push, and results leave through each
//     query's one sink: its count, its collected results, and its
//     Subscribe callbacks.
//
//       Engine engine({.strategy = SharingStrategy::kStateSlice});
//       QueryHandle q = engine.RegisterQuery(
//           "SELECT A.* FROM A A, B B WHERE A.key = B.key WINDOW 10 s");
//       engine.Subscribe(q, [](const JoinResult& r) { /* deliver */ });
//       engine.Push(StreamSide::kA, tuple);   // ... keep pushing
//       engine.Finish();
//       RunStats stats = engine.Snapshot();
//
//  2. Low-level builders (src/core, src/runtime) — the layer the Engine
//     is made of, kept public for experiments that need what the Engine
//     deliberately does not expose (hand-picked partitions, slice-state
//     inspection, BuildOptions::use_key_index): BuildMemOptChain/
//     BuildCpuOptChain + the Build*Plan() strategy builders +
//     AttachQuerySinks, ReplayArrivals to drive a built plan, and
//     ChainMigrator for manual Section 5.3 surgery.
//
//       ChainPlan chain = BuildMemOptChain(queries);
//       BuiltPlan built = BuildStateSlicePlan(queries, chain, {...});
//       AttachQuerySinks(&built);
//       ReplayArrivals(built.plan.get(), built.entry, MergedArrivals(w));
//       uint64_t comparisons = built.plan->cost_counters().Total();
#ifndef STATESLICE_STATESLICE_H_
#define STATESLICE_STATESLICE_H_

// stateslice requires C++20: e.g. operators/window_spec.h uses a defaulted
// `friend operator==`, which C++17 compilers reject with a cascade of
// template errors far from the real cause. Fail fast with a clear message
// instead. MSVC freezes __cplusplus at 199711L unless /Zc:__cplusplus is
// passed, so accept its _MSVC_LANG mirror too.
#if defined(_MSVC_LANG)
#if _MSVC_LANG < 202002L
#error "stateslice requires C++20 or newer; compile with /std:c++20"
#endif
#elif !defined(__cplusplus) || __cplusplus < 202002L
#error "stateslice requires C++20 or newer; compile with -std=c++20"
#endif

#include "src/api/engine.h"
#include "src/api/query_handle.h"
#include "src/api/subscription.h"
#include "src/common/check.h"
#include "src/common/cost_counters.h"
#include "src/common/predicate.h"
#include "src/common/random.h"
#include "src/common/timestamp.h"
#include "src/common/tuple.h"
#include "src/core/chain_builder.h"
#include "src/core/chain_spec.h"
#include "src/core/cost_model.h"
#include "src/core/cpu_opt.h"
#include "src/core/migration.h"
#include "src/core/selection_pushdown.h"
#include "src/core/shared_plan_builder.h"
#include "src/operators/join_condition.h"
#include "src/operators/join_state.h"
#include "src/operators/multiway.h"
#include "src/operators/router.h"
#include "src/operators/selection.h"
#include "src/operators/sliced_window_join.h"
#include "src/operators/sliding_window_join.h"
#include "src/operators/split.h"
#include "src/operators/union_merge.h"
#include "src/operators/window_spec.h"
#include "src/query/parser.h"
#include "src/query/query.h"
#include "src/query/workload.h"
#include "src/runtime/execution_mode.h"
#include "src/runtime/metrics.h"
#include "src/runtime/operator.h"
#include "src/runtime/plan.h"
#include "src/runtime/queue.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/spsc_queue.h"
#include "src/runtime/sink.h"

#endif  // STATESLICE_STATESLICE_H_
