// Schedule-test instrumentation for the lock-free runtime primitives.
//
// The sharded runtime's correctness rests on a small memory-ordering
// protocol (SpscQueue's head/tail publication and the shards' close
// flags).
// Thread Safety Analysis proves *which thread* may touch what; it cannot
// prove the protocol's memory orders correct — a single misplaced
// memory_order_relaxed passes TSA, clang-tidy, and most TSan runs. The
// macros below mark every cross-thread atomic site so a test-owned
// interleaving explorer (tests/interleave/) can systematically drive the
// schedule *and* the weak-memory visibility at each site, in the style of
// relacy/loom.
//
// In normal builds every macro expands to exactly the raw operation (or to
// nothing, for the pure scheduling hooks): zero overhead, byte-identical
// codegen. Under the STATESLICE_SCHED_TEST CMake option the macros route
// through an installable SchedHooks interface; with no hooks installed
// they fall back to the raw operation, so ordinary tests still pass in a
// sched-test build.
//
// Macro vocabulary (tag is a stable site label used in failure traces):
//   STATESLICE_SYNC_POINT(tag)            scheduling yield (spin loops)
//   STATESLICE_SYNC_FUTILE(tag)           yield, blocked until some modeled
//                                         store lands (failed Try*, idle)
//   STATESLICE_ATOMIC_LOAD(tag,a,o)       modeled cross-thread atomic load;
//                                         the explorer may return any value
//                                         the C++ memory model allows
//   STATESLICE_ATOMIC_STORE(tag,a,v,o)    modeled cross-thread atomic store
//   STATESLICE_ATOMIC_LOAD_OWNER(tag,a,o) single-writer self-read: the
//                                         calling thread is the only writer
//                                         of `a`, so the load can only
//                                         observe its own latest store; not
//                                         a scheduling or branching point
//   STATESLICE_ATOMIC_ACCOUNTING_*        snapshot-only counters (high-water
//                                         marks, totals): single-writer or
//                                         commutative, read cross-thread as
//                                         stale snapshots by design;
//                                         excluded from the model
//   STATESLICE_SYNC_PLAIN_WRITE/READ(tag,addr)
//                                         non-atomic access to shared data
//                                         (ring slots): race-checked against
//                                         the explorer's happens-before
//                                         clocks, not a scheduling point
//   STATESLICE_SYNC_THREAD_SPAWN/BEGIN/END, STATESLICE_SYNC_PARK/UNPARK
//                                         thread lifecycle: creation is
//                                         announced before std::thread spawn
//                                         so the explorer can wait for the
//                                         worker to register; PARK brackets
//                                         real blocking (thread::join) so a
//                                         parked thread does not stall the
//                                         cooperative schedule
#ifndef STATESLICE_RUNTIME_SYNC_POINT_H_
#define STATESLICE_RUNTIME_SYNC_POINT_H_

#include <atomic>
#include <cstdint>

#if defined(STATESLICE_SCHED_TEST)

namespace stateslice::schedtest {

// Test-owned instrumentation callbacks. The interleave explorer implements
// this and installs itself for the duration of an exploration; every
// instrumented site in the runtime then yields scheduling control and
// reports its operation. All callbacks are invoked from the instrumented
// thread at the instrumented site.
class SchedHooks {
 public:
  virtual ~SchedHooks() = default;

  // Pure scheduling yield (spin-loop bodies).
  virtual void SyncPoint(const char* tag) = 0;
  // Yield after a fruitless attempt (ring full/empty, idle worker): the
  // thread makes no progress until another thread performs a modeled store.
  virtual void Futile(const char* tag) = 0;

  // Modeled atomic operations. `var` identifies the atomic by address;
  // `initial` seeds the model's store history on first contact (the value
  // the atomic held at construction). Loads return the value chosen by the
  // explorer's memory model — any store the given memory order permits the
  // calling thread to observe.
  virtual uint64_t AtomicLoad(const char* tag, const void* var,
                              std::memory_order order, uint64_t initial) = 0;
  virtual void AtomicStore(const char* tag, void* var,
                           std::memory_order order, uint64_t value,
                           uint64_t initial) = 0;
  // Modeled compare-and-swap. A CAS is an atomic read-modify-write: it
  // always observes the *newest* store in the variable's modification
  // order (never a stale value), so unlike AtomicLoad the explorer has no
  // value choice to branch on — only the schedule around the operation
  // varies. Returns the observed value; the CAS succeeded iff it equals
  // `expected`. On success the hook records a store of `desired` whose
  // release-ness follows `success_order`; the acquire-ness of the read
  // follows `success_order` on success and `failure_order` on failure.
  virtual uint64_t AtomicCas(const char* tag, void* var, uint64_t expected,
                             uint64_t desired, std::memory_order success_order,
                             std::memory_order failure_order,
                             uint64_t initial) = 0;

  // Non-atomic access to shared payload (ring slots). Race-checked against
  // the happens-before relation implied by the modeled atomics.
  virtual void PlainWrite(const char* tag, const void* addr) = 0;
  virtual void PlainRead(const char* tag, const void* addr) = 0;

  // Thread lifecycle (see macro table above).
  virtual void ThreadSpawn() = 0;
  virtual void ThreadBegin(int stable_id) = 0;
  virtual void ThreadEnd() = 0;
  virtual void Park() = 0;
  virtual void Unpark() = 0;
};

// Installed hooks, or nullptr (passthrough). The explorer installs before
// spawning instrumented threads and uninstalls after joining them, so the
// pointer is stable for the lifetime of any instrumented operation.
SchedHooks* Hooks();
void InstallHooks(SchedHooks* hooks);

template <typename T>
inline T ModelLoad(const char* tag, const std::atomic<T>& a,
                   std::memory_order order) {
  if (SchedHooks* h = Hooks()) {
    return static_cast<T>(h->AtomicLoad(
        tag, &a, order,
        static_cast<uint64_t>(a.load(std::memory_order_relaxed))));
  }
  return a.load(order);
}

template <typename T, typename V>
inline void ModelStore(const char* tag, std::atomic<T>& a, V value,
                       std::memory_order order) {
  if (SchedHooks* h = Hooks()) {
    h->AtomicStore(tag, &a, order, static_cast<uint64_t>(value),
                   static_cast<uint64_t>(a.load(std::memory_order_relaxed)));
  }
  // The real atomic mirrors the model's newest store so passthrough
  // readers (unregistered threads, free-run recovery) stay coherent.
  a.store(static_cast<T>(value), order);
}

template <typename T, typename V>
inline bool ModelCas(const char* tag, std::atomic<T>& a, T& expected,
                     V desired, std::memory_order success_order,
                     std::memory_order failure_order) {
  if (SchedHooks* h = Hooks()) {
    uint64_t observed = h->AtomicCas(
        tag, &a, static_cast<uint64_t>(expected),
        static_cast<uint64_t>(desired), success_order, failure_order,
        static_cast<uint64_t>(a.load(std::memory_order_relaxed)));
    bool success = observed == static_cast<uint64_t>(expected);
    if (success) {
      // Mirror the model's newest store onto the real atomic so
      // passthrough readers (unregistered threads, free-run recovery)
      // stay coherent. The cooperative scheduler serializes modeled
      // operations, so a plain store cannot lose a concurrent update.
      // The CAS success order may carry an acquire half that is invalid
      // on a plain store — keep only the release half for the mirror.
      const std::memory_order mirror_order =
          success_order == std::memory_order_release ||
                  success_order == std::memory_order_acq_rel
              ? std::memory_order_release
              : success_order == std::memory_order_seq_cst
                    ? std::memory_order_seq_cst
                    : std::memory_order_relaxed;
      a.store(static_cast<T>(desired), mirror_order);
    } else {
      expected = static_cast<T>(observed);
    }
    return success;
  }
  return a.compare_exchange_strong(expected, static_cast<T>(desired),
                                   success_order, failure_order);
}

inline void ModelSyncPoint(const char* tag) {
  if (SchedHooks* h = Hooks()) h->SyncPoint(tag);
}
inline void ModelFutile(const char* tag) {
  if (SchedHooks* h = Hooks()) h->Futile(tag);
}
inline void ModelPlainWrite(const char* tag, const void* addr) {
  if (SchedHooks* h = Hooks()) h->PlainWrite(tag, addr);
}
inline void ModelPlainRead(const char* tag, const void* addr) {
  if (SchedHooks* h = Hooks()) h->PlainRead(tag, addr);
}
inline void ModelThreadSpawn() {
  if (SchedHooks* h = Hooks()) h->ThreadSpawn();
}
inline void ModelThreadBegin(int stable_id) {
  if (SchedHooks* h = Hooks()) h->ThreadBegin(stable_id);
}
inline void ModelThreadEnd() {
  if (SchedHooks* h = Hooks()) h->ThreadEnd();
}
inline void ModelPark() {
  if (SchedHooks* h = Hooks()) h->Park();
}
inline void ModelUnpark() {
  if (SchedHooks* h = Hooks()) h->Unpark();
}

}  // namespace stateslice::schedtest

#define STATESLICE_SYNC_POINT(tag) ::stateslice::schedtest::ModelSyncPoint(tag)
#define STATESLICE_SYNC_FUTILE(tag) ::stateslice::schedtest::ModelFutile(tag)
#define STATESLICE_ATOMIC_LOAD(tag, a, order) \
  ::stateslice::schedtest::ModelLoad((tag), (a), (order))
#define STATESLICE_ATOMIC_STORE(tag, a, value, order) \
  ::stateslice::schedtest::ModelStore((tag), (a), (value), (order))
#define STATESLICE_ATOMIC_CAS(tag, a, expected, desired, succ, fail) \
  ::stateslice::schedtest::ModelCas((tag), (a), (expected), (desired), (succ), \
                                    (fail))
// Single-writer self-reads and accounting counters are excluded from the
// interleaving model (see macro table): raw operations even under test.
#define STATESLICE_ATOMIC_LOAD_OWNER(tag, a, order) (a).load(order)
#define STATESLICE_ATOMIC_ACCOUNTING_LOAD(tag, a, order) (a).load(order)
#define STATESLICE_ATOMIC_ACCOUNTING_STORE(tag, a, value, order) \
  (a).store((value), (order))
#define STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD(tag, a, delta, order) \
  (a).fetch_add((delta), (order))
#define STATESLICE_SYNC_PLAIN_WRITE(tag, addr) \
  ::stateslice::schedtest::ModelPlainWrite((tag), (addr))
#define STATESLICE_SYNC_PLAIN_READ(tag, addr) \
  ::stateslice::schedtest::ModelPlainRead((tag), (addr))
#define STATESLICE_SYNC_THREAD_SPAWN() \
  ::stateslice::schedtest::ModelThreadSpawn()
#define STATESLICE_SYNC_THREAD_BEGIN(stable_id) \
  ::stateslice::schedtest::ModelThreadBegin(stable_id)
#define STATESLICE_SYNC_THREAD_END() ::stateslice::schedtest::ModelThreadEnd()
#define STATESLICE_SYNC_PARK() ::stateslice::schedtest::ModelPark()
#define STATESLICE_SYNC_UNPARK() ::stateslice::schedtest::ModelUnpark()

#else  // !STATESLICE_SCHED_TEST

// Normal builds: the atomic macros expand to exactly the raw operation and
// the scheduling hooks to nothing — zero overhead, identical codegen.
#define STATESLICE_SYNC_POINT(tag) ((void)0)
#define STATESLICE_SYNC_FUTILE(tag) ((void)0)
#define STATESLICE_ATOMIC_LOAD(tag, a, order) (a).load(order)
#define STATESLICE_ATOMIC_STORE(tag, a, value, order) \
  (a).store((value), (order))
#define STATESLICE_ATOMIC_CAS(tag, a, expected, desired, succ, fail) \
  (a).compare_exchange_strong((expected), (desired), (succ), (fail))
#define STATESLICE_ATOMIC_LOAD_OWNER(tag, a, order) (a).load(order)
#define STATESLICE_ATOMIC_ACCOUNTING_LOAD(tag, a, order) (a).load(order)
#define STATESLICE_ATOMIC_ACCOUNTING_STORE(tag, a, value, order) \
  (a).store((value), (order))
#define STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD(tag, a, delta, order) \
  (a).fetch_add((delta), (order))
#define STATESLICE_SYNC_PLAIN_WRITE(tag, addr) ((void)0)
#define STATESLICE_SYNC_PLAIN_READ(tag, addr) ((void)0)
#define STATESLICE_SYNC_THREAD_SPAWN() ((void)0)
#define STATESLICE_SYNC_THREAD_BEGIN(stable_id) ((void)(stable_id))
#define STATESLICE_SYNC_THREAD_END() ((void)0)
#define STATESLICE_SYNC_PARK() ((void)0)
#define STATESLICE_SYNC_UNPARK() ((void)0)

#endif  // STATESLICE_SCHED_TEST

#endif  // STATESLICE_RUNTIME_SYNC_POINT_H_
