// Portable Clang Thread Safety Analysis annotations.
//
// The sharded runtime shares mutable state across threads without locks:
// SPSC rings partition access by *role* (one producer thread, one consumer
// thread), an execution token makes one worker the sole executor of a
// shard replica, and the Engine serializes plan surgery against ingestion
// by *quiescing* the workers first. Those contracts used to live in comments and runtime
// CHECKs only; the macros below make them machine-checked when compiling
// with Clang's -Wthread-safety (enabled automatically for Clang builds, and
// fatal under STATESLICE_WERROR). Off Clang every macro expands to nothing,
// so GCC/MSVC builds are unaffected.
//
// Vocabulary (mirrors the LLVM thread-safety annotation reference):
//  - STATESLICE_CAPABILITY marks a class as a capability (a lock, or here
//    more often a *thread role* — see ThreadRole below).
//  - STATESLICE_GUARDED_BY(cap) on a member means reads/writes require
//    holding `cap`.
//  - STATESLICE_REQUIRES(cap) on a function means callers must hold `cap`.
//  - STATESLICE_ASSERT_CAPABILITY(cap) on a function tells the analysis the
//    capability is held from the call onward (the role-assertion pattern:
//    the runtime fact "this thread plays that role" cannot be proven by the
//    compiler, so code asserts it at the point the role is established, and
//    the analysis checks everything downstream of the assertion).
//  - STATESLICE_ACQUIRE/RELEASE/EXCLUDES follow the usual lock meanings for
//    any future real mutexes.
//
// Every assertion call site must carry a comment justifying *why* the role
// holds there (see README "Static analysis & correctness tooling").
#ifndef STATESLICE_COMMON_THREAD_ANNOTATIONS_H_
#define STATESLICE_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define STATESLICE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define STATESLICE_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

// Class-level: the annotated type is a capability (lock or thread role).
#define STATESLICE_CAPABILITY(x) \
  STATESLICE_THREAD_ANNOTATION_(capability(x))
#define STATESLICE_SCOPED_CAPABILITY \
  STATESLICE_THREAD_ANNOTATION_(scoped_lockable)

// Data members: access requires the named capability (by value / by
// pointee).
#define STATESLICE_GUARDED_BY(x) STATESLICE_THREAD_ANNOTATION_(guarded_by(x))
#define STATESLICE_PT_GUARDED_BY(x) \
  STATESLICE_THREAD_ANNOTATION_(pt_guarded_by(x))

// Functions: caller-side contracts.
#define STATESLICE_REQUIRES(...) \
  STATESLICE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define STATESLICE_REQUIRES_SHARED(...) \
  STATESLICE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define STATESLICE_ACQUIRE(...) \
  STATESLICE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define STATESLICE_RELEASE(...) \
  STATESLICE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define STATESLICE_EXCLUDES(...) \
  STATESLICE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define STATESLICE_RETURN_CAPABILITY(x) \
  STATESLICE_THREAD_ANNOTATION_(lock_returned(x))

// The role-assertion primitive: after a call to a function annotated with
// this, the analysis treats the capability as held for the rest of the
// caller's scope. No release is expected (asserted capabilities are exempt
// from end-of-scope checking).
#define STATESLICE_ASSERT_CAPABILITY(x) \
  STATESLICE_THREAD_ANNOTATION_(assert_capability(x))

// Escape hatch; every use must carry a justification comment and shows up
// in review. Prefer annotating correctly over suppressing.
#define STATESLICE_NO_THREAD_SAFETY_ANALYSIS \
  STATESLICE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace stateslice {

// A *thread role*: a capability that is conferred by the threading design
// rather than by a lock — "the producer side of this ring", "the worker
// holding this shard's token", "the (single) API caller thread, with the
// workers quiescent". Code that establishes a role at runtime calls Assert() once,
// with a comment saying why the role holds; the analysis then checks that
// all role-guarded state is only touched downstream of such an assertion.
//
// The class is an empty tag — Assert() compiles to nothing — so roles can
// live inside hot lock-free structures (SpscQueue) at zero cost. Roles are
// copyable so value types carrying one (CostCounters) stay copyable; a
// copied role is a fresh tag for the new object, not a shared capability.
class STATESLICE_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) {}
  ThreadRole& operator=(const ThreadRole&) { return *this; }

  // Declares that the calling thread holds this role from here to the end
  // of the enclosing scope. Call sites must justify the claim in a comment.
  void Assert() const STATESLICE_ASSERT_CAPABILITY(this) {}
};

}  // namespace stateslice

#endif  // STATESLICE_COMMON_THREAD_ANNOTATIONS_H_
