// Per-plan epoch arena backing composite-tuple tails.
//
// The run-at-a-time hot path must not touch the global heap per event
// (ISSUE 7 / ROADMAP "vectorized batch execution with arena tuple storage").
// Composite tails that spill past the inline capacity of
// CompositeTuple::tail draw storage from the plan's Arena instead: a chunked
// bump allocator with per-power-of-two size-class freelists, so a tail block
// freed when a composite dies is recycled by the next spill of the same
// class. Memory is only returned to the OS when the Arena itself is
// destroyed — the "epoch" is the lifetime of the owning QueryPlan, which the
// plan guarantees outlives every operator, queue, and scheduler that might
// hold arena-backed tuples (the Arena is the plan's first-declared member).
//
// Allocation is mutex-protected: spills are rare (N-way composites beyond 4
// constituents) and a sharded replica's arena is used by whichever worker
// holds its execution token (src/runtime/sharded_scheduler.h), so a lock
// beats per-thread arenas that would strand freelist blocks on the wrong
// thread. The steady-state path (<= 4 constituents) never calls
// into the arena at all.
//
// Which arena a copy draws from is ambient: schedulers install the plan's
// arena for the duration of a run via ArenaScope, and copy construction of a
// spilled tail asks CurrentArena(). Code that hands tuples to user callbacks
// (QuerySink) installs a null scope so user-side copies fall back to the
// global heap and may safely outlive the plan.
#ifndef STATESLICE_COMMON_ARENA_H_
#define STATESLICE_COMMON_ARENA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace stateslice {

// A chunked allocator with size-class freelists and epoch (whole-arena)
// reclamation. Thread-safe; see file comment for the locking rationale.
class Arena {
 public:
  // Smallest serviced block. Must hold a freelist next-pointer and keep
  // 8-byte alignment for Tuple arrays.
  static constexpr size_t kMinBlockBytes = 32;
  // Largest size class: 32 << 15 = 1 MiB per block, far beyond any
  // kMaxStreams-bounded tail. Larger requests CHECK-fail.
  static constexpr int kNumClasses = 16;

  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns a block of at least `bytes` bytes, 8-byte aligned. The block
  // stays owned by the arena; return it with Deallocate to recycle it.
  void* Allocate(size_t bytes);

  // Returns a block obtained from Allocate(bytes) to its size-class
  // freelist. `bytes` must be the size originally requested (callers — the
  // CompositeTuple tail vector — track their capacity anyway).
  void Deallocate(void* block, size_t bytes);

  // Observability for tests and memory accounting.
  size_t bytes_reserved() const;    // total chunk bytes obtained from the OS
  size_t blocks_outstanding() const;  // Allocate calls minus Deallocate calls
  uint64_t total_allocations() const;  // lifetime Allocate count

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  // Maps a request size to its size class (blocks of kMinBlockBytes << c).
  static int ClassFor(size_t bytes);

  // Bump-allocates `bytes` from the open chunk, growing if needed.
  void* AllocateFromChunk(size_t bytes);

  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;
  // Intrusive freelists: a free block's first 8 bytes store the next
  // pointer. Index = size class.
  std::array<void*, kNumClasses> free_lists_{};
  size_t bytes_reserved_ = 0;
  size_t blocks_outstanding_ = 0;
  uint64_t total_allocations_ = 0;
};

// Returns the thread's ambient arena, or nullptr when copies must use the
// global heap. Installed by ArenaScope; null outside any scope.
Arena* CurrentArena();

// RAII install of an ambient arena for the current thread. Scopes nest; the
// destructor restores the previous arena. Passing nullptr *suspends* any
// outer scope — used around user callbacks so their copies never land in a
// plan-lifetime arena.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
};

}  // namespace stateslice

#endif  // STATESLICE_COMMON_ARENA_H_
