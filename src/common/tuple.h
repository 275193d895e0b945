// Stream tuples, composite (joined) tuples, punctuations, and the Event
// variant that flows through operator queues.
//
// Tuples are small value types: the runtime copies them freely. A tuple's
// identity for testing/trace purposes is (stream_id, seq). The `lineage`
// bitmask implements the tuple-lineage idea of Section 6.1 of the paper:
// bit q is set iff the tuple satisfies the selection predicate of query q,
// so downstream routing never re-evaluates predicates. Lineage is indexed
// by *query*, never by stream: an N-way workload still consumes one bit per
// registered query, so kMaxQueries bounds queries only — the stream count
// is bounded separately by kMaxStreams.
#ifndef STATESLICE_COMMON_TUPLE_H_
#define STATESLICE_COMMON_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/common/timestamp.h"

namespace stateslice {

class Arena;

// Identifies which input stream a tuple belongs to: the 0-based position of
// the stream in a query's ordered FROM list. A binary join reads streams 0
// and 1; an N-way join tree reads streams 0..N-1. A narrow integer: the id
// lives in every Tuple, and keeping the tuple at 40 bytes matters to the
// queue-bound sharded runtime.
using StreamId = int16_t;

// Maximum number of streams a single query (and hence a shared join tree)
// may read. This bounds the fan-out of the StreamDispatch operator that
// routes raw arrivals to tree levels; ValidateQueries CHECKs it and the
// parser rejects longer FROM lists with ok=false. Independent of
// kMaxQueries (lineage is per-query, not per-stream).
inline constexpr int kMaxStreams = 16;

// Compile-time validation of a stream count: code templated on the number
// of joined streams (fixed-shape test workloads, generated join trees)
// instantiates StreamCountBound<N> so an out-of-range N fails to compile
// instead of CHECK-failing at run time. tests/compile_fail proves the
// bound fires.
template <int N>
struct StreamCountBound {
  static_assert(N >= 2, "a join reads at least two streams");
  static_assert(N <= kMaxStreams,
                "stream count exceeds kMaxStreams (src/common/tuple.h)");
  static constexpr int value = N;
};

// Legacy named ids for the binary case. StreamSide used to be a scoped
// enum when the whole system was binary-join-shaped; it survives as plain
// StreamId constants so `StreamSide::kA` / `StreamSide::kB` keep reading
// naturally at binary call sites. (Unscoped enum: converts to StreamId.)
enum StreamSide : StreamId { kA = 0, kB = 1 };

// Returns the opposite side of a *binary* stream pair (0 <-> 1). Only
// meaningful inside one binary join level, where the two inputs are the
// level's left (composite or stream k) and right (stream k+1) feeds; it
// does not generalize to the N-stream id space, so tree-level code tracks
// explicit left/right stream ids instead of calling this.
constexpr StreamId Opposite(StreamId side) {
  return side == StreamSide::kA ? StreamSide::kB : StreamSide::kA;
}

// Role tag for the male/female reference-copy discipline of the sliced
// binary window join (paper Fig. 9):
//  - kMale tuples perform cross-purge + probe and then propagate down the
//    chain;
//  - kFemale tuples only insert into the slice state, and move down the
//    chain when purged.
// Regular (non-sliced) operators ignore the role and treat every tuple as
// kBoth (a single arrival performing purge+probe+insert, paper Fig. 1).
// Composite tuples flowing through the higher levels of an N-way join tree
// carry the same roles: a chain level treats an incoming composite exactly
// like a raw left-stream tuple (the binary discipline is the degenerate
// case where every constituent list has length one).
enum class TupleRole : uint8_t { kBoth = 0, kMale = 1, kFemale = 2 };

// Maximum number of queries whose predicate satisfaction can be tracked in
// the lineage bitmask of a tuple. One bit per *query* (regardless of how
// many streams each query reads); enforced by ValidateQueries.
inline constexpr int kMaxQueries = 64;

// A single stream tuple.
struct Tuple {
  TimePoint timestamp = 0;   // arrival time at the system (global order)
  int64_t key = 0;           // equi-join attribute (e.g. LocationId)
  double value = 0.0;        // attribute referenced by selections (A.Value)
  uint32_t seq = 0;          // per-stream sequence number (identity/testing)
  StreamId side = StreamSide::kA;  // 0-based FROM-list position
  TupleRole role = TupleRole::kBoth;
  // Query-satisfaction bitmask (Section 6.1 lineage): bit q set iff this
  // tuple passes query q's selection on its stream. Sources set all bits;
  // chain-input filters narrow it. Tuples with lineage == 0 are dropped.
  uint64_t lineage = ~uint64_t{0};

  // Human-readable id like "a3" / "b1" / "c7" used by traces and test
  // failures ('a' + stream id).
  std::string DebugId() const;
  std::string DebugString() const;
};

// TailVec's flat copies and destructor-free clear() lean on this.
static_assert(std::is_trivially_copyable_v<Tuple>,
              "Tuple must stay trivially copyable (flat TailVec storage)");

// Inline small-vector holding the constituents of streams 2..N-1 of a
// composite tuple. Up to kInlineCapacity constituents live inside the
// object (so composites of <= 4 total constituents never allocate); longer
// tails spill to the thread's ambient Arena (see src/common/arena.h) when
// one is installed, or to the global heap otherwise. A spilled TailVec
// remembers its owning arena so the block is returned to the right
// freelist no matter which thread destroys it. The epoch contract — the
// plan's arena outlives everything that can hold arena-backed tails — is
// what makes the raw pointer safe.
//
// Deliberately minimal: just the std::vector surface the tuple code uses.
// Tuple is trivially copyable, so growth is a flat copy and clear() needs
// no element destruction.
class TailVec {
 public:
  static constexpr uint32_t kInlineCapacity = 2;

  TailVec() = default;
  ~TailVec() { ReleaseStorage(); }

  TailVec(const TailVec& other) { CopyFrom(other); }
  TailVec& operator=(const TailVec& other) {
    if (this != &other) {
      ReleaseStorage();
      capacity_ = kInlineCapacity;
      CopyFrom(other);
    }
    return *this;
  }

  TailVec(TailVec&& other) noexcept { MoveFrom(std::move(other)); }
  TailVec& operator=(TailVec&& other) noexcept {
    if (this != &other) {
      ReleaseStorage();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  // True iff the tail spilled out of the inline buffer.
  bool spilled() const { return capacity_ > kInlineCapacity; }

  Tuple* data() { return spilled() ? spill_.heap : inline_; }
  const Tuple* data() const { return spilled() ? spill_.heap : inline_; }

  Tuple& operator[](size_t i) { return data()[i]; }
  const Tuple& operator[](size_t i) const { return data()[i]; }
  Tuple& back() { return data()[size_ - 1]; }
  const Tuple& back() const { return data()[size_ - 1]; }

  Tuple* begin() { return data(); }
  Tuple* end() { return data() + size_; }
  const Tuple* begin() const { return data(); }
  const Tuple* end() const { return data() + size_; }

  void push_back(const Tuple& t) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = t;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(static_cast<uint32_t>(n));
  }

  // Keeps storage (inline or spilled) for reuse.
  void clear() { size_ = 0; }

 private:
  // Moves storage to a buffer of at least min_capacity tuples (rounded up
  // to a power of two >= 4). Defined in tuple.cc: needs Arena.
  void Grow(uint32_t min_capacity);
  // Returns a spilled buffer to its arena or the heap. Defined in tuple.cc.
  void ReleaseStorage();

  void CopyFrom(const TailVec& other) {
    reserve(other.size_);
    for (uint32_t i = 0; i < other.size_; ++i) data()[i] = other.data()[i];
    size_ = other.size_;
  }

  void MoveFrom(TailVec&& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.spilled()) {
      spill_ = other.spill_;
    } else {
      for (uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
    }
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  // Spill bookkeeping, live only while capacity_ > kInlineCapacity.
  struct Spill {
    Tuple* heap;   // the spilled buffer
    Arena* arena;  // owner of `heap` when arena-backed, else global heap
  };

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  // The spill pointers overlay the inline slots: a spilled tail never uses
  // inline storage, capacity_ alone discriminates the two states, and both
  // members are trivially copyable — so the overlap costs nothing and
  // keeps sizeof(Event) (hence every queue/ring slot) 16 bytes smaller.
  union {
    // The initializer keeps the defaulted default constructor alive (and
    // costs what the plain member cost before the overlay: two Tuple
    // constructions).
    Tuple inline_[kInlineCapacity] = {};
    Spill spill_;
  };
};

// A composite tuple: the output of joining 2..N constituent stream tuples,
// ordered by FROM-list position. Per the paper's semantics (Section 2) the
// composite timestamp is the max over constituents and the lineage is the
// AND over constituents (queries that accept every part). The binary join
// result is the degenerate two-constituent case, aliased as JoinResult:
// `a` and `b` are the first two constituents and `tail` holds any further
// streams an N-way tree appended.
struct CompositeTuple {
  Tuple a;
  Tuple b;
  TailVec tail{};  // constituents of streams 2..N-1 (FROM order)
  // Chain-propagation role for composites flowing through a sliced chain
  // at tree levels >= 1 (same discipline as Tuple::role). Final results
  // keep the default.
  TupleRole role = TupleRole::kBoth;

  int size() const { return 2 + static_cast<int>(tail.size()); }
  const Tuple& part(int i) const {
    return i == 0 ? a : (i == 1 ? b : tail[static_cast<size_t>(i) - 2]);
  }
  // The latest constituent arrival: the composite's event time.
  TimePoint timestamp() const;
  // Queries that accept every constituent.
  uint64_t lineage() const;

  // Returns a copy with `t` appended as the next constituent (the next
  // tree level's output), role reset to kBoth. The copy's tail is reserved
  // at its final size (no realloc per level); the rvalue overload reuses
  // this composite's tail storage instead of cloning it (a spilled tail
  // keeps its arena/heap block; an inline tail is a flat copy).
  CompositeTuple WithAppended(const Tuple& t) const&;
  CompositeTuple WithAppended(const Tuple& t) &&;

  // |max(t_0..t_{n-2}) - t_{n-1}|: the timestamp gap introduced by the
  // *last* join level. For a binary result this is |Ta - Tb| — the routing
  // distance of the paper's Fig. 3 / Fig. 13 routers.
  Duration LastGap() const;
  // Max over k >= 1 of |max(t_0..t_{k-1}) - t_k|: the largest gap any
  // level introduced. A composite satisfies a query window w iff
  // MaxGap() < w (the left-deep prefix window semantics; see
  // src/operators/multiway.h).
  Duration MaxGap() const;

  std::string DebugString() const;
};

// The binary spelling: a CompositeTuple with (usually) two constituents.
using JoinResult = CompositeTuple;

// A punctuation [26] asserting that no event with timestamp < `watermark`
// will follow on this queue. The union operator uses punctuations emitted by
// the last slice's male tuples to perform its order-preserving merge
// (paper Section 4.3); in an N-way tree the same punctuations also gate the
// per-level input merges, cascading across levels.
struct Punctuation {
  TimePoint watermark = kMinTime;
};

// Everything that can travel through an operator queue.
using Event = std::variant<Tuple, JoinResult, Punctuation>;

// Returns the timestamp carried by any event kind.
TimePoint EventTime(const Event& event);

// Convenience predicates for tests and operators.
inline bool IsTuple(const Event& e) { return std::holds_alternative<Tuple>(e); }
inline bool IsJoinResult(const Event& e) {
  return std::holds_alternative<JoinResult>(e);
}
inline bool IsPunctuation(const Event& e) {
  return std::holds_alternative<Punctuation>(e);
}

// Equality on tuple identity (stream, seq) — used by equivalence tests.
bool SameTuple(const Tuple& x, const Tuple& y);

// Canonical string key "a3|b7" (binary) or "a3|b7|c2|..." (N-way)
// identifying a join result regardless of the processing order;
// equivalence tests compare result multisets with it.
std::string JoinPairKey(const JoinResult& r);

}  // namespace stateslice

#endif  // STATESLICE_COMMON_TUPLE_H_
