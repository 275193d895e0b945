// Deterministic interleaving explorer for the lock-free runtime, in the
// style of relacy/loom.
//
// Why not just stress threads? The host is x86 (TSO): a relaxed store is
// indistinguishable from a release store at hardware level, so no amount of
// real-execution scheduling can surface a weakened memory order. This
// explorer therefore *virtualizes* the instrumented atomics
// (src/runtime/sync_point.h): every modeled store is appended to a
// per-variable modification-order history stamped with the storing
// thread's vector clock, and every modeled load BRANCHES over the set of
// stores the C++ memory model allows the loading thread to observe —
// per-thread coherence floors plus happens-before forcing, with acquire
// loads of release stores joining clocks. Plain (non-atomic) accesses to
// shared payload are race-checked FastTrack-style against those clocks.
// A weakened release/acquire then shows up on ANY host as a modeled stale
// read or a detected data race.
//
// Scheduling is cooperative and sequentialized: at most one registered
// thread runs between sync points, every preemption decision and every
// load-value decision is delegated to a Strategy, so a schedule is fully
// determined by the strategy's decision sequence:
//  - DfsStrategy + ExploreDfs: exhaustive bounded-depth DFS over the
//    decision tree (2-thread SpscQueue histories).
//  - PctStrategy + ExplorePct: PCT-style randomized priorities with d-1
//    priority-change points for 3+-thread sharded-runtime episodes,
//    replayable from the printed seed.
//
// Threads that fail a Try* op or idle-spin declare themselves *futile*:
// they are not rescheduled until some modeled store lands (finitely many
// stores per episode, so exploration terminates). If every live thread is
// futile the scheduler performs a recovery wake with loads pinned to the
// newest allowed store — real deadlocks (threads that stay futile even on
// the freshest values) are still reported.
#ifndef STATESLICE_TESTS_INTERLEAVE_INTERLEAVE_SCHEDULER_H_
#define STATESLICE_TESTS_INTERLEAVE_INTERLEAVE_SCHEDULER_H_

#if !defined(STATESLICE_SCHED_TEST)
#error "tests/interleave requires the STATESLICE_SCHED_TEST build"
#endif

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/sync_point.h"

namespace stateslice::interleave {

using Tid = int;

// A detected property violation: a data race, a stale-read-induced
// invariant failure, a deadlock, or a step-limit livelock.
struct Violation {
  std::string reason;
  std::string trace;  // tail of the event log at detection time
};

// Decision source for one episode. Both callbacks run under the scheduler
// lock and must be pure (no blocking, no calls back into the scheduler).
class Strategy {
 public:
  virtual ~Strategy() = default;
  // Pick the next thread to run: returns an index into `tids` (sorted,
  // size >= 2; singleton choices are not delegated).
  virtual int ChooseThread(const std::vector<Tid>& tids) = 0;
  // Pick which of `n` >= 2 allowed stores a modeled load observes
  // (0 = oldest allowed, n-1 = newest).
  virtual int ChooseValue(int n) = 0;
};

// The cooperative scheduler + weak-memory model. One instance drives one
// episode: Install() it, run registered threads to completion, Uninstall().
class InterleaveScheduler final : public schedtest::SchedHooks {
 public:
  struct Options {
    // Scheduling decisions per episode before declaring a livelock.
    uint64_t max_steps = 20000;
    // Event-log entries retained for failure traces.
    size_t max_trace = 256;
    // CHESS-style preemption bound: maximum number of times the scheduler
    // may switch away from a thread that could have continued. Forced
    // switches (the running thread went futile, parked, or done) are free.
    // Bounds the DFS tree polynomially while — per the CHESS result —
    // retaining detection power for small-preemption-count bugs (all three
    // seeded bugs here need zero or one). Negative: unbounded.
    int preemption_bound = -1;
  };

  // Two overloads rather than a defaulted Options argument: GCC rejects
  // using a nested aggregate's member initializers in a default argument
  // before the enclosing class is complete.
  explicit InterleaveScheduler(Strategy* strategy);
  InterleaveScheduler(Strategy* strategy, Options options);
  ~InterleaveScheduler() override;

  InterleaveScheduler(const InterleaveScheduler&) = delete;
  InterleaveScheduler& operator=(const InterleaveScheduler&) = delete;

  void Install() { schedtest::InstallHooks(this); }
  void Uninstall() { schedtest::InstallHooks(nullptr); }

  // Announce `n` threads that will register via ThreadBegin. No scheduling
  // decision is taken until all announced threads have arrived.
  void ExpectThreads(int n);

  bool HasViolations() const;
  std::vector<Violation> violations() const;
  // Records an invariant failure detected by the test harness after the
  // episode (wrong pop order, lost events) with the schedule trace.
  void ReportExternalViolation(const std::string& reason);

  // SchedHooks interface (called from instrumented runtime code and from
  // test episode bodies; unregistered threads pass through).
  void SyncPoint(const char* tag) override;
  void Futile(const char* tag) override;
  uint64_t AtomicLoad(const char* tag, const void* var,
                      std::memory_order order, uint64_t initial) override;
  void AtomicStore(const char* tag, void* var, std::memory_order order,
                   uint64_t value, uint64_t initial) override;
  uint64_t AtomicCas(const char* tag, void* var, uint64_t expected,
                     uint64_t desired, std::memory_order success_order,
                     std::memory_order failure_order,
                     uint64_t initial) override;
  void PlainWrite(const char* tag, const void* addr) override;
  void PlainRead(const char* tag, const void* addr) override;
  void ThreadSpawn() override;
  void ThreadBegin(int stable_id) override;
  void ThreadEnd() override;
  void Park() override;
  void Unpark() override;

 private:
  struct VectorClock {
    std::map<Tid, uint64_t> c;
    uint64_t Get(Tid t) const {
      auto it = c.find(t);
      return it == c.end() ? 0 : it->second;
    }
    void Join(const VectorClock& o) {
      for (const auto& [t, v] : o.c) {
        uint64_t& mine = c[t];
        if (v > mine) mine = v;
      }
    }
  };
  struct StoreRecord {
    uint64_t value = 0;
    Tid tid = -1;             // -1: the initial value (visible to all)
    uint64_t tid_clock = 0;   // storer's own clock at the store
    VectorClock clock;        // storer's full clock at the store
    bool release = false;
    const char* tag = "<init>";
  };
  struct AtomicVar {
    std::vector<StoreRecord> history;  // modification order
    std::map<Tid, size_t> floor;       // per-thread coherence floor
  };
  struct PlainVar {
    Tid writer = -1;
    uint64_t writer_clock = 0;
    const char* writer_tag = nullptr;
    // Readers since the last write: thread -> (clock at read, tag).
    std::map<Tid, std::pair<uint64_t, const char*>> readers;
  };
  enum class TState { kAtPoint, kRunning, kFutile, kParked, kDone };
  struct ThreadRec {
    TState state = TState::kRunning;
    VectorClock clock;
    bool force_latest = false;  // recovery wake: read newest allowed only
    bool granted = false;
  };

  // Blocks the calling registered thread until the strategy schedules it.
  void YieldLocked(std::unique_lock<std::mutex>& lk, Tid tid);
  // Takes a scheduling decision iff all threads are quiescent.
  void EvaluateLocked();
  void ReportViolationLocked(const std::string& reason);
  void TraceLocked(Tid tid, std::string line);
  std::string TraceTailLocked() const;
  AtomicVar& GetAtomicLocked(const void* var, uint64_t initial);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Strategy* const strategy_;
  const Options options_;

  int expected_ = 0;  // announced threads not yet registered
  int running_ = 0;   // threads currently between sync points
  std::map<Tid, ThreadRec> threads_;
  std::map<const void*, AtomicVar> atomics_;
  std::map<const void*, PlainVar> plains_;
  std::vector<Violation> violations_;
  std::vector<std::string> trace_;
  uint64_t steps_ = 0;
  Tid last_granted_ = -1;
  int preemptions_used_ = 0;
  // After a violation the model stands down: hooks pass through and every
  // blocked thread is released so the episode can terminate naturally.
  bool free_run_ = false;
};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

// Exhaustive DFS over the decision tree via lexicographic backtracking:
// each episode replays a decision prefix, takes first-alternative (0) for
// everything beyond it, and Advance() increments the last incrementable
// decision.
class DfsStrategy final : public Strategy {
 public:
  int ChooseThread(const std::vector<Tid>& tids) override {
    return Choose(static_cast<int>(tids.size()));
  }
  int ChooseValue(int n) override { return Choose(n); }

  void BeginEpisode() { taken_.clear(); }
  // Moves to the next unexplored schedule; false when the tree is done.
  bool Advance();
  // The decision prefix identifying the current schedule (for replay).
  std::string ScheduleString() const;

 private:
  int Choose(int n);
  std::vector<int> prefix_;
  std::vector<std::pair<int, int>> taken_;  // (choice, alternatives)
};

// PCT-style randomized priorities (Burckhardt et al.): each thread gets a
// deterministic seed-derived priority, the highest-priority runnable
// thread always runs, and `depth - 1` pre-drawn change points demote the
// running thread to the lowest priority so far. Load-value choices are
// uniform from the same seeded PRNG. Fully replayable from the seed.
class PctStrategy final : public Strategy {
 public:
  PctStrategy(uint64_t seed, int depth, uint64_t expected_steps);
  int ChooseThread(const std::vector<Tid>& tids) override;
  int ChooseValue(int n) override;

 private:
  uint64_t Mix(uint64_t x) const;
  uint64_t seed_;
  uint64_t rng_state_;
  uint64_t steps_ = 0;
  int64_t next_demotion_ = -1;  // decreasing: later demotions sink lower
  std::set<uint64_t> change_points_;
  std::map<Tid, int64_t> demoted_;
};

// ---------------------------------------------------------------------
// Exploration drivers
// ---------------------------------------------------------------------

// One episode: runs the scenario under the installed scheduler and returns
// an empty string, or a description of a violated post-invariant.
using EpisodeFn = std::function<std::string(InterleaveScheduler*)>;

struct DfsResult {
  uint64_t episodes = 0;
  bool exhausted = false;  // full tree explored within max_episodes
  std::vector<Violation> violations;
  std::string failing_schedule;  // decision prefix of the failing episode
};

DfsResult ExploreDfs(
    const EpisodeFn& episode, uint64_t max_episodes,
    InterleaveScheduler::Options options = InterleaveScheduler::Options());

struct PctResult {
  uint64_t episodes = 0;
  std::vector<Violation> violations;
  uint64_t failing_seed = 0;  // valid iff violations is non-empty
};

PctResult ExplorePct(
    const EpisodeFn& episode, uint64_t base_seed, uint64_t num_seeds,
    int depth, uint64_t expected_steps = 2000,
    InterleaveScheduler::Options options = InterleaveScheduler::Options());

// Environment overrides shared by the interleave tests:
//   STATESLICE_INTERLEAVE_SEED     replay exactly this PCT seed
//   STATESLICE_INTERLEAVE_NIGHTLY  scale factor for seeds/depth (>=1)
uint64_t EnvSeedOverride(bool* has_override);
uint64_t EnvNightlyScale();

}  // namespace stateslice::interleave

#endif  // STATESLICE_TESTS_INTERLEAVE_INTERLEAVE_SCHEDULER_H_
