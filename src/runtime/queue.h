// FIFO event queues connecting operators in a shared query plan, and the
// EventRun buffer the run-at-a-time schedulers drain them into.
//
// The paper distinguishes state memory from queue memory (Section 2); queues
// here track their high-water mark so experiments can report both.
//
// Storage is a power-of-two ring over a flat vector (not a deque): the
// zero-allocation steady-state contract (ISSUE 7) forbids the per-block
// churn a deque performs every few events. The ring grows geometrically and
// then never shrinks, so after warm-up Push/Pop/DrainRun touch no allocator.
//
// Thread contract: an EventQueue is unsynchronized and must only ever be
// touched by one thread at a time. The deterministic round-robin scheduler
// (as in CAPE) trivially satisfies this; the sharded scheduler satisfies it
// by running each plan replica on the one worker holding its execution
// token and relaying between threads only through SpscQueue rings
// (src/runtime/spsc_queue.h). Pop()/Front() CHECK-fail on an empty queue.
#ifndef STATESLICE_RUNTIME_QUEUE_H_
#define STATESLICE_RUNTIME_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/tuple.h"

namespace stateslice {

// A bounded run of events drained from one queue in FIFO order — the unit
// of work a scheduler hands an operator per visit (Operator::OnRun).
// Reused across visits: clear() keeps the grown capacity, so a warm run
// buffer never reallocates.
class EventRun {
 public:
  void push_back(Event&& event) { events_.push_back(std::move(event)); }

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  Event& operator[](size_t i) { return events_[i]; }
  const Event& operator[](size_t i) const { return events_[i]; }

  std::vector<Event>::iterator begin() { return events_.begin(); }
  std::vector<Event>::iterator end() { return events_.end(); }
  std::vector<Event>::const_iterator begin() const { return events_.begin(); }
  std::vector<Event>::const_iterator end() const { return events_.end(); }

  void reserve(size_t n) { events_.reserve(n); }
  size_t capacity() const { return events_.capacity(); }
  // Keeps capacity for the next run.
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

// A named FIFO of events between two operators (or a source/sink edge).
class EventQueue {
 public:
  explicit EventQueue(std::string name) : name_(std::move(name)) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Appends an event.
  void Push(Event event);

  // Appends every event of `run` in order and clears the run (capacity
  // retained). Equivalent to pushing each event individually.
  void PushRun(EventRun* run);

  // Removes and returns the front event. Queue must be non-empty.
  Event Pop();

  // Front event without removing it. Queue must be non-empty.
  const Event& Front() const;

  // Moves up to `max_events` front events into *run (appended in FIFO
  // order) and returns how many moved. Zero when empty. Equivalent to that
  // many Pop()s, amortized over one call.
  size_t DrainRun(EventRun* run, size_t max_events);

  bool empty() const { return head_ == tail_; }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }

  // Largest size ever observed (queue-memory reporting).
  size_t high_water_mark() const { return high_water_mark_; }

  // Total number of events ever pushed.
  uint64_t total_pushed() const { return total_pushed_; }

  const std::string& name() const { return name_; }

 private:
  // Doubles the ring (first growth allocates kInitialCapacity slots).
  void Grow();

  static constexpr size_t kInitialCapacity = 8;

  std::string name_;
  std::vector<Event> slots_;  // power-of-two ring; empty until first push
  uint64_t mask_ = 0;         // slots_.size() - 1
  uint64_t head_ = 0;         // monotone pop index
  uint64_t tail_ = 0;         // monotone push index
  size_t high_water_mark_ = 0;
  uint64_t total_pushed_ = 0;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_QUEUE_H_
