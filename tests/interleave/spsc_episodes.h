// SpscQueue producer/consumer episodes for the interleave explorer.
//
// One episode = one fresh queue, a producer thread (t0) and a consumer
// thread (t1) registered with the installed scheduler, run to completion
// under the strategy's schedule, then checked against the FIFO invariants:
// the consumer must pop exactly 1..items in order (FIFO + element parity +
// completeness; run-segment atomicity follows because any torn segment
// surfaces as an out-of-order or raced element). Model-level violations
// (data races on slots, stale-read deadlocks) are reported by the
// scheduler itself.
#ifndef STATESLICE_TESTS_INTERLEAVE_SPSC_EPISODES_H_
#define STATESLICE_TESTS_INTERLEAVE_SPSC_EPISODES_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/spsc_queue.h"
#include "tests/interleave/interleave_scheduler.h"

namespace stateslice::interleave {

struct SpscEpisodeConfig {
  size_t capacity = 2;  // rounded up to a power of two by the queue
  int items = 3;
  // 0: single-event TryPush; else TryPushRun in chunks of this many events
  // (chunks larger than the remaining space exercise partial segments).
  size_t push_chunk = 0;
  // 0: single-event TryPop; else TryPopRun with this per-call bound.
  size_t pop_chunk = 0;
  // Model the sharded runtime's close protocol (ShardRouter::CloseAll for
  // the ingress rings, merge_close_ for the result rings) with a test-side
  // flag: the producer release-stores it after its last push (possibly
  // racing an in-flight run on the consumer side); the consumer exits only
  // once it reads closed==true and then finds the ring empty.
  bool close_flag = false;
};

// Runs one episode under the installed scheduler; returns "" or a
// description of the violated post-invariant.
inline std::string RunSpscEpisode(InterleaveScheduler* sched,
                                  const SpscEpisodeConfig& cfg) {
  SpscQueue<uint64_t> queue(cfg.capacity);
  std::atomic<uint64_t> closed{0};
  std::vector<uint64_t> popped;
  sched->ExpectThreads(2);

  std::thread producer([&] {
    sched->ThreadBegin(0);
    // By construction this thread is the episode's single producer.
    queue.AssertProducer();
    if (cfg.push_chunk == 0) {
      for (int i = 1; i <= cfg.items; ++i) {
        while (!queue.TryPush(static_cast<uint64_t>(i))) {
          sched->Futile("episode.push_retry");
        }
      }
    } else {
      int next = 1;
      while (next <= cfg.items) {
        std::vector<uint64_t> run;
        while (run.size() < cfg.push_chunk && next <= cfg.items) {
          run.push_back(static_cast<uint64_t>(next++));
        }
        size_t pushed = 0;
        while (pushed < run.size()) {
          const size_t n = queue.TryPushRun(&run, pushed);
          pushed += n;
          if (n == 0) sched->Futile("episode.push_run_retry");
        }
      }
    }
    if (cfg.close_flag) {
      schedtest::ModelStore("episode.close", closed, uint64_t{1},
                            std::memory_order_release);
    }
    sched->ThreadEnd();
  });

  std::thread consumer([&] {
    sched->ThreadBegin(1);
    // By construction this thread is the episode's single consumer.
    queue.AssertConsumer();
    if (cfg.close_flag) {
      // Shard/merge worker exit shape: drain, then exit only when the
      // close flag is up AND the ring shows empty afterwards.
      for (;;) {
        bool progress = false;
        if (cfg.pop_chunk == 0) {
          uint64_t v = 0;
          if (queue.TryPop(&v)) {
            popped.push_back(v);
            progress = true;
          }
        } else {
          std::vector<uint64_t> run;
          if (queue.TryPopRun(&run, cfg.pop_chunk) > 0) {
            popped.insert(popped.end(), run.begin(), run.end());
            progress = true;
          }
        }
        if (progress) continue;
        if (schedtest::ModelLoad("episode.close_check", closed,
                                 std::memory_order_acquire) != 0 &&
            queue.empty()) {
          break;
        }
        sched->Futile("episode.pop_idle");
      }
    } else {
      // The consumer knows the item count a priori; pop until it has all.
      while (popped.size() < static_cast<size_t>(cfg.items)) {
        if (cfg.pop_chunk == 0) {
          uint64_t v = 0;
          if (queue.TryPop(&v)) {
            popped.push_back(v);
            continue;
          }
        } else {
          std::vector<uint64_t> run;
          if (queue.TryPopRun(&run, cfg.pop_chunk) > 0) {
            popped.insert(popped.end(), run.begin(), run.end());
            continue;
          }
        }
        sched->Futile("episode.pop_retry");
      }
    }
    sched->ThreadEnd();
  });

  producer.join();
  consumer.join();

  if (popped.size() != static_cast<size_t>(cfg.items)) {
    return "lost events: popped " + std::to_string(popped.size()) +
           " of " + std::to_string(cfg.items);
  }
  for (size_t i = 0; i < popped.size(); ++i) {
    if (popped[i] != i + 1) {
      return "FIFO violation: popped[" + std::to_string(i) +
             "] = " + std::to_string(popped[i]) + ", expected " +
             std::to_string(i + 1);
    }
  }
  return "";
}

}  // namespace stateslice::interleave

#endif  // STATESLICE_TESTS_INTERLEAVE_SPSC_EPISODES_H_
