#include "src/runtime/sink.h"

#include <algorithm>
#include <utility>

#include "src/common/arena.h"

namespace stateslice {

void QuerySink::Process(Event event, int /*input_port*/) {
  JoinResult* r = std::get_if<JoinResult>(&event);
  if (r == nullptr) return;  // punctuations carry no result
  if (cutoff_ > 0) {
    // Fresh start requires *every* constituent at or after the cutoff.
    TimePoint older = r->a.timestamp;
    for (int i = 1; i < r->size(); ++i) {
      older = std::min(older, r->part(i).timestamp);
    }
    Charge(CostCategory::kGate, 1);
    if (older < cutoff_) return;
  }
  ++result_count_;
  if (r->timestamp() < last_time_) ordered_ = false;
  last_time_ = r->timestamp();
  if (subscribers_ != nullptr && !subscribers_->empty()) {
    // Suspend the scheduler's plan-arena scope for the user callbacks:
    // composite copies they make must go to the global heap so they may
    // outlive the plan epoch.
    ArenaScope suspend(nullptr);
    for (const Subscriber& s : *subscribers_) s.callback(*r);
  }
  if (collect_) {
    // lint: allow(hot-path-alloc) -- collect_results is a test-only mode
    results_.push_back(std::move(*r));
  }
}

void QuerySink::OnRun(EventRun& run, int input_port) {
  for (Event& event : run) QuerySink::Process(std::move(event), input_port);
}

std::map<std::string, int> QuerySink::ResultMultiset() const {
  std::map<std::string, int> multiset;
  for (const JoinResult& r : results_) {
    ++multiset[JoinPairKey(r)];
  }
  return multiset;
}

std::vector<std::pair<TimePoint, std::string>> QuerySink::TimeSortedResults()
    const {
  std::vector<std::pair<TimePoint, std::string>> sorted;
  sorted.reserve(results_.size());
  for (const JoinResult& r : results_) {
    sorted.emplace_back(r.timestamp(), JoinPairKey(r));
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace stateslice
