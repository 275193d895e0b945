#include "src/runtime/metrics.h"

#include <algorithm>
#include <sstream>

namespace stateslice {

double RunStats::AvgStateTuples(TimePoint from) const {
  double sum = 0.0;
  int n = 0;
  for (const MemorySample& s : memory_samples) {
    if (s.time < from) continue;
    sum += static_cast<double>(s.state_tuples);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

size_t RunStats::MaxStateTuples() const {
  size_t max = 0;
  for (const MemorySample& s : memory_samples) {
    max = std::max(max, s.state_tuples);
  }
  return max;
}

double RunStats::ComparisonsPerVirtualSecond() const {
  const double secs = TicksToSeconds(virtual_end_time);
  return secs > 0 ? static_cast<double>(cost.Total()) / secs : 0.0;
}

std::string RunStats::DebugString() const {
  std::ostringstream out;
  out << ExecutionModeName(mode) << " workers=" << worker_threads
      << " inputs=" << input_tuples
      << " events=" << events_processed
      << " results=" << results_delivered
      << " rejected=" << rejected_tuples
      << " wall_s=" << wall_seconds
      << " avg_state=" << AvgStateTuples()
      << " max_state=" << MaxStateTuples() << " cost{" << cost.DebugString()
      << "}";
  return out.str();
}

}  // namespace stateslice
