// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself around each call it makes
// into a layer of the library (api: Engine methods, query: ParseQuery,
// core: the plan builders) and around its own phases (bench). A span
// carries a name, start, end and the index of its parent span; all spans
// come from the benchmark's single calling thread. They stay in memory
// and are written out once, as Chrome trace-event JSON, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  // A disabled tracer records nothing and costs one branch per span.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span named `name` (a string literal: "<layer>.<call>") under
  // the innermost open span. Returns its index, or -1 when disabled.
  int Begin(const char* name);
  void End(int span);

  // RAII spelling of Begin/End.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), span_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

  // Durations in microseconds of every closed span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  // Self time per layer (the span-name prefix before the first '.'), in
  // seconds: each span's duration minus the part its children cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  size_t size() const { return spans_.size(); }

  // Writes every span as a Chrome trace-event ("ph":"X") JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
