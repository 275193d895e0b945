#include "perfbench/trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close innermost-first (Scope is RAII), so `span` is on top.
  open_.pop_back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns != 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    const char* dot = std::strchr(s.name, '.');
    const std::string layer =
        dot == nullptr ? std::string(s.name) : std::string(s.name, dot);
    out[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 first ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
    first = false;
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
