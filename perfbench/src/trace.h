// Spans recorded by the benchmark around its calls into each library layer: name,
// start, end, parent span, and the request the span belongs to. Kept in memory and
// written as a Chrome trace-event file when the traced run ends.
//
// Not thread-safe: every span is recorded from the benchmark's driving thread
// (serving spans are added after a phase, from the per-request timestamps).
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int64_t request = -1;
  };

  // Opens a span whose parent is the innermost span still open.
  int Begin(const std::string& name, int64_t request = -1);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);
  // Records a finished span under an explicit parent (-1 for a root).
  int Add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent, int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }
  double DurationMs(int id) const;
  // Span duration minus the time its direct children cover.
  double SelfMs(int id) const;

  // Every child lies inside its parent, children of one parent do not overlap, and
  // so every self time is >= 0. Empty when they do, else the first violation.
  std::string CheckNesting() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::vector<int>> children_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
