// In-memory span recorder for the traced run. The benchmark wraps each call
// into a layer's public function in a Scope; a span records its name, start,
// end, parent span and the id of the operation it belongs to. Spans are kept
// in memory and written out as Chrome trace-event JSON when the run ends.
//
// Span names are "<layer>.<what>" (tool, query, dp, plan, solvers, ilp,
// engine, hypergraph). Root spans are operations ("op.request", "op.delta",
// "op.oneshot"), set-up ("setup") or probes ("probe"); only operations
// count toward span coverage.
#ifndef DELPROP_PERFBENCH_TRACE_H_
#define DELPROP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint64_t op = 0;      // shared by every span of one root
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer makes the scope a no-op, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  Tracer();

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time (duration minus child spans) per span name, over
  /// spans that are not roots.
  std::map<std::string, double> SelfMsByName() const;
  /// Share of operation ("op.*") wall time covered by their child spans.
  double OperationCoverage() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeJson(const std::string& path) const;

 private:
  size_t Open(std::string_view name);
  void Close(size_t index);

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t next_op_ = 1;
};

/// Runs `fn` inside a span named `name` (no span when `tracer` is null).
template <typename Fn>
auto Traced(Tracer* tracer, std::string_view name, Fn&& fn) {
  Tracer::Scope scope(tracer, name);
  return fn();
}

}  // namespace perfbench

#endif  // DELPROP_PERFBENCH_TRACE_H_
