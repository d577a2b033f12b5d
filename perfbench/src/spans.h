#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory spans recorded by the benchmark around its calls into each
/// layer. Spans nest through an open-span stack: a span's parent is the
/// innermost span open when it began. All spans of one workload share
/// `trace_id`. Nothing is written until the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
  };

  explicit SpanRecorder(uint32_t trace_id) : trace_id_(trace_id) {}

  /// Opens a span now; returns its index.
  int Begin(const std::string& name) { return Begin(name, NowNanos()); }
  int Begin(const std::string& name, uint64_t start_ns);
  /// Closes the innermost open span (which must be `span`).
  void End(int span) { End(span, NowNanos()); }
  void End(int span, uint64_t end_ns);
  /// Records an already-finished span under the innermost open span.
  void Add(const std::string& name, uint64_t start_ns, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome-trace JSON ("X" events; the parent index and trace id in args).
  bool WriteChromeTrace(const std::string& path) const;

  /// Per span name: count, total and self milliseconds (self = duration
  /// minus the part covered by child spans), one line each.
  std::string LayerTable() const;

 private:
  uint32_t trace_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
