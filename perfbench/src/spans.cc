#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, uint64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int span, uint64_t end_ns) {
  if (!open_.empty() && open_.back() == span) open_.pop_back();
  spans_[static_cast<size_t>(span)].end_ns = end_ns;
}

void SpanRecorder::Add(const std::string& name, uint64_t start_ns,
                       uint64_t end_ns) {
  End(Begin(name, start_ns), end_ns);
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << trace_id_;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"trace_id\":" << trace_id_ << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

struct Totals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

std::map<std::string, Totals> Aggregate(
    const std::vector<SpanRecorder::Span>& spans) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    Totals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return totals;
}

}  // namespace

std::string SpanRecorder::LayerTable() const {
  std::string table =
      "span                          count     total_ms      self_ms\n";
  char line[160];
  for (const auto& [name, t] : Aggregate(spans_)) {
    std::snprintf(line, sizeof(line), "%-28s %7llu %12.3f %12.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    table += line;
  }
  return table;
}

}  // namespace perfbench
