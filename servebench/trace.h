// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each call it makes into a layer's public functions in
// a span (name, start, end, parent span, request id). Spans live in one
// vector for the whole run, recorded from the load-generating thread only,
// and are written out as a chrome://tracing file when the run ends. Self
// time — a span's duration minus the part its children cover — is derived
// from the recorded tree. With tracing off every call is a single branch.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;      // index into the span vector, -1 = root
  int64_t request_id = -1;  // benchmark-assigned; -1 = not a request
};

struct SpanStats {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  // Open a span under the innermost open one; returns its index (-1 when
  // tracing is off).
  int64_t open(const char* name, int64_t request_id = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_ns = to_ns(Clock::now());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request_id = request_id >= 0 || s.parent < 0
                       ? request_id
                       : spans_[static_cast<size_t>(s.parent)].request_id;
    spans_.push_back(s);
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int64_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = to_ns(Clock::now());
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  // Record a span whose interval is known only after the fact (an
  // open-loop request's due -> answered interval); returns its index.
  int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, int64_t request_id) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_ns = to_ns(start);
    s.end_ns = std::max(to_ns(end), s.start_ns);
    s.parent = parent;
    s.request_id = request_id;
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: count, total and self time (duration minus the union of
  // its children's intervals, clipped to its own).
  std::map<std::string, SpanStats> stats() const {
    std::vector<std::vector<int64_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(
            static_cast<int64_t>(i));
      }
    }
    std::map<std::string, SpanStats> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const int64_t c : children[i]) {
        const Span& k = spans_[static_cast<size_t>(c)];
        const int64_t lo = std::max(k.start_ns, s.start_ns);
        const int64_t hi = std::min(k.end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [lo, hi] : iv) {
        const int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_ms += dur_ms;
      st.self_ms += dur_ms - static_cast<double>(covered) / 1e6;
      st.durations_ms.push_back(dur_ms);
    }
    return out;
  }

  // chrome://tracing "X" events; request id and parent in args.
  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                   "\"parent\": %lld, \"request\": %lld}}%s\n",
                   s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request_id),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t request_id = -1)
      : tracer_(tracer), index_(tracer.open(name, request_id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int64_t index_;
};

}  // namespace servebench
