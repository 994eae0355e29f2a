// Measurement rules of the serving benchmark, kept free of any serving
// code so selftest.cpp can pin each one on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "vision/box.h"

namespace servebench {

namespace vision = yollo::vision;

// Linear-interpolated quantile of an unsorted sample, q in [0, 1]
// (numpy's default "linear" method). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The tail percentile a sample of n can report: the highest of
// {want, 99, 95, 90, 75, 50} (not above `want`) with at least ten samples
// beyond it. A p99 needs n >= 1000; with fewer samples the tail metric
// falls back to the highest percentile the sample supports, and the
// report names which one it used. 0 when even the median is unsupported.
inline double supported_percentile(int64_t n, double want = 99.0) {
  const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : ladder) {
    if (p > want) continue;
    // Samples strictly beyond the p-th percentile of n.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= 10.0) return p;
  }
  return 0.0;
}

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;      // value at tail_pct
  double tail_pct = 0.0;  // supported_percentile(n, 99)
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = static_cast<int64_t>(v.size());
  s.p50 = quantile(v, 0.5);
  s.tail_pct = supported_percentile(s.n, 99.0);
  s.tail = s.tail_pct > 0.0 ? quantile(v, s.tail_pct / 100.0) : 0.0;
  return s;
}

// Open-loop accounting. Times are ms on one steady clock. A request due at
// `due_ms` whose submit() call started at `submit_ms` and whose answer came
// `service_ms` after that call started was, for its user, answered
// (submit_ms - due_ms) + service_ms after it was due: a generator that ran
// late charges the wait to the request instead of hiding it.
inline double due_latency_ms(double due_ms, double submit_ms,
                             double service_ms) {
  return (submit_ms - due_ms) + service_ms;
}

// How late the generator sent a request (never negative: an early wake-up
// still submits at, not before, the due time).
inline double generator_lag_ms(double due_ms, double submit_ms) {
  return std::max(0.0, submit_ms - due_ms);
}

// Backlog test for one ladder rate: mean outstanding requests (sent, not
// yet answered) over the window's second tenth, once the queue has filled
// to its working level, against their mean over its last tenth. The rate
// keeps up only if the backlog at the end exceeds the one at the start by
// no more than `in_service` requests (what the front end can hold in
// forwards at once, by which the outstanding count swings as batches form
// and finish) or 10 ms of arrivals at the offered rate, whichever is more:
// a rate served only by letting a standing queue build up (bounded by the
// deadline and the admission queue) does not count.
inline bool backlog_growing(double start_outstanding, double end_outstanding,
                            double rate_rps, double in_service) {
  const double slack = std::max(in_service, 0.010 * rate_rps);
  return end_outstanding > start_outstanding + slack;
}

struct Rung {
  double rate_rps = 0.0;
  double slo_attainment = 0.0;
  bool backlog_growing = false;
  double start_outstanding = 0.0;  // the backlog_growing inputs
  double end_outstanding = 0.0;
};

constexpr double kSloTarget = 0.99;

// A ladder rate is kept up with when its SLO attainment meets the target
// without a growing backlog.
inline bool passes(const Rung& r) {
  return r.slo_attainment >= kSloTarget && !r.backlog_growing;
}

// Highest passing ladder rate; 0 when no rate passes.
inline double max_rate(const std::vector<Rung>& rungs) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (passes(r)) best = std::max(best, r.rate_rps);
  }
  return best;
}

// Bitwise box equality: every served answer must equal its single-image
// reference forward exactly (batched, cached and planned forwards are
// pinned bit-identical to it by the library's tests).
inline bool same_box(const vision::Box& a, const vision::Box& b) {
  const float fa[4] = {a.x, a.y, a.w, a.h};
  const float fb[4] = {b.x, b.y, b.w, b.h};
  return std::memcmp(fa, fb, sizeof(fa)) == 0;
}

// Reference table of expected boxes, indexed by the benchmark's own
// (image, query) pair id; counts every answer that differs.
class AnswerChecker {
 public:
  explicit AnswerChecker(std::vector<vision::Box> expected)
      : expected_(std::move(expected)) {}

  // Returns true when `got` matches the reference of `pair`.
  bool check(size_t pair, const vision::Box& got) {
    ++checked_;
    const bool ok = pair < expected_.size() && same_box(expected_[pair], got);
    if (!ok) ++wrong_;
    return ok;
  }

  int64_t checked() const { return checked_; }
  int64_t wrong() const { return wrong_; }

 private:
  std::vector<vision::Box> expected_;
  int64_t checked_ = 0;
  int64_t wrong_ = 0;
};

}  // namespace servebench
