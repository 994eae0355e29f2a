// Self-tests of the benchmark's own measurement rules (stats.h, trace.h).
// run.py builds and runs this before every benchmark run; a failure stops
// the run. Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace servebench;

// A tail percentile is reported only with at least ten samples beyond it.
void percentile_rule() {
  expect(supported_percentile(1000) == 99.0, "n=1000 supports p99");
  expect(supported_percentile(999) == 95.0, "n=999 falls back to p95");
  expect(supported_percentile(200) == 95.0, "n=200 supports p95");
  expect(supported_percentile(199) == 90.0, "n=199 falls back to p90");
  expect(supported_percentile(100) == 90.0, "n=100 supports p90");
  expect(supported_percentile(40) == 75.0, "n=40 supports p75");
  expect(supported_percentile(20) == 50.0, "n=20 supports only the median");
  expect(supported_percentile(19) == 0.0, "n=19 supports nothing");
  expect(supported_percentile(100000) == 99.0, "p99 is the most asked for");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  expect(s.n == 1000 && s.tail_pct == 99.0, "summary of 1000 uses p99");
  expect(near(s.p50, 500.5), "median of 1..1000");
  expect(near(s.tail, 990.01), "p99 of 1..1000 interpolates");
  std::vector<double> few(v.begin(), v.begin() + 500);
  expect(summarize(few).tail_pct == 95.0, "summary of 500 uses p95");
}

// Open-loop requests are timed from when they were due.
void due_time_latency() {
  // Due at 10 ms, sent at 14 ms (the generator ran 4 ms late), answered
  // 3 ms after its submit() started: the user waited 7 ms.
  expect(near(due_latency_ms(10.0, 14.0, 3.0), 7.0), "late send is charged");
  expect(near(generator_lag_ms(10.0, 14.0), 4.0), "lag is send - due");
  expect(near(due_latency_ms(10.0, 10.0, 3.0), 3.0), "on-time send");
  expect(near(generator_lag_ms(10.0, 9.5), 0.0), "lag is never negative");

  // One stall delays every request queued behind it: requests due every
  // 1 ms while the generator is stuck until 50 ms all count their wait.
  std::vector<double> lat;
  for (int i = 0; i < 50; ++i) {
    const double due = static_cast<double>(i);
    lat.push_back(due_latency_ms(due, 50.0, 1.0));
  }
  expect(near(lat.front(), 51.0) && near(lat.back(), 2.0),
         "stall charges each request its own wait");

  // Backlog rule: a steady queue passes, a growing one does not.
  expect(!backlog_growing(5.0, 8.0, 100.0, 4.0), "small drift is steady");
  expect(backlog_growing(5.0, 40.0, 100.0, 4.0), "growth beyond slack");
  expect(!backlog_growing(5.0, 14.0, 1000.0, 4.0), "slack scales with rate");
  expect(backlog_growing(5.0, 16.0, 1000.0, 4.0), "beyond 10 ms of arrivals");
  expect(!backlog_growing(10.0, 34.0, 1000.0, 24.0),
         "a swing within the requests in service is steady");
  expect(backlog_growing(10.0, 35.0, 1000.0, 24.0),
         "growth beyond the requests in service");

  const std::vector<Rung> rungs = {{400, 1.0, false},
                                   {600, 0.995, false},
                                   {800, 0.999, true},
                                   {1000, 0.90, false}};
  expect(max_rate(rungs) == 600, "max rate skips backlog and SLO misses");
  expect(max_rate({{400, 0.5, false}}) == 0, "no passing rung -> 0");
}

// The checker accepts only bit-identical boxes.
void checker_catches_perturbation() {
  const vision::Box ref{10.0f, 12.5f, 20.0f, 8.25f};
  AnswerChecker c({ref, ref});
  expect(c.check(0, ref), "identical box passes");

  vision::Box nudged = ref;
  nudged.w = std::nextafter(ref.w, 100.0f);  // one ulp
  expect(!c.check(1, nudged), "one-ulp perturbation is caught");

  vision::Box neg_zero{-0.0f, 12.5f, 20.0f, 8.25f};
  AnswerChecker z({vision::Box{0.0f, 12.5f, 20.0f, 8.25f}});
  expect(!z.check(0, neg_zero), "-0 vs +0 differs bitwise");

  expect(!c.check(7, ref), "unknown pair is wrong");
  expect(c.checked() == 3 && c.wrong() == 2, "checker counts");
}

// Self time is duration minus the children's covered interval.
void span_self_time() {
  Tracer t(true);
  const Clock::time_point o = Clock::now();
  const auto at = [o](int ms) { return o + std::chrono::milliseconds(ms); };
  const int64_t root = t.add("request", at(0), at(10), -1, 1);
  t.add("child", at(1), at(4), root, 1);
  t.add("child", at(3), at(6), root, 1);   // overlaps the first
  t.add("child", at(9), at(12), root, 1);  // runs past the parent
  const auto st = t.stats();
  expect(near(st.at("request").total_ms, 10.0), "root total");
  expect(near(st.at("request").self_ms, 10.0 - 5.0 - 1.0),
         "root self excludes the union of children");
  expect(st.at("child").count == 3, "child count");

  Tracer off(false);
  {
    ScopedSpan s(off, "x");
    expect(s.index() == -1, "disabled tracer records nothing");
  }
  expect(off.spans().empty(), "disabled tracer stays empty");
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency();
  checker_catches_perturbation();
  span_self_time();
  if (failures == 0) std::printf("servebench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
