// Tests of the benchmark driver's statistics: the tail percentile rule,
// time-to-target crossing and censoring, and the maximum-rate search.
// Run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_quantile() {
  check(near(perfbench::quantile({3, 1, 2}, 0.5), 2.0), "median of three");
  check(near(perfbench::quantile({0, 10}, 0.25), 2.5), "interpolated quartile");
  check(perfbench::quantile({}, 0.5) == 0.0, "empty quantile");
  const double inf = std::numeric_limits<double>::infinity();
  check(std::isinf(perfbench::quantile({1, 2, inf}, 1.0)), "infinite tail sorts last");
  check(near(perfbench::quantile({1, 2, inf}, 0.0), 1.0), "finite head unaffected");
}

void test_tail_percentile() {
  // 1000 samples: exactly ten lie beyond p99.
  auto p = perfbench::tail_percentile(ramp(1000));
  check(near(p.level, 0.99), "p99 at n=1000");
  check(p.samples == 1000, "sample count recorded");
  // 500 samples: p99 would leave five beyond it, so the rule drops to p98.
  p = perfbench::tail_percentile(ramp(500));
  check(near(p.level, 0.98), "p98 at n=500");
  const std::size_t beyond = 500 - static_cast<std::size_t>(std::ceil(p.level * 499.0)) ;
  check(beyond >= 10, "at least ten samples beyond at n=500");
  // 200 samples: p95.
  check(near(perfbench::tail_percentile(ramp(200)).level, 0.95), "p95 at n=200");
  // Fewer than twenty samples: never below the median.
  check(near(perfbench::tail_percentile(ramp(12)).level, 0.5), "median floor at n=12");
  check(near(perfbench::tail_percentile(ramp(12)).value, 5.5), "median value at n=12");
  // Never above the requested level.
  check(near(perfbench::tail_percentile(ramp(100000)).level, 0.99), "capped at wanted");
  check(perfbench::tail_percentile({}).samples == 0, "empty tail");
}

void test_failed_jobs_in_tail() {
  // A failed, shed or timed-out job counts as an infinite latency.  At
  // n = 100 the rule takes p90, so ten such jobs put the tail at infinity
  // and nine leave it finite.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> latency = ramp(100);
  for (std::size_t i = 90; i < 100; ++i) latency[i] = inf;
  check(std::isinf(perfbench::tail_percentile(latency).value), "ten failed jobs: infinite tail");
  latency[90] = 90.0;
  check(std::isfinite(perfbench::tail_percentile(latency).value), "nine failed jobs: finite tail");
  // Dropping the failed jobs instead would report the finite ramp.
  check(perfbench::tail_percentile(ramp(90)).value < 90.0, "dropping failures lowers the tail");
}

void test_time_to_target() {
  using perfbench::StepSample;
  std::vector<StepSample> steps = {{1, 100, 0.1}, {2, 95, 0.2}, {3, 89, 0.3}, {4, 80, 0.4}};
  auto c = perfbench::time_to_target(steps, 90.0, 9.0);
  check(c.reached && c.step == 3 && near(c.seconds, 0.3), "first crossing wins");
  c = perfbench::time_to_target(steps, 95.0, 9.0);
  check(c.reached && c.step == 2, "crossing is inclusive");
  c = perfbench::time_to_target(steps, 50.0, 9.0);
  check(!c.reached && c.step == 4 && near(c.seconds, 9.0), "censored at run time");
  c = perfbench::time_to_target({}, 50.0, 2.5);
  check(!c.reached && c.step == 0 && near(c.seconds, 2.5), "no steps is censored");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  c = perfbench::time_to_target({{1, nan, 0.1}, {2, 10, 0.2}}, 50.0, 9.0);
  check(c.reached && c.step == 2, "NaN loss never crosses");
  const double inf = std::numeric_limits<double>::infinity();
  c = perfbench::time_to_target({{1, 500, 0.1}}, inf, 9.0);
  check(c.reached && c.step == 1, "infinite target crosses at the first step");
}

void test_max_rate() {
  using perfbench::Rung;
  const double limit = 100.0;
  auto bracket = [limit](const Rung& pass, const Rung& fail) {
    perfbench::RateSearch search(limit, 2.0);
    search.record(pass);
    search.record(fail);
    return search.max_rate();
  };
  // Crossing between 200 (tail 50) and 300 (tail 150): halfway.
  check(near(bracket({200, 50, false}, {300, 150, false}), 250.0), "interpolated crossing");
  // Backlog growth fails a rung whose tail is still within the limit; it
  // counts as twice the limit.
  check(near(bracket({100, 50, false}, {200, 60, true}), 100.0 + 100.0 / 3.0),
        "backlog growth counts as failure");
  const double inf = std::numeric_limits<double>::infinity();
  check(near(bracket({100, 20, false}, {200, inf, false}), 100.0), "infinite tail above");
}

void test_rate_search() {
  // A machine that sustains any rate below 3000 jobs/s: the tail is 10 ms
  // below it and 500 ms above.
  const double limit = 100.0;
  auto rung = [](double rate) {
    return perfbench::Rung{rate, rate < 3000.0 ? 10.0 : 500.0, false};
  };
  perfbench::RateSearch search(limit, 2.0);
  search.record(rung(400));
  check(!search.bracketed() && search.max_rate() == 0.0, "one passing rung is no answer");
  // 800 and 1600 pass: passing rungs never end the search, so no fixed
  // top rate can be the answer.
  for (int k = 0; k < 2; ++k) search.record(rung(search.next_rate()));
  check(!search.bracketed(), "passing rungs do not end the search");
  check(near(search.next_rate(), 3200.0), "the rate keeps doubling while rungs pass");
  search.record(rung(search.next_rate()));  // 3200 fails
  check(search.bracketed(), "a failing rung brackets the answer");
  check(near(search.next_rate(), std::sqrt(1600.0 * 3200.0)), "then bisects geometrically");
  for (int k = 0; k < 6; ++k) search.record(rung(search.next_rate()));
  const double rate = search.max_rate();
  check(rate > 1600.0 && rate < 3000.0 * 1.02, "bisection closes in on the true maximum");
  // A machine that fails the nominal rate halves until a rung passes.
  perfbench::RateSearch slow(limit, 2.0);
  slow.record(perfbench::Rung{400, 500, false});
  check(near(slow.next_rate(), 200.0), "a failing start shrinks");
  slow.record(perfbench::Rung{200, 50, false});
  check(slow.bracketed() && slow.max_rate() > 200.0 && slow.max_rate() < 400.0,
        "shrinking brackets the answer");
}

}  // namespace

int main() {
  test_quantile();
  test_tail_percentile();
  test_failed_jobs_in_tail();
  test_time_to_target();
  test_max_rate();
  test_rate_search();
  if (failures == 0) std::printf("perfbench stats tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
