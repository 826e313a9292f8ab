// Pure statistics used by the benchmark driver: quantiles, the tail
// percentile rule, time-to-target crossing with censoring, and the
// search for the maximum sustainable rate of an open loop.
// Header-only and free of library dependencies so the driver's own tests
// (tests/test_stats.cpp) can check every rule in isolation.
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile q in [0, 1] of `values` (the same rule as
/// numpy's default).  Infinite samples sort last and propagate when the
/// rank lands on them.  Returns 0 for an empty input.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A tail percentile together with the level it was taken at.
struct TailPercentile {
  double level = 0.5;  ///< the quantile actually used, in [0.5, wanted]
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest percentile, at most `wanted`, that has at least
/// `min_beyond` samples beyond it: level = min(wanted, 1 - min_beyond / n),
/// never below the median.  With n = 1000 and min_beyond = 10 this is p99;
/// with n = 200 it is p95; below 2 * min_beyond samples it is the median.
inline TailPercentile tail_percentile(const std::vector<double>& values,
                                      double wanted = 0.99,
                                      std::size_t min_beyond = 10) {
  TailPercentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const double n = static_cast<double>(values.size());
  out.level = std::max(0.5, std::min(wanted, 1.0 - static_cast<double>(min_beyond) / n));
  out.value = quantile(values, out.level);
  return out;
}

/// One observed optimizer step: its index, loss, and when the observer saw
/// it (seconds since the job's reference time).
struct StepSample {
  int step = 0;
  double loss = 0.0;
  double seconds = 0.0;
};

/// Outcome of a time-to-target measurement.
struct Crossing {
  bool reached = false;  ///< a step at or below target was seen
  int step = 0;          ///< the crossing step (the last step when censored)
  double seconds = 0.0;  ///< crossing time, or the censoring time
};

/// The first step whose loss is at or below `target`.  A job that never
/// gets there is censored: reached = false and it contributes
/// `censor_seconds` (its full run time), so a method cannot look fast by
/// failing.  Non-finite losses never count as a crossing.
inline Crossing time_to_target(const std::vector<StepSample>& steps,
                               double target, double censor_seconds) {
  Crossing out;
  for (const StepSample& s : steps) {
    if (std::isfinite(s.loss) && s.loss <= target) {
      out.reached = true;
      out.step = s.step;
      out.seconds = s.seconds;
      return out;
    }
  }
  out.step = steps.empty() ? 0 : steps.back().step;
  out.seconds = censor_seconds;
  return out;
}

/// One rung of an open-loop rate ladder.
struct Rung {
  double rate = 0.0;      ///< offered jobs per second
  double tail_ms = 0.0;   ///< tail latency (tail_percentile rule)
  bool backlog_grew = false;
};

/// A rung passes when its tail latency is within the limit and its backlog
/// did not grow.
inline bool rung_passes(const Rung& rung, double limit_ms) {
  return !rung.backlog_grew && rung.tail_ms <= limit_ms;
}

/// The search for the highest sustainable rate.  From the first recorded
/// rung the rate grows by `growth` per rung until a rung fails (or shrinks
/// until one passes); once a passing and a failing rate bracket the
/// answer, it bisects geometrically between them.  The answer is read from
/// the bracket only, so a fast machine cannot hit a fixed top rate: the
/// search must keep going until it is `bracketed()`.
///
/// The answer interpolates the tail latency linearly in rate between the
/// highest passing and the lowest failing rung to where it meets the limit
/// (a rung that failed only on backlog growth counts as twice the limit).
class RateSearch {
 public:
  RateSearch(double limit_ms, double growth) : limit_ms_(limit_ms), growth_(growth) {}

  void record(const Rung& rung) {
    if (rung_passes(rung, limit_ms_)) {
      pass_ = rung;
      have_pass_ = true;
    } else {
      fail_ = rung;
      have_fail_ = true;
    }
  }
  bool bracketed() const { return have_pass_ && have_fail_; }

  /// The rate of the next rung (at least one rung must be recorded).
  double next_rate() const {
    if (!have_fail_) return pass_.rate * growth_;
    if (!have_pass_) return fail_.rate / growth_;
    return std::sqrt(pass_.rate * fail_.rate);
  }

  /// The highest sustainable rate; 0 until `bracketed()`.
  double max_rate() const {
    if (!bracketed()) return 0.0;
    const Rung& lo = pass_;
    const Rung& hi = fail_;
    const double hi_tail = hi.backlog_grew ? std::max(hi.tail_ms, 2.0 * limit_ms_) : hi.tail_ms;
    double frac = 0.0;
    if (std::isfinite(hi_tail) && hi_tail > lo.tail_ms) {
      frac = (limit_ms_ - lo.tail_ms) / (hi_tail - lo.tail_ms);
    }
    frac = std::min(1.0, std::max(0.0, frac));
    return lo.rate + (hi.rate - lo.rate) * frac;
  }

 private:
  double limit_ms_;
  double growth_;
  Rung pass_{};  ///< highest passing rung so far
  Rung fail_{};  ///< lowest failing rung so far
  bool have_pass_ = false;
  bool have_fail_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP
