// Numerical gradient checking harness: compares analytic gradients against
// central finite differences of the loss on a random probe subset of
// parameters.  The test suite's oracle for every hand-derived adjoint;
// finite differences live only in tests.
#ifndef BISMO_TESTS_GRADCHECK_HPP
#define BISMO_TESTS_GRADCHECK_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <stdexcept>

#include "math/grid2d.hpp"
#include "math/rng.hpp"

namespace bismo {

/// Result of a gradient check.
struct GradCheckResult {
  double max_abs_error = 0.0;  ///< max |analytic - numeric| over probes
  double max_rel_error = 0.0;  ///< max relative error (guarded denominator)
  std::size_t probes = 0;      ///< number of entries checked
};

/// Check `analytic_grad` against central differences of `loss_fn` at
/// `params`, probing `probes` randomly chosen entries with step `eps`.
/// `loss_fn` must be deterministic.
inline GradCheckResult check_gradient(
    const std::function<double(const RealGrid&)>& loss_fn,
    const RealGrid& params, const RealGrid& analytic_grad, Rng& rng,
    std::size_t probes = 24, double eps = 1e-5) {
  if (!params.same_shape(analytic_grad)) {
    throw std::invalid_argument("check_gradient: shape mismatch");
  }
  GradCheckResult result;
  // Scale floor: entries much smaller than the gradient's overall magnitude
  // carry finite-difference roundoff (the loss is O(1e6); differencing it
  // to probe a 1e-4-scale entry leaves few significant digits), so their
  // error is measured relative to the gradient scale rather than to the
  // (tiny) entry itself.
  double grad_scale = 0.0;
  for (const double g : analytic_grad) {
    grad_scale = std::max(grad_scale, std::abs(g));
  }
  const double floor = std::max(1e-3 * grad_scale, 1e-12);

  RealGrid work = params;
  for (std::size_t p = 0; p < probes; ++p) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(params.size()) - 1));
    const double saved = work[idx];
    work[idx] = saved + eps;
    const double lp = loss_fn(work);
    work[idx] = saved - eps;
    const double lm = loss_fn(work);
    work[idx] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = analytic_grad[idx];
    const double abs_err = std::abs(analytic - numeric);
    const double denom =
        std::max({std::abs(analytic), std::abs(numeric), floor});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    ++result.probes;
  }
  return result;
}

}  // namespace bismo

#endif  // BISMO_TESTS_GRADCHECK_HPP
