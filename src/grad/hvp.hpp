// Second-order building blocks for the bilevel hypergradient (Sec. 3.2):
//
//   HVP:   [d2 Lso / dthetaJ dthetaJ] v
//   mixed: [d2 Lso / dthetaM dthetaJ] w  (a vector over theta_M)
//
// Both are exact: they run over the fixed-mask intensity stack of
// grad/source_stack.hpp, which also serves the fixed-mask source steps of
// the BiSMO unroll.  Neither materializes a Hessian.
#ifndef BISMO_GRAD_HVP_HPP
#define BISMO_GRAD_HVP_HPP

#include "grad/abbe_grad.hpp"
#include "grad/source_stack.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Exact second-order operators over an Abbe SMO objective.  Lso == Lmo ==
/// Lsmo (paper Eq. 9), so the same engine serves both levels.
///
/// Owns one SourceStack, rebuilt whenever the theta_M passed in differs
/// bitwise from the one it was built at; the per-point state is likewise
/// cached per theta_J, so K products at one (theta_M, theta_J) pay for
/// the stack and the loss once.  Not reentrant (the stack is shared
/// scratch): give each concurrent solve its own HypergradientOps *and*
/// engine/workspace set.
class HypergradientOps {
 public:
  /// `engine` is borrowed and must outlive this object.  `eps_scale` is
  /// unused (the products are exact); it stays because
  /// perfbench/src/ladder.cpp passes SmoConfig::fd_eps_scale here, and the
  /// benchmark's sources stay fixed so that runs of different commits
  /// remain comparable.
  explicit HypergradientOps(const AbbeGradientEngine& engine,
                            double eps_scale = 1e-2);

  /// [d2 Lso / dthetaJ^2] * v at (theta_m, theta_j).
  /// Returns a zero grid (and counts nothing) when v is zero.
  RealGrid hvp_source(const RealGrid& theta_m, const RealGrid& theta_j,
                      const RealGrid& v) const;

  /// [d2 Lso / dthetaM dthetaJ] * w at (theta_m, theta_j); the mixed
  /// Jacobian-vector product of Eqs. 13/16/18, shaped like theta_M.
  RealGrid mixed_mask_source(const RealGrid& theta_m, const RealGrid& theta_j,
                             const RealGrid& w) const;

  /// Loss terms and dL/dtheta_J at (theta_m, theta_j) through the same
  /// stack: the fixed-mask source step of the BiSMO unroll.  Writes the
  /// gradient into `grad_theta_j` (resized on first use).
  SmoLossValue source_gradient(const RealGrid& theta_m,
                               const RealGrid& theta_j,
                               RealGrid& grad_theta_j) const;

  /// Products computed so far, one per HVP or mixed product (for the TAT
  /// accounting the runtime benches report).
  long evaluations() const noexcept { return evals_; }

 private:
  mutable SourceStack stack_;
  mutable long evals_ = 0;
};

}  // namespace bismo

#endif  // BISMO_GRAD_HVP_HPP
