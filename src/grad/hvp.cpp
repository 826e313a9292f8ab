#include "grad/hvp.hpp"

#include "math/grid_ops.hpp"

namespace bismo {

HypergradientOps::HypergradientOps(const AbbeGradientEngine& engine,
                                   double /*eps_scale*/)
    : stack_(engine) {}

RealGrid HypergradientOps::hvp_source(const RealGrid& theta_m,
                                      const RealGrid& theta_j,
                                      const RealGrid& v) const {
  RealGrid out(theta_j.rows(), theta_j.cols(), 0.0);
  if (norm2(v) < 1e-30) return out;
  stack_.set_mask(theta_m);
  stack_.hvp(theta_j, v, out);
  ++evals_;
  return out;
}

RealGrid HypergradientOps::mixed_mask_source(const RealGrid& theta_m,
                                             const RealGrid& theta_j,
                                             const RealGrid& w) const {
  RealGrid out(theta_m.rows(), theta_m.cols(), 0.0);
  if (norm2(w) < 1e-30) return out;
  stack_.set_mask(theta_m);
  stack_.mixed(theta_j, w, out);
  ++evals_;
  return out;
}

SmoLossValue HypergradientOps::source_gradient(const RealGrid& theta_m,
                                               const RealGrid& theta_j,
                                               RealGrid& grad_theta_j) const {
  stack_.set_mask(theta_m);
  return stack_.evaluate(theta_j, grad_theta_j);
}

}  // namespace bismo
