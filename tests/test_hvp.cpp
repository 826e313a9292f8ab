// Second-order machinery tests.  The production products are exact
// (grad/source_stack.hpp); finite differences of analytic gradients live
// here only, as the oracle: a densely assembled FD Hessian, the symmetric
// cross-derivative, Richardson-extrapolated FD at toy size, and Taylor
// remainders over an eps ladder, plus the operator properties
// (symmetry, linearity) that BiSMO-NMN/CG rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "grad/abbe_grad.hpp"
#include "grad/hvp.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"

namespace bismo {
namespace {

OpticsConfig tiny_optics() {
  OpticsConfig o;
  o.mask_dim = 32;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid tiny_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 4; c < 3 * n / 4; ++c) t(r, c) = 1.0;
  }
  return t;
}

struct HvpRig {
  OpticsConfig optics = tiny_optics();
  SourceGeometry geometry{5, tiny_optics()};
  AbbeImaging abbe{tiny_optics(), SourceGeometry(5, tiny_optics())};
  RealGrid target = tiny_target(32);
  AbbeGradientEngine engine{abbe, target};
  RealGrid theta_m;
  RealGrid theta_j;

  HvpRig() {
    Rng rng(77);
    theta_m = init_mask_params(target, {});
    for (auto& v : theta_m) v += rng.uniform(-0.2, 0.2);
    SourceSpec spec;
    theta_j = init_source_params(make_source(geometry, spec), {});
    for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);
  }

  /// Pull both parameter grids out of the sigmoid plateaus, so every
  /// derivative order is well above the loss's rounding floor (the Table 1
  /// start sits deep in the plateaus, where curvatures are ~1e-4).
  void soften() {
    Rng rng(76);
    for (auto& v : theta_m) v = 0.15 * v + rng.uniform(-0.1, 0.1);
    for (auto& v : theta_j) v = rng.uniform(-1.0, 1.0);
  }

  RealGrid grad_j(const RealGrid& tj) const {
    GradRequest req;
    req.mask = false;
    req.source = true;
    return engine.evaluate(theta_m, tj, req).grad_theta_j;
  }
  RealGrid grad_m_at(const RealGrid& tj) const {
    GradRequest req;
    req.mask = true;
    req.source = false;
    return engine.evaluate(theta_m, tj, req).grad_theta_m;
  }
};

RealGrid random_like(const RealGrid& shape, Rng& rng) {
  RealGrid out(shape.rows(), shape.cols());
  for (auto& x : out) x = rng.uniform(-1.0, 1.0);
  return out;
}

/// Least-squares slope of log(r) against log(eps).
double log_slope(const std::vector<double>& eps, const std::vector<double>& r) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(eps.size());
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const double x = std::log(eps[i]);
    const double y = std::log(r[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Richardson-extrapolated central difference of a grid-valued function
/// along one direction: (4 D(h/2) - D(h)) / 3, error O(h^4).
template <typename Fn>
RealGrid richardson(const Fn& f, const RealGrid& x, const RealGrid& dir,
                    double h) {
  const auto central = [&](double step) {
    RealGrid out = f(axpy(x, step, dir)) - f(axpy(x, -step, dir));
    out *= 1.0 / (2.0 * step);
    return out;
  };
  RealGrid out = central(0.5 * h) * 4.0 - central(h);
  out *= 1.0 / 3.0;
  return out;
}

TEST(Hvp, MatchesDenseHessianColumns) {
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  const std::size_t n = rig.theta_j.size();

  // Dense Hessian w.r.t. theta_J assembled column-by-column with central
  // differences of the analytic gradient (5x5 source grid => 25 columns).
  const double eps = 1e-4;
  std::vector<RealGrid> hcols;
  hcols.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RealGrid p = rig.theta_j;
    p[i] += eps;
    RealGrid m = rig.theta_j;
    m[i] -= eps;
    RealGrid col = rig.grad_j(p) - rig.grad_j(m);
    col *= 1.0 / (2.0 * eps);
    hcols.push_back(std::move(col));
  }

  Rng rng(78);
  for (int trial = 0; trial < 3; ++trial) {
    RealGrid v(rig.theta_j.rows(), rig.theta_j.cols());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
    RealGrid expect(v.rows(), v.cols(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      expect = axpy(expect, v[i], hcols[i]);
    }
    const double scale = max_abs(expect);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(hv[i], expect[i], 1e-6 * scale) << "trial " << trial;
    }
  }
}

TEST(Hvp, OperatorIsApproximatelySymmetric) {
  // Exact products: u.Hv == v.Hu to rounding.
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  Rng rng(79);
  RealGrid u(5, 5), v(5, 5);
  for (auto& x : u) x = rng.uniform(-1, 1);
  for (auto& x : v) x = rng.uniform(-1, 1);
  const double uhv = dot(u, ops.hvp_source(rig.theta_m, rig.theta_j, v));
  const double vhu = dot(v, ops.hvp_source(rig.theta_m, rig.theta_j, u));
  const double scale = std::max({std::abs(uhv), std::abs(vhu), 1e-8});
  EXPECT_NEAR(uhv / scale, vhu / scale, 1e-12);
}

TEST(Hvp, HomogeneousInV) {
  // H(c v) == c H(v) to rounding.
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  Rng rng(80);
  RealGrid v(5, 5);
  for (auto& x : v) x = rng.uniform(-1, 1);
  const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, v);
  const RealGrid h2v = ops.hvp_source(rig.theta_m, rig.theta_j, v * 2.0);
  const double scale = max_abs(hv);
  for (std::size_t i = 0; i < hv.size(); ++i) {
    EXPECT_NEAR(h2v[i], 2.0 * hv[i], 1e-12 * scale);
  }
}

TEST(Hvp, ZeroVectorGivesZero) {
  HvpRig rig;
  const HypergradientOps ops(rig.engine);
  const RealGrid z(5, 5, 0.0);
  const RealGrid hv = ops.hvp_source(rig.theta_m, rig.theta_j, z);
  for (double x : hv) EXPECT_DOUBLE_EQ(x, 0.0);
  EXPECT_EQ(ops.evaluations(), 0);
}

TEST(Hvp, MixedProductMatchesCrossDerivative) {
  // [d2Lso/dthetaM dthetaJ] w  checked entrywise against
  // d/dthetaM_i <grad_J Lso, w> via finite differences over theta_M --
  // an independent path through the symmetric second derivative.
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  Rng rng(81);
  RealGrid w(5, 5);
  for (auto& x : w) x = rng.uniform(-1, 1);
  const RealGrid mixed = ops.mixed_mask_source(rig.theta_m, rig.theta_j, w);
  ASSERT_EQ(mixed.rows(), rig.theta_m.rows());

  const double eps = 1e-4;
  for (int probe = 0; probe < 6; ++probe) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rig.theta_m.size()) - 1));
    GradRequest req;
    req.mask = false;
    req.source = true;
    RealGrid tm_p = rig.theta_m;
    tm_p[idx] += eps;
    RealGrid tm_m = rig.theta_m;
    tm_m[idx] -= eps;
    const double gp =
        dot(rig.engine.evaluate(tm_p, rig.theta_j, req).grad_theta_j, w);
    const double gm =
        dot(rig.engine.evaluate(tm_m, rig.theta_j, req).grad_theta_j, w);
    const double expect = (gp - gm) / (2.0 * eps);
    const double scale = max_abs(mixed);
    EXPECT_NEAR(mixed[idx] / scale, expect / scale, 1e-6) << "probe " << probe;
  }
}

TEST(Hvp, EvaluationCounterTracksCost) {
  HvpRig rig;
  const HypergradientOps ops(rig.engine);
  Rng rng(82);
  RealGrid v(5, 5);
  for (auto& x : v) x = rng.uniform(-1, 1);
  // One count per exact product.
  ops.hvp_source(rig.theta_m, rig.theta_j, v);
  EXPECT_EQ(ops.evaluations(), 1);
  ops.mixed_mask_source(rig.theta_m, rig.theta_j, v);
  EXPECT_EQ(ops.evaluations(), 2);
}

TEST(Hvp, TaylorRemainderOfHvpIsCubic) {
  // r(eps) = L(tj + eps v) - L - eps g.v - eps^2/2 v.Hv = O(eps^3) only
  // when H is the exact Hessian of the engine's loss.
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  Rng rng(83);
  for (int trial = 0; trial < 3; ++trial) {
    RealGrid v = random_like(rig.theta_j, rng);
    v *= 1.0 / norm2(v);
    const double l0 = rig.engine.loss_only(rig.theta_m, rig.theta_j).total;
    const double gv = dot(rig.grad_j(rig.theta_j), v);
    const double vhv = dot(v, ops.hvp_source(rig.theta_m, rig.theta_j, v));
    std::vector<double> eps;
    std::vector<double> rem;
    for (double e = 0.08; e > 0.004; e *= 0.5) {
      const double l =
          rig.engine.loss_only(rig.theta_m, axpy(rig.theta_j, e, v)).total;
      eps.push_back(e);
      rem.push_back(std::abs(l - l0 - e * gv - 0.5 * e * e * vhv));
    }
    EXPECT_NEAR(log_slope(eps, rem), 3.0, 0.1) << "trial " << trial;
  }
}

TEST(Hvp, TaylorRemainderOfMixedBlockIsCubic) {
  // The mixed second difference
  //   L(m + eps u, j + eps w) - L(m + eps u, j) - L(m, j + eps w) + L(m, j)
  // equals eps^2 u.[d2L/dm dj] w + O(eps^3).
  HvpRig rig;
  rig.soften();
  const HypergradientOps ops(rig.engine);
  Rng rng(84);
  const auto loss = [&](const RealGrid& tm, const RealGrid& tj) {
    return rig.engine.loss_only(tm, tj).total;
  };
  for (int trial = 0; trial < 3; ++trial) {
    RealGrid u = random_like(rig.theta_m, rng);
    u *= 1.0 / norm2(u);
    RealGrid w = random_like(rig.theta_j, rng);
    w *= 1.0 / norm2(w);
    const double umw =
        dot(u, ops.mixed_mask_source(rig.theta_m, rig.theta_j, w));
    const double l00 = loss(rig.theta_m, rig.theta_j);
    std::vector<double> eps;
    std::vector<double> rem;
    for (double e = 0.08; e > 0.004; e *= 0.5) {
      const RealGrid tm = axpy(rig.theta_m, e, u);
      const RealGrid tj = axpy(rig.theta_j, e, w);
      const double second = loss(tm, tj) - loss(tm, rig.theta_j) -
                            loss(rig.theta_m, tj) + l00;
      eps.push_back(e);
      rem.push_back(std::abs(second - e * e * umw));
    }
    EXPECT_NEAR(log_slope(eps, rem), 3.0, 0.1) << "trial " << trial;
  }
}

TEST(Hvp, MatchesRichardsonFdAtToySize) {
  // 16^2 mask, 3 x 3 source grid (5 points inside the sigma disc): the
  // exact HVP and mixed product against Richardson-extrapolated central
  // differences of the engine's analytic gradients.
  OpticsConfig optics;
  optics.mask_dim = 16;
  optics.pixel_nm = 25.0;
  const SourceGeometry geometry(3, optics);
  const AbbeImaging abbe(optics, geometry);
  const RealGrid target = tiny_target(16);
  const AbbeGradientEngine engine(abbe, target);
  Rng rng(85);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.2, 0.2);
  SourceSpec spec;
  spec.shape = SourceShape::kConventional;
  RealGrid theta_j = init_source_params(make_source(geometry, spec), {});
  for (auto& v : theta_j) v = 0.3 * v + rng.uniform(-0.5, 0.5);

  const HypergradientOps ops(engine);
  const auto grad_j = [&](const RealGrid& tj) {
    return engine.evaluate(theta_m, tj, {false, true}).grad_theta_j;
  };
  const auto grad_m = [&](const RealGrid& tj) {
    return engine.evaluate(theta_m, tj, {true, false}).grad_theta_m;
  };
  for (int trial = 0; trial < 3; ++trial) {
    const RealGrid v = random_like(theta_j, rng) * geometry.validity_mask();
    const RealGrid hv = ops.hvp_source(theta_m, theta_j, v);
    const RealGrid hv_fd = richardson(grad_j, theta_j, v, 1e-2);
    const double h_scale = max_abs(hv_fd);
    for (std::size_t i = 0; i < hv.size(); ++i) {
      EXPECT_NEAR(hv[i], hv_fd[i], 1e-7 * h_scale) << "trial " << trial;
    }
    const RealGrid mixed = ops.mixed_mask_source(theta_m, theta_j, v);
    const RealGrid mixed_fd = richardson(grad_m, theta_j, v, 1e-2);
    const double m_scale = max_abs(mixed_fd);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      EXPECT_NEAR(mixed[i], mixed_fd[i], 1e-7 * m_scale) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace bismo
