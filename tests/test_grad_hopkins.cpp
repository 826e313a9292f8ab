// Gradient checks for the Hopkins/SOCS adjoints, plus the structural
// cross-check that full-rank Hopkins mask gradients coincide with Abbe's.
#include <gtest/gtest.h>

#include "grad/abbe_grad.hpp"
#include "gradcheck.hpp"
#include "grad/hopkins_grad.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

OpticsConfig small_optics() {
  OpticsConfig o;
  o.mask_dim = 64;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid line_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 8; c < 7 * n / 8; ++c) t(r, c) = 1.0;
  }
  return t;
}

struct HopkinsGradRig {
  OpticsConfig optics = small_optics();
  SourceGeometry geometry{7, small_optics()};
  AbbeImaging abbe{small_optics(), SourceGeometry(7, small_optics())};
  RealGrid source;
  RealGrid target = line_target(64);

  HopkinsGradRig() {
    SourceSpec spec;
    source = make_source(geometry, spec);
  }
};

class HopkinsGradCheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HopkinsGradCheck, MaskGradientMatchesFiniteDifference) {
  HopkinsGradRig rig;
  const std::size_t q = GetParam();
  const SocsDecomposition socs(rig.abbe, rig.source, q);
  const HopkinsImaging hopkins(rig.optics, socs);
  const HopkinsGradientEngine engine(hopkins, rig.target);

  Rng rng(3000 + q);
  RealGrid theta_m = init_mask_params(rig.target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);

  const SmoGradient g = engine.evaluate(theta_m);
  auto loss_fn = [&](const RealGrid& tm) {
    return engine.loss_only(tm).total;
  };
  const GradCheckResult r =
      check_gradient(loss_fn, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(r.max_rel_error, 1e-3) << "Q=" << q;
}

INSTANTIATE_TEST_SUITE_P(KernelCounts, HopkinsGradCheck,
                         ::testing::Values<std::size_t>(2, 6, 24));

TEST(HopkinsGrad, FullRankGradientMatchesAbbe) {
  // Forward models agree at full rank, so mask gradients must too.
  HopkinsGradRig rig;
  const SocsDecomposition socs(rig.abbe, rig.source, 10000);
  const HopkinsImaging hopkins(rig.optics, socs);
  const HopkinsGradientEngine hopkins_engine(hopkins, rig.target);
  const AbbeGradientEngine abbe_engine(rig.abbe, rig.target);

  Rng rng(31);
  RealGrid theta_m = init_mask_params(rig.target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  const RealGrid theta_j = init_source_params(rig.source, {});

  const SmoGradient gh = hopkins_engine.evaluate(theta_m);
  GradRequest req;
  req.mask = true;
  req.source = false;
  const SmoGradient ga = abbe_engine.evaluate(theta_m, theta_j, req);

  // The Abbe engine sees sigmoid-activated source weights (~0.9999 on the
  // ring), the Hopkins stack was built from the binary template, so allow a
  // small relative deviation.
  const double scale = max_abs(ga.grad_theta_m);
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(testing::max_diff(gh.grad_theta_m, ga.grad_theta_m),
            2e-3 * scale);
  EXPECT_NEAR(gh.loss, ga.loss, 1e-3 * ga.loss);
}

TEST(HopkinsGrad, TruncatedGradientDiffersFromFullRank) {
  // Truncation error is real: with Q = 1 the gradient must deviate.
  HopkinsGradRig rig;
  const SocsDecomposition socs_full(rig.abbe, rig.source, 10000);
  const SocsDecomposition socs_1(rig.abbe, rig.source, 1);
  const HopkinsImaging h_full(rig.optics, socs_full);
  const HopkinsImaging h_1(rig.optics, socs_1);
  const HopkinsGradientEngine e_full(h_full, rig.target);
  const HopkinsGradientEngine e_1(h_1, rig.target);

  RealGrid theta_m = init_mask_params(rig.target, {});
  const SmoGradient g_full = e_full.evaluate(theta_m);
  const SmoGradient g_1 = e_1.evaluate(theta_m);
  EXPECT_GT(testing::max_diff(g_full.grad_theta_m, g_1.grad_theta_m),
            1e-6 * max_abs(g_full.grad_theta_m));
}

TEST(HopkinsGrad, TargetShapeMismatchThrows) {
  HopkinsGradRig rig;
  const SocsDecomposition socs(rig.abbe, rig.source, 4);
  const HopkinsImaging hopkins(rig.optics, socs);
  EXPECT_THROW(HopkinsGradientEngine(hopkins, RealGrid(16, 16, 0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace bismo
