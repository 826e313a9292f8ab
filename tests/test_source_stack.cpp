// SourceStack tests: the fixed-mask intensity stack against the direct
// Abbe gradient engine (loss and source gradient), its build/rebuild
// contract, its memory layout, and the zero-allocation steady state of
// the source steps and exact products it serves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/alloc_guard.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/source_stack.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {
namespace {

RealGrid bar_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 2; r < n / 2 + 2; ++r) {
    for (std::size_t c = n / 4; c < 3 * n / 4; ++c) t(r, c) = 1.0;
  }
  for (std::size_t r = n / 4; r < n / 4 + 4; ++r) {
    for (std::size_t c = n / 4; c < n / 4 + 4; ++c) t(r, c) = 1.0;
  }
  return t;
}

/// One Abbe objective with randomized parameters around the Table 1 start.
struct StackRig {
  OpticsConfig optics;
  SourceGeometry geometry;
  AbbeImaging abbe;
  RealGrid target;
  AbbeGradientEngine engine;
  RealGrid theta_m;
  RealGrid theta_j;

  StackRig(std::size_t n, double pixel_nm, std::size_t nj,
           ActivationConfig activation = {}, double defocus_nm = 0.0,
           ThreadPool* pool = nullptr)
      : optics{193.0, 1.35, n, pixel_nm, defocus_nm},
        geometry(nj, optics),
        abbe(optics, geometry, pool),
        target(bar_target(n)),
        engine(abbe, target, {}, activation) {
    Rng rng(91);
    theta_m = init_mask_params(target, activation);
    for (auto& v : theta_m) v += rng.uniform(-0.2, 0.2);
    theta_j = init_source_params(make_source(geometry, SourceSpec{}),
                                 activation);
    for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);
  }
};

double rel_err(const RealGrid& got, const RealGrid& want) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return diff / std::max(scale, 1e-300);
}

void expect_matches_engine(StackRig& rig, const char* label) {
  SourceStack stack(rig.engine);
  stack.set_mask(rig.theta_m);
  RealGrid grad;
  const SmoLossValue got = stack.evaluate(rig.theta_j, grad);
  const SmoGradient want =
      rig.engine.evaluate(rig.theta_m, rig.theta_j, {false, true});
  EXPECT_NEAR(got.total, want.loss, 1e-12 * std::abs(want.loss)) << label;
  EXPECT_NEAR(got.l2, want.l2, 1e-12 * std::abs(want.l2)) << label;
  EXPECT_NEAR(got.pvb, want.pvb, 1e-12 * std::abs(want.pvb)) << label;
  EXPECT_LE(rel_err(grad, want.grad_theta_j), 1e-12) << label;
}

TEST(SourceStack, LossAndSourceGradientMatchEngine) {
  StackRig base(32, 8.0, 5);
  expect_matches_engine(base, "32^2 sigmoid");
  StackRig wide(64, 16.0, 7);
  expect_matches_engine(wide, "64^2 16 nm");
  StackRig odd(48, 8.0, 5);
  expect_matches_engine(odd, "48^2 (Bluestein)");
  StackRig defocus(32, 8.0, 5, {}, 60.0);
  expect_matches_engine(defocus, "32^2 defocus");
  ActivationConfig cosine;
  cosine.kind = ActivationKind::kCosine;
  cosine.source_init = 0.3;
  StackRig cos_rig(32, 8.0, 5, cosine);
  expect_matches_engine(cos_rig, "32^2 cosine");
}

TEST(SourceStack, MatchesEngineOnPooledBuild) {
  ThreadPool pool(3);
  StackRig rig(64, 8.0, 9, {}, 0.0, &pool);
  expect_matches_engine(rig, "64^2 pooled");
}

TEST(SourceStack, RebuildsOnlyWhenThetaMChangesBitwise) {
  StackRig rig(32, 8.0, 5);
  SourceStack stack(rig.engine);
  stack.set_mask(rig.theta_m);
  RealGrid copy = rig.theta_m;
  stack.set_mask(copy);
  EXPECT_EQ(stack.builds(), 1);
  copy[7] = std::nextafter(copy[7], 10.0);
  stack.set_mask(copy);
  EXPECT_EQ(stack.builds(), 2);

  // A new theta_M also invalidates the cached per-point state.
  RealGrid moved = rig.theta_m;
  for (std::size_t i = 0; i < moved.size(); i += 3) moved[i] += 0.5;
  RealGrid grad;
  stack.set_mask(moved);
  const double at_moved = stack.evaluate(rig.theta_j, grad).total;
  stack.set_mask(rig.theta_m);
  const double at_base = stack.evaluate(rig.theta_j, grad).total;
  EXPECT_EQ(stack.builds(), 4);
  EXPECT_NEAR(at_moved, rig.engine.loss_only(moved, rig.theta_j).total,
              1e-12 * std::abs(at_moved));
  EXPECT_NEAR(at_base, rig.engine.loss_only(rig.theta_m, rig.theta_j).total,
              1e-12 * std::abs(at_base));
  EXPECT_GT(std::abs(at_moved - at_base), 1e-6 * std::abs(at_base));
}

TEST(SourceStack, StoresHalfTheDoubledBandOnly) {
  StackRig rig(128, 8.0, 9);
  SourceStack stack(rig.engine);
  // Half the doubled pupil disc of radius 2 NA/lambda: pi (2r)^2 / 2 bins.
  const double r = rig.optics.cutoff_bins();
  const double half_disc = M_PI * 4.0 * r * r / 2.0;
  EXPECT_NEAR(static_cast<double>(stack.support_size()), half_disc,
              0.1 * half_disc);
  stack.set_mask(rig.theta_m);
  EXPECT_EQ(stack.stack_bytes(),
            rig.abbe.components() * stack.support_size() * 16);
  // Well under a dense real stack (points x N^2 doubles).
  EXPECT_LT(stack.stack_bytes() * 10, rig.abbe.components() * 128 * 128 * 8);
}

TEST(SourceStack, RejectsMismatchedShapes) {
  StackRig rig(32, 8.0, 5);
  SourceStack stack(rig.engine);
  RealGrid grad;
  EXPECT_THROW(stack.evaluate(rig.theta_j, grad), std::logic_error);
  EXPECT_THROW(stack.set_mask(RealGrid(16, 16, 0.0)), std::invalid_argument);
  stack.set_mask(rig.theta_m);
  EXPECT_THROW(stack.evaluate(RealGrid(3, 3, 0.0), grad),
               std::invalid_argument);
  RealGrid out;
  EXPECT_THROW(stack.hvp(rig.theta_j, RealGrid(3, 3, 0.0), out),
               std::invalid_argument);
}

TEST(SourceStack, SteadyStateIsAllocationFree) {
  using core::AllocGuard;
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  // 64^2 at 8 nm takes the band-conv mixed sweep, 32^2 at 25 nm the
  // field-chain one; both with a pool, so the pooled dispatch is covered.
  ThreadPool pool(2);
  StackRig narrow(64, 8.0, 7, {}, 0.0, &pool);
  StackRig dense(32, 25.0, 5, {}, 0.0, &pool);
  ASSERT_TRUE(sim::adjoint_uses_band_conv(narrow.abbe));
  ASSERT_FALSE(sim::adjoint_uses_band_conv(dense.abbe));
  for (StackRig* rig : {&narrow, &dense}) {
    SourceStack stack(rig->engine);
    stack.set_mask(rig->theta_m);
    RealGrid theta_j = rig->theta_j;
    RealGrid grad;
    RealGrid hv;
    RealGrid mixed;
    RealGrid v(theta_j.rows(), theta_j.cols(), 0.25);
    // Warm-up sizes every buffer and runs each path once.
    stack.evaluate(theta_j, grad);
    stack.hvp(theta_j, v, hv);
    stack.mixed(theta_j, v, mixed);

    AllocGuard guard(AllocGuard::Scope::kGlobal);
    for (int step = 0; step < 3; ++step) {
      stack.set_mask(rig->theta_m);  // bitwise equal: no rebuild
      stack.evaluate(theta_j, grad);
      for (std::size_t i = 0; i < theta_j.size(); ++i) {
        theta_j[i] -= 0.01 * grad[i];
      }
      stack.hvp(theta_j, v, hv);
      stack.hvp(theta_j, grad, hv);
      stack.mixed(theta_j, v, mixed);
    }
    EXPECT_EQ(guard.allocations(), 0u) << rig->optics.mask_dim;
  }
}

}  // namespace
}  // namespace bismo
