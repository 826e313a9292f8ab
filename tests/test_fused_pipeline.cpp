// Fused imaging-pipeline tests (src/sim/pipeline.hpp + the
// `pow2_cols_fused` kernel entry).  The staged per-stage sequence the
// fused chains replaced lives on here, and only here, as the oracle:
//
//   * the fused column pass (gather + transform + scale + |.|^2 epilogues
//     in one kernel chain) agrees with the staged per-stage sequence to
//     <= 1e-12 on every available backend, across square, rectangular,
//     seeded-adjoint, and row-sparse configurations;
//   * non-power-of-two (Bluestein) and sub-8 shapes take the exact staged
//     fallback inside the same entry point (bitwise equal to the staged
//     sequence);
//   * the production forward and adjoint chains agree with the staged
//     oracle to <= 1e-12 at 64x64 and bitwise at 48x48, and the pooled
//     `sim::adjoint_pass` matches a dense reference on both of its
//     branches (band-restricted direct adjoint and field capture);
//   * the engine stack is bitwise deterministic across thread counts and
//     repeated runs;
//   * gradcheck passes through the fused adjoint chain (mask + source
//     gradients for Abbe, mask for Hopkins sharing workspaces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "fft/kernels/plan.hpp"
#include "grad/abbe_grad.hpp"
#include "gradcheck.hpp"
#include "grad/hopkins_grad.hpp"
#include "litho/abbe.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/imaging_model.hpp"
#include "sim/pipeline.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using testing::max_diff;
using testing::random_complex_grid;

/// Restore the FFT backend on scope exit: the backend-sweeping tests
/// switch it, and sibling suites assume the default.
class BackendGuard {
 public:
  BackendGuard() : backend_(fft::backend_name()) {}
  ~BackendGuard() { fft::set_backend(backend_); }

 private:
  std::string backend_;
};

OpticsConfig small_optics(std::size_t dim = 64) {
  OpticsConfig o;
  o.mask_dim = dim;
  o.pixel_nm = 8.0;
  return o;
}

RealGrid cross_target(std::size_t n) {
  RealGrid t(n, n, 0.0);
  for (std::size_t r = n / 2 - 3; r < n / 2 + 3; ++r) {
    for (std::size_t c = n / 4; c < 3 * n / 4; ++c) t(r, c) = 1.0;
  }
  for (std::size_t r = n / 4; r < 3 * n / 4; ++r) {
    for (std::size_t c = n / 2 - 3; c < n / 2 + 3; ++c) t(r, c) = 1.0;
  }
  return t;
}

RealGrid random_real_grid(Rng& rng, std::size_t rows, std::size_t cols) {
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform(-1.0, 1.0);
  return g;
}

/// Staged reference of the fused column pass: materialize the (flagged,
/// optionally seeded) input into `dst`, run the per-stage ops in the
/// documented order, and return the weighted-norm reduction (0 when off).
double staged_cols_reference(const Fft2dPlan& plan,
                             const fft_detail::ColsFusion& fusion,
                             ComplexGrid& dst, bool inverse,
                             std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t cols = dst.cols();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    std::complex<double>* row = dst.data() + r * cols;
    const std::complex<double>* src = fusion.src + r * cols;
    if (fusion.row_nonzero != nullptr && fusion.row_nonzero[r] == 0) {
      std::fill_n(row, cols, std::complex<double>{});
    } else if (fusion.seed != nullptr) {
      kernel.seed_cotangent(row, fusion.seed + r * cols, src, cols,
                            fusion.seed_scale);
    } else {
      std::copy(src, src + cols, row);
    }
  }
  plan.transform_cols(dst, inverse, scratch);
  if (fusion.scale != 1.0) kernel.scale(dst.data(), dst.size(), fusion.scale);
  if (fusion.norm_acc != nullptr) {
    kernel.accumulate_norm(fusion.norm_acc, dst.data(), dst.size(),
                           fusion.norm_weight);
  }
  if (fusion.wns_weights != nullptr) {
    return kernel.weighted_norm_sum(fusion.wns_weights, dst.data(),
                                    dst.size());
  }
  if (fusion.seed != nullptr && fusion.wns_out != nullptr) {
    // Seeded input reduction: sum seed * |src|^2 over the logical input.
    double acc = 0.0;
    for (std::size_t r = 0; r < dst.rows(); ++r) {
      if (fusion.row_nonzero != nullptr && fusion.row_nonzero[r] == 0) {
        continue;
      }
      acc += kernel.weighted_norm_sum(fusion.seed + r * cols,
                                      fusion.src + r * cols, cols);
    }
    return acc;
  }
  return 0.0;
}

/// Staged oracle of the production forward chain (ImagingPipeline::
/// forward): field = (1/N) IFFT2(band .* o) stage by stage -- gather into
/// a zeroed grid, band-row pass, column pass, scale -- then the separate
/// epilogue ops.  Returns the weighted-norm reduction (0 when off).
double staged_forward_reference(const Fft2dPlan& plan, const ComplexGrid& o,
                                const sim::BandRef& band, ComplexGrid& field,
                                RealGrid* acc, double acc_weight,
                                const double* wns_weights,
                                std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = field.cols();
  field.fill(std::complex<double>{});
  sim::for_each_index_run(
      band.bins, band.nbins,
      [&](std::size_t k, std::uint32_t start, std::size_t len) {
        if (band.vals != nullptr) {
          kernel.cmul(field.data() + start, o.data() + start, band.vals + k,
                      len);
        } else {
          std::copy(o.data() + start, o.data() + start + len,
                    field.data() + start);
        }
      });
  sim::for_each_index_run(
      band.rows, band.nrows,
      [&](std::size_t, std::uint32_t row, std::size_t count) {
        plan.transform_rows(field.data() + std::size_t{row} * n, count,
                            /*inverse=*/true, scratch);
      });
  plan.transform_cols(field, /*inverse=*/true, scratch);
  kernel.scale(field.data(), field.size(),
               1.0 / static_cast<double>(field.size()));
  if (acc != nullptr) {
    kernel.accumulate_norm(acc->data(), field.data(), field.size(),
                           acc_weight);
  }
  return wns_weights != nullptr
             ? kernel.weighted_norm_sum(wns_weights, field.data(),
                                        field.size())
             : 0.0;
}

/// Staged oracle of the production adjoint chain (ImagingPipeline::
/// adjoint): materialize the cotangent seed scale * dldi .* field, column
/// pass, band-row pass, then the scatter-accumulate
/// go[bins] += conj(band) .* cotangent / N.  Returns sum dldi * |field|^2.
double staged_adjoint_reference(const Fft2dPlan& plan, const double* dldi,
                                double scale, const ComplexGrid& field,
                                const sim::BandRef& band, ComplexGrid& go,
                                std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = field.cols();
  const double wns = kernel.weighted_norm_sum(dldi, field.data(),
                                              field.size());
  ComplexGrid cotangent(field.rows(), field.cols());
  kernel.seed_cotangent(cotangent.data(), dldi, field.data(), field.size(),
                        scale);
  plan.transform_cols(cotangent, /*inverse=*/false, scratch);
  sim::for_each_index_run(
      band.rows, band.nrows,
      [&](std::size_t, std::uint32_t row, std::size_t count) {
        plan.transform_rows(cotangent.data() + std::size_t{row} * n, count,
                            /*inverse=*/false, scratch);
      });
  const double inv_n = 1.0 / static_cast<double>(cotangent.size());
  sim::for_each_index_run(
      band.bins, band.nbins,
      [&](std::size_t k, std::uint32_t start, std::size_t len) {
        if (band.vals != nullptr) {
          kernel.cmul_conj_axpy(go.data() + start, cotangent.data() + start,
                                band.vals + k, len, inv_n);
        } else {
          kernel.caxpy(go.data() + start, cotangent.data() + start, len,
                       inv_n);
        }
      });
  return wns;
}

// ---- Fused column pass vs staged ops, per backend ---------------------------

TEST(FusedColsPass, MatchesStagedAcrossBackendsAndShapes) {
  BackendGuard guard;
  const struct {
    std::size_t rows, cols;
  } shapes[] = {{8, 8}, {16, 8}, {32, 16}, {64, 64}};

  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (const auto& shape : shapes) {
      Rng rng(17 * shape.rows + shape.cols);
      const ComplexGrid src =
          random_complex_grid(rng, shape.rows, shape.cols);
      // Flag roughly half the rows zero (the fused gather must emit exact
      // zeros for them without reading the source).
      std::vector<std::uint8_t> flags(shape.rows);
      for (auto& f : flags) f = rng.uniform(0.0, 1.0) < 0.5 ? 1 : 0;
      flags[0] = 1;  // keep at least one live row

      const Fft2dPlan plan(shape.rows, shape.cols);
      ASSERT_TRUE(plan.fused_cols());
      std::vector<std::complex<double>> scratch(plan.scratch_size());

      for (bool inverse : {false, true}) {
        fft_detail::ColsFusion fusion;
        fusion.src = src.data();
        fusion.row_nonzero = flags.data();
        fusion.scale = 1.0 / static_cast<double>(src.size());
        RealGrid acc_fused(shape.rows, shape.cols, 0.25);
        RealGrid acc_staged = acc_fused;
        fusion.norm_weight = 0.75;

        ComplexGrid fused(shape.rows, shape.cols);
        fusion.norm_acc = acc_fused.data();
        plan.transform_cols_fused(fusion, fused, inverse, scratch.data());

        ComplexGrid staged(shape.rows, shape.cols);
        fusion.norm_acc = acc_staged.data();
        staged_cols_reference(plan, fusion, staged, inverse, scratch.data());

        EXPECT_LE(max_diff(fused, staged), 1e-12)
            << backend << " " << shape.rows << "x" << shape.cols
            << " inverse=" << inverse;
        EXPECT_LE(max_diff(acc_fused, acc_staged), 1e-12)
            << backend << " norm epilogue " << shape.rows << "x"
            << shape.cols;
      }
    }
  }
}

TEST(FusedColsPass, SeededAdjointAndWnsMatchStagedAcrossBackends) {
  BackendGuard guard;
  for (const std::string& backend : fft::available_backends()) {
    ASSERT_TRUE(fft::set_backend(backend));
    for (std::size_t n : {8u, 16u, 64u}) {
      Rng rng(23 + n);
      const ComplexGrid field = random_complex_grid(rng, n, n);
      const RealGrid dldi = random_real_grid(rng, n, n);
      const RealGrid wns_w = random_real_grid(rng, n, n);
      const Fft2dPlan plan(n, n);
      std::vector<std::complex<double>> scratch(plan.scratch_size());

      // Seeded forward-adjoint pass (cotangent seed folded into the
      // gather), with the input-side wns reduction riding on the same
      // loads: *wns_out = sum dldi * |field|^2, unscaled by seed_scale.
      fft_detail::ColsFusion fusion;
      fusion.src = field.data();
      fusion.seed = dldi.data();
      fusion.seed_scale = 1.75;
      double seed_wns_fused = -1.0;
      fusion.wns_out = &seed_wns_fused;
      ComplexGrid fused(n, n);
      plan.transform_cols_fused(fusion, fused, /*inverse=*/false,
                                scratch.data());
      ComplexGrid staged(n, n);
      const double seed_wns_staged = staged_cols_reference(
          plan, fusion, staged, /*inverse=*/false, scratch.data());
      EXPECT_LE(max_diff(fused, staged), 1e-12) << backend << " seed n=" << n;
      EXPECT_NEAR(seed_wns_fused, seed_wns_staged,
                  1e-12 * std::max(1.0, std::abs(seed_wns_staged)))
          << backend << " seeded wns n=" << n;

      // Weighted-norm-sum epilogue (the fused source-gradient reduction).
      fft_detail::ColsFusion wns_fusion;
      wns_fusion.src = field.data();
      wns_fusion.scale = 1.0 / static_cast<double>(field.size());
      wns_fusion.wns_weights = wns_w.data();
      double wns_fused = -1.0;
      wns_fusion.wns_out = &wns_fused;
      ComplexGrid out(n, n);
      plan.transform_cols_fused(wns_fusion, out, /*inverse=*/true,
                                scratch.data());
      ComplexGrid out_ref(n, n);
      const double wns_staged = staged_cols_reference(
          plan, wns_fusion, out_ref, /*inverse=*/true, scratch.data());
      const double tol = 1e-12 * std::max(1.0, std::abs(wns_staged));
      EXPECT_NEAR(wns_fused, wns_staged, tol) << backend << " wns n=" << n;
    }
  }
}

TEST(FusedColsPass, BluesteinAndTinyShapesTakeExactStagedFallback) {
  // Shapes without fused kernels (non-pow2 rows, rows < 8) run the staged
  // sequence inside transform_cols_fused -- bitwise, not approximately.
  for (std::size_t rows : {4u, 12u, 48u}) {
    Rng rng(31 + rows);
    const std::size_t cols = 16;
    const ComplexGrid src = random_complex_grid(rng, rows, cols);
    const Fft2dPlan plan(rows, cols);
    EXPECT_FALSE(plan.fused_cols()) << rows;
    std::vector<std::complex<double>> scratch(plan.scratch_size());

    fft_detail::ColsFusion fusion;
    fusion.src = src.data();
    fusion.scale = 0.5;
    RealGrid acc_a(rows, cols, 0.0);
    RealGrid acc_b(rows, cols, 0.0);
    fusion.norm_weight = 2.0;

    ComplexGrid a(rows, cols);
    fusion.norm_acc = acc_a.data();
    plan.transform_cols_fused(fusion, a, /*inverse=*/true, scratch.data());
    ComplexGrid b(rows, cols);
    fusion.norm_acc = acc_b.data();
    staged_cols_reference(plan, fusion, b, /*inverse=*/true, scratch.data());

    EXPECT_EQ(a, b) << "rows=" << rows;
    EXPECT_EQ(acc_a, acc_b) << "rows=" << rows;
  }
}

// ---- Production chains vs the staged oracle ---------------------------------

TEST(FusedPipeline, ForwardFieldMatchesStagedReference) {
  // 64 runs the fused column kernels (<= 1e-12 against the oracle); 48 is
  // not a power of two, so transform_cols_fused takes its staged fallback
  // and the production chain must equal the oracle bitwise.
  for (std::size_t n : {64u, 48u}) {
    const OpticsConfig optics = small_optics(n);
    const SourceGeometry geometry(7, optics);
    const AbbeImaging abbe(optics, geometry);
    Rng rng(41 + n);
    const ComplexGrid o = random_complex_grid(rng, n, n);
    const RealGrid weights = random_real_grid(rng, n, n);
    const Fft2dPlan plan(n, n);
    std::vector<std::complex<double>> scratch(plan.scratch_size());
    sim::SimWorkspace ws;
    ws.ensure(n);
    const bool exact = n == 48;

    for (std::size_t c = 0; c < abbe.components(); c += 5) {
      const sim::BandRef band = abbe.component_band(c);
      ComplexGrid ref(n, n);

      // Intensity epilogue (the aerial pass).
      RealGrid acc(n, n, 0.25);
      RealGrid acc_ref = acc;
      ws.forward_field(o, band, &acc, 0.5, nullptr);
      staged_forward_reference(plan, o, band, ref, &acc_ref, 0.5, nullptr,
                               scratch.data());
      // Weighted-norm epilogue (the source-gradient reduction).
      ComplexGrid wns_field(n, n);
      const double wns = ws.forward_field(o, band, nullptr, 0.0,
                                          weights.data(), &wns_field);
      ComplexGrid wns_ref_field(n, n);
      const double wns_ref =
          staged_forward_reference(plan, o, band, wns_ref_field, nullptr, 0.0,
                                   weights.data(), scratch.data());

      if (exact) {
        EXPECT_EQ(ws.field(), ref) << n << " component " << c;
        EXPECT_EQ(acc, acc_ref) << n << " component " << c;
        EXPECT_EQ(wns_field, wns_ref_field) << n << " component " << c;
        EXPECT_EQ(wns, wns_ref) << n << " component " << c;
      } else {
        EXPECT_LE(max_diff(ws.field(), ref), 1e-12) << n << " component " << c;
        EXPECT_LE(max_diff(acc, acc_ref), 1e-12) << n << " component " << c;
        EXPECT_LE(max_diff(wns_field, wns_ref_field), 1e-12)
            << n << " component " << c;
        EXPECT_NEAR(wns, wns_ref, 1e-12 * std::max(1.0, std::abs(wns_ref)))
            << n << " component " << c;
      }
    }
  }
}

TEST(FusedPipeline, BluesteinGridFallsBackIdenticallyInBothModes) {
  // 48 is not a power of two: both directions of the production chain --
  // the forward field and the seeded adjoint -- take the staged fallback
  // inside transform_cols_fused and must equal the oracle bitwise.
  const std::size_t n = 48;
  const OpticsConfig optics = small_optics(n);
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  Rng rng(61);
  const ComplexGrid o = random_complex_grid(rng, n, n);
  const RealGrid dldi = random_real_grid(rng, n, n);
  const Fft2dPlan plan(n, n);
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  sim::SimWorkspace ws;
  ws.ensure(n);

  ComplexGrid go(n, n);
  ComplexGrid go_ref(n, n);
  for (std::size_t c = 0; c < abbe.components(); c += 3) {
    const sim::BandRef band = abbe.component_band(c);
    ComplexGrid field(n, n);
    staged_forward_reference(plan, o, band, field, nullptr, 0.0, nullptr,
                             scratch.data());
    ws.forward_field(o, band, nullptr, 0.0, nullptr);
    ASSERT_EQ(ws.field(), field) << "component " << c;

    const double scale = 0.5 + 0.01 * static_cast<double>(c);
    const double wns = ws.adjoint_seed_accumulate(field, dldi.data(), scale,
                                                  band, go, /*want_wns=*/true);
    const double wns_ref = staged_adjoint_reference(
        plan, dldi.data(), scale, field, band, go_ref, scratch.data());
    EXPECT_EQ(wns, wns_ref) << "component " << c;
    EXPECT_EQ(go, go_ref) << "component " << c;
  }
}

/// Dense reference of `sim::adjoint_pass`: per item, the full-grid field
/// (1/N) IFFT2(band .* o), then go[bins] += conj(band) .* FFT2(scale *
/// dldi .* field) / N at the band bins and wns = sum dldi * |field|^2 --
/// no row skipping, no fused loads, no band convolution.
ComplexGrid dense_adjoint_reference(const sim::ImagingModel& model,
                                    const ComplexGrid& o,
                                    const RealGrid& dldi,
                                    const std::vector<sim::AdjointItem>& items,
                                    std::vector<double>& wns) {
  const std::size_t n = model.grid_dim();
  const double inv_n = 1.0 / static_cast<double>(n * n);
  ComplexGrid go(n, n);
  wns.assign(items.size(), 0.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const sim::BandRef band = model.component_band(items[k].component);
    ComplexGrid field(n, n);
    for (std::size_t i = 0; i < band.nbins; ++i) {
      const std::uint32_t bin = band.bins[i];
      field.data()[bin] =
          band.vals != nullptr ? o.data()[bin] * band.vals[i] : o.data()[bin];
    }
    ifft2(field);
    ComplexGrid seed(n, n);
    for (std::size_t i = 0; i < field.size(); ++i) {
      wns[k] += dldi.data()[i] * std::norm(field.data()[i]);
      seed.data()[i] = items[k].scale * dldi.data()[i] * field.data()[i];
    }
    if (!items[k].mask) continue;
    fft2(seed);
    for (std::size_t i = 0; i < band.nbins; ++i) {
      const std::uint32_t bin = band.bins[i];
      const std::complex<double> v =
          band.vals != nullptr ? std::conj(band.vals[i])
                               : std::complex<double>{1.0, 0.0};
      go.data()[bin] += v * seed.data()[bin] * inv_n;
    }
  }
  return go;
}

/// Run `adjoint_pass` over every component of `model` (a mix of mask and
/// source-only items) and compare it with the dense reference; with
/// `capture`, the fields come from an armed FieldCaptureScope filled by
/// `accumulate_intensity`, otherwise the pass recomputes them.
void expect_adjoint_pass_matches_dense(const sim::ImagingModel& model,
                                       bool capture, const char* what) {
  const std::size_t n = model.grid_dim();
  Rng rng(101 + n);
  const ComplexGrid o = random_complex_grid(rng, n, n);
  const RealGrid dldi = random_real_grid(rng, n, n);
  std::vector<sim::AdjointItem> items(model.components());
  std::vector<std::uint32_t> comps(items.size());
  std::vector<double> weights(items.size(), 1.0);
  for (std::size_t k = 0; k < items.size(); ++k) {
    items[k].component = static_cast<std::uint32_t>(k);
    items[k].scale = 0.5 + 0.125 * static_cast<double>(k % 7);
    items[k].mask = k % 3 != 0;
    comps[k] = static_cast<std::uint32_t>(k);
  }

  std::vector<double> wns;
  ComplexGrid go;
  {
    sim::FieldCaptureScope scope(model.workspaces(), items.size(), capture);
    if (capture) sim::accumulate_intensity(model, o, comps, weights);
    go = sim::adjoint_pass(model, o, dldi, items, &wns);
  }
  std::vector<double> wns_ref;
  const ComplexGrid go_ref = dense_adjoint_reference(model, o, dldi, items,
                                                     wns_ref);
  EXPECT_LE(max_diff(go, go_ref), 1e-10) << what;
  ASSERT_EQ(wns.size(), wns_ref.size()) << what;
  for (std::size_t k = 0; k < wns.size(); ++k) {
    EXPECT_NEAR(wns[k], wns_ref[k], 1e-10) << what << " item " << k;
  }
}

TEST(FusedPipeline, AdjointPassMatchesDenseReference) {
  // Band-conv branch: Abbe source-point bands at 64x64 are narrow.
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  ASSERT_TRUE(sim::adjoint_uses_band_conv(abbe));
  expect_adjoint_pass_matches_dense(abbe, /*capture=*/false, "abbe 64");

  // Field-capture branch, power-of-two grid: the SOCS kernels span the
  // whole partially coherent band, too wide for the direct convolution.
  const SocsDecomposition socs(abbe, make_source(geometry, SourceSpec{}), 6);
  const HopkinsImaging hopkins(optics, socs);
  ASSERT_FALSE(sim::adjoint_uses_band_conv(hopkins));
  expect_adjoint_pass_matches_dense(hopkins, /*capture=*/true,
                                    "hopkins 64 captured");
  expect_adjoint_pass_matches_dense(hopkins, /*capture=*/false,
                                    "hopkins 64 recomputed");

  // Field-capture branch on the Bluestein fallback grid.
  const OpticsConfig optics48 = small_optics(48);
  const SourceGeometry geometry48(7, optics48);
  const AbbeImaging abbe48(optics48, geometry48);
  ASSERT_FALSE(sim::adjoint_uses_band_conv(abbe48));
  expect_adjoint_pass_matches_dense(abbe48, /*capture=*/true,
                                    "abbe 48 captured");
}

// ---- Determinism ------------------------------------------------------------

TEST(FusedPipeline, FusedModeBitwiseDeterministicAcrossThreadCounts) {
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const RealGrid target = cross_target(64);
  Rng rng(71);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  RealGrid theta_j =
      init_source_params(make_source(geometry, SourceSpec{}), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  const AbbeImaging serial(optics, geometry, nullptr);
  const AbbeGradientEngine serial_engine(serial, target);
  const SmoGradient reference =
      serial_engine.evaluate(theta_m, theta_j, GradRequest{});
  // Run-to-run repeatability on one engine (fixed backend + mode).
  const SmoGradient repeat =
      serial_engine.evaluate(theta_m, theta_j, GradRequest{});
  EXPECT_EQ(reference.grad_theta_m, repeat.grad_theta_m);
  EXPECT_EQ(reference.grad_theta_j, repeat.grad_theta_j);

  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const AbbeImaging pooled(optics, geometry, &pool);
    const AbbeGradientEngine engine(pooled, target);
    const SmoGradient got = engine.evaluate(theta_m, theta_j, GradRequest{});
    EXPECT_EQ(reference.loss, got.loss) << threads << " threads";
    EXPECT_EQ(reference.grad_theta_m, got.grad_theta_m)
        << threads << " threads";
    EXPECT_EQ(reference.grad_theta_j, got.grad_theta_j)
        << threads << " threads";
  }
}

// ---- Gradcheck through the fused adjoint ------------------------------------

TEST(FusedPipeline, GradcheckThroughFusedAdjointAbbe) {
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry, &pool);
  const RealGrid target = cross_target(64);
  const AbbeGradientEngine engine(abbe, target);

  Rng rng(81);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);
  RealGrid theta_j =
      init_source_params(make_source(geometry, SourceSpec{}), {});
  for (auto& v : theta_j) v += rng.uniform(-0.5, 0.5);

  const SmoGradient g = engine.evaluate(theta_m, theta_j, GradRequest{});
  auto loss_m = [&](const RealGrid& tm) {
    return engine.loss_only(tm, theta_j).total;
  };
  const GradCheckResult rm =
      check_gradient(loss_m, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(rm.max_rel_error, 1e-3);

  auto loss_j = [&](const RealGrid& tj) {
    return engine.loss_only(theta_m, tj).total;
  };
  const GradCheckResult rj =
      check_gradient(loss_j, theta_j, g.grad_theta_j, rng, 16, 1e-4);
  EXPECT_LT(rj.max_rel_error, 1e-3);
}

TEST(FusedPipeline, GradcheckThroughFusedAdjointHopkins) {
  ThreadPool pool(4);
  const OpticsConfig optics = small_optics();
  const SourceGeometry geometry(7, optics);
  const auto workspaces = std::make_shared<sim::WorkspaceSet>();
  const AbbeImaging abbe(optics, geometry, &pool, workspaces);
  const RealGrid source = make_source(geometry, SourceSpec{});
  const SocsDecomposition socs(abbe, source, 12);
  const HopkinsImaging hopkins(optics, socs, &pool, workspaces);
  const RealGrid target = cross_target(64);
  const HopkinsGradientEngine engine(hopkins, target);

  Rng rng(91);
  RealGrid theta_m = init_mask_params(target, {});
  for (auto& v : theta_m) v += rng.uniform(-0.3, 0.3);

  const SmoGradient g = engine.evaluate(theta_m);
  auto loss_fn = [&](const RealGrid& tm) {
    return engine.loss_only(tm).total;
  };
  const GradCheckResult r =
      check_gradient(loss_fn, theta_m, g.grad_theta_m, rng, 16, 1e-4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

}  // namespace
}  // namespace bismo
