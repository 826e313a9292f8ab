#include "grad/loss.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/kernels/kernel.hpp"
#include "math/grid_ops.hpp"

namespace bismo {

SmoLoss evaluate_smo_loss(const RealGrid& intensity, const RealGrid& target,
                          const ResistModel& resist,
                          const LossWeights& weights, const ProcessWindow& pw,
                          bool want_backprop) {
  if (!intensity.same_shape(target)) {
    throw std::invalid_argument("evaluate_smo_loss: shape mismatch");
  }
  SmoLoss out;
  const std::size_t n = intensity.size();
  if (want_backprop) out.dl_di = RealGrid(intensity.rows(), intensity.cols());
  out.z_nominal = RealGrid(intensity.rows(), intensity.cols());

  const double d_min_sq = pw.dose_min * pw.dose_min;
  const double d_max_sq = pw.dose_max * pw.dose_max;

  // Resist activations as vectorized sigmoid passes (the exp-heavy part of
  // the loss), processed in fixed-size blocks: the dose-corner activations
  // live in small stack buffers consumed immediately by the fused
  // loss/gradient arithmetic, so the pass allocates nothing and retains
  // nothing while the kernel calls stay long enough to amortize.  The
  // dose-scaled intensity is staged first so the sigmoid argument
  // beta * (d^2*I - I_tr) is formed exactly as the old fused scalar loop
  // did; block order matches flat element order, so sums are bitwise
  // independent of the block size.
  const fft::FftKernel& kernel = fft::active_kernel();
  kernel.sigmoid(out.z_nominal.data(), intensity.data(), n, resist.beta,
                 resist.threshold);

  constexpr std::size_t kBlock = 2048;
  double z_min[kBlock];
  double z_max[kBlock];
  double scaled[kBlock];

  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_min_sq * intensity[start + i];
    }
    kernel.sigmoid(z_min, scaled, len, resist.beta, resist.threshold);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_max_sq * intensity[start + i];
    }
    kernel.sigmoid(z_max, scaled, len, resist.beta, resist.threshold);

    for (std::size_t i = 0; i < len; ++i) {
      const double t = target[start + i];
      const double z_nom = out.z_nominal[start + i];

      const double diff_nom = z_nom - t;
      const double diff_min = z_min[i] - t;
      const double diff_max = z_max[i] - t;
      out.l2 += diff_nom * diff_nom;
      out.pvb += diff_min * diff_min + diff_max * diff_max;

      if (want_backprop) {
        // dL/dI = (1/Npx) sum_c w_c * 2 * diff_c * beta * Z_c(1-Z_c) * d_c^2.
        double g = weights.gamma * 2.0 * diff_nom * resist.beta * z_nom *
                   (1.0 - z_nom);
        g += weights.eta * 2.0 * diff_min * resist.beta * z_min[i] *
             (1.0 - z_min[i]) * d_min_sq;
        g += weights.eta * 2.0 * diff_max * resist.beta * z_max[i] *
             (1.0 - z_max[i]) * d_max_sq;
        out.dl_di[start + i] = g * inv_n;
      }
    }
  }
  out.l2 *= inv_n;
  out.pvb *= inv_n;
  out.total = weights.gamma * out.l2 + weights.eta * out.pvb;
  return out;
}

SmoLossValue evaluate_smo_loss_curvature(const RealGrid& intensity,
                                         const RealGrid& target,
                                         const ResistModel& resist,
                                         const LossWeights& weights,
                                         const ProcessWindow& pw,
                                         RealGrid& dl_di, RealGrid& d2l_di2) {
  if (!intensity.same_shape(target)) {
    throw std::invalid_argument("evaluate_smo_loss_curvature: shape mismatch");
  }
  if (!dl_di.same_shape(intensity)) {
    dl_di.resize(intensity.rows(), intensity.cols());
  }
  if (!d2l_di2.same_shape(intensity)) {
    d2l_di2.resize(intensity.rows(), intensity.cols());
  }
  SmoLossValue out;
  const std::size_t n = intensity.size();
  const double d_nom_sq = 1.0;
  const double d_min_sq = pw.dose_min * pw.dose_min;
  const double d_max_sq = pw.dose_max * pw.dose_max;
  const double beta = resist.beta;

  // bismo-lint: no-alloc-begin
  // Same block structure as evaluate_smo_loss, with the nominal corner
  // also staged per block so the pass needs no full-size resist image.
  const fft::FftKernel& kernel = fft::active_kernel();
  constexpr std::size_t kBlock = 2048;
  double z_nom[kBlock];
  double z_min[kBlock];
  double z_max[kBlock];
  double scaled[kBlock];

  // One corner's (dL/dI, d2L/dI2) contributions before the 1/Npx factor.
  const auto corner = [beta](double w, double d_sq, double z, double t,
                             double& g, double& h) {
    const double diff = z - t;
    const double s = z * (1.0 - z);
    g += w * 2.0 * diff * beta * z * (1.0 - z) * d_sq;
    h += w * 2.0 * beta * beta * d_sq * d_sq * s *
         (s + diff * (1.0 - 2.0 * z));
  };

  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t len = std::min(kBlock, n - start);
    kernel.sigmoid(z_nom, intensity.data() + start, len, beta,
                   resist.threshold);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_min_sq * intensity[start + i];
    }
    kernel.sigmoid(z_min, scaled, len, beta, resist.threshold);
    for (std::size_t i = 0; i < len; ++i) {
      scaled[i] = d_max_sq * intensity[start + i];
    }
    kernel.sigmoid(z_max, scaled, len, beta, resist.threshold);

    for (std::size_t i = 0; i < len; ++i) {
      const double t = target[start + i];
      const double diff_nom = z_nom[i] - t;
      const double diff_min = z_min[i] - t;
      const double diff_max = z_max[i] - t;
      out.l2 += diff_nom * diff_nom;
      out.pvb += diff_min * diff_min + diff_max * diff_max;

      double g = 0.0;
      double h = 0.0;
      corner(weights.gamma, d_nom_sq, z_nom[i], t, g, h);
      corner(weights.eta, d_min_sq, z_min[i], t, g, h);
      corner(weights.eta, d_max_sq, z_max[i], t, g, h);
      dl_di[start + i] = g * inv_n;
      d2l_di2[start + i] = h * inv_n;
    }
  }
  // bismo-lint: no-alloc-end
  out.l2 *= inv_n;
  out.pvb *= inv_n;
  out.total = weights.gamma * out.l2 + weights.eta * out.pvb;
  return out;
}

}  // namespace bismo
