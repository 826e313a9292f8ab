// Hand-derived reverse-mode gradients of the Abbe-based SMO loss
// (paper Sec. 3.1-3.2) with respect to both parameter grids.
//
// Forward chain (per Table 1, Eqs. 2, 6-9):
//   theta_M --sigmoid--> M --FFT--> O --per-point pass-band + IFFT--> A_sigma
//   theta_J --sigmoid--> J;   S = sum_sigma j_sigma |A_sigma|^2;  W = sum j
//   I = S / W;   I_c = d_c^2 I;   Z_c = sigmoid(beta (I_c - I_tr));  Lsmo.
//
// Reverse chain (Wirtinger calculus through the FFTs):
//   dL/dS      = dL/dI / W
//   dL/dj_s    = sum_xy dL/dI * (|A_s|^2 - I) / W          (normalization!)
//   g_{A_s}    = 2 (j_s / W) * dL/dI .* A_s                (dL/d conj(A))
//   g_{B_s}    = ifft2_adjoint(g_{A_s})                    (B_s = H_s .* O)
//   g_O       += conj(H_s) .* g_{B_s}   restricted to the pass-band
//   g_M        = Re(fft2_adjoint(g_O));  g_theta = activation chain rule.
//
// Source gradients are accumulated over *all* valid sigma points (a point
// with j ~ 0 still needs |A_sigma|^2 so SO can revive it); mask gradients
// skip points whose weight is below `source_cutoff` since their
// contribution is proportional to j_sigma.
#ifndef BISMO_GRAD_ABBE_GRAD_HPP
#define BISMO_GRAD_ABBE_GRAD_HPP

#include "grad/loss.hpp"
#include "litho/abbe.hpp"
#include "litho/activation.hpp"
#include "litho/resist.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Loss value plus requested parameter gradients.
struct SmoGradient {
  double loss = 0.0;      ///< Lsmo = gamma*L2 + eta*Lpvb
  double l2 = 0.0;        ///< unweighted nominal term
  double pvb = 0.0;       ///< unweighted PVB term
  RealGrid grad_theta_m;  ///< dL/dtheta_M (empty when not requested)
  RealGrid grad_theta_j;  ///< dL/dtheta_J (empty when not requested)
};

/// Which gradients a call should produce.
struct GradRequest {
  bool mask = true;
  bool source = true;
};

/// Differentiable Abbe-based SMO objective: forward evaluation and manual
/// adjoint gradients.  Immutable and thread-compatible (evaluations are
/// internally parallel over source points via the engine's pool).
class AbbeGradientEngine {
 public:
  /// `abbe` is borrowed and must outlive the engine.
  AbbeGradientEngine(const AbbeImaging& abbe, const RealGrid& target,
                     ResistModel resist = {}, ActivationConfig activation = {},
                     LossWeights weights = {}, ProcessWindow pw = {},
                     double source_cutoff = 1e-9);

  /// Loss and gradients at (theta_M, theta_J).
  SmoGradient evaluate(const RealGrid& theta_m, const RealGrid& theta_j,
                       const GradRequest& request = {}) const;

  /// Loss only (no gradients; cheaper backward pass skipped entirely).
  SmoLoss loss_only(const RealGrid& theta_m, const RealGrid& theta_j) const;

  /// Normalized aerial intensity for the given parameters (for metrics and
  /// visualization; applies activations internally).
  RealGrid aerial(const RealGrid& theta_m, const RealGrid& theta_j) const;

  const AbbeImaging& abbe() const noexcept { return *abbe_; }
  const RealGrid& target() const noexcept { return target_; }
  const ResistModel& resist() const noexcept { return resist_; }
  const ActivationConfig& activation() const noexcept { return activation_; }
  const LossWeights& weights() const noexcept { return weights_; }
  const ProcessWindow& process_window() const noexcept { return pw_; }
  /// Source weights at or below this are left out of the forward image.
  double source_cutoff() const noexcept { return source_cutoff_; }

 private:
  const AbbeImaging* abbe_;
  RealGrid target_;
  ResistModel resist_;
  ActivationConfig activation_;
  LossWeights weights_;
  ProcessWindow pw_;
  double source_cutoff_;
};

}  // namespace bismo

#endif  // BISMO_GRAD_ABBE_GRAD_HPP
