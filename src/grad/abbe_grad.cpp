#include "grad/abbe_grad.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fft/fft.hpp"
#include "math/grid_ops.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {

AbbeGradientEngine::AbbeGradientEngine(const AbbeImaging& abbe,
                                       const RealGrid& target,
                                       ResistModel resist,
                                       ActivationConfig activation,
                                       LossWeights weights, ProcessWindow pw,
                                       double source_cutoff)
    : abbe_(&abbe),
      target_(target),
      resist_(resist),
      activation_(activation),
      weights_(weights),
      pw_(pw),
      source_cutoff_(source_cutoff) {
  const std::size_t n = abbe.optics().mask_dim;
  if (target_.rows() != n || target_.cols() != n) {
    throw std::invalid_argument("AbbeGradientEngine: target shape mismatch");
  }
}

RealGrid AbbeGradientEngine::aerial(const RealGrid& theta_m,
                                    const RealGrid& theta_j) const {
  const RealGrid mask = activate_mask(theta_m, activation_);
  const RealGrid source =
      activate_source(theta_j, abbe_->geometry(), activation_);
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return abbe_->aerial(o, source, source_cutoff_).intensity;
}

SmoLoss AbbeGradientEngine::loss_only(const RealGrid& theta_m,
                                      const RealGrid& theta_j) const {
  return evaluate_smo_loss(aerial(theta_m, theta_j), target_, resist_,
                           weights_, pw_, /*want_backprop=*/false);
}

SmoGradient AbbeGradientEngine::evaluate(const RealGrid& theta_m,
                                         const RealGrid& theta_j,
                                         const GradRequest& request) const {
  const SourceGeometry& geometry = abbe_->geometry();
  const auto& pts = geometry.points();
  const std::size_t n = abbe_->optics().mask_dim;

  const RealGrid mask = activate_mask(theta_m, activation_);
  const RealGrid source = activate_source(theta_j, geometry, activation_);

  ComplexGrid o = to_complex(mask);
  fft2(o);

  // When gradients are requested, capture each component's coherent field
  // during the forward intensity pass so the backward sweep seeds its
  // adjoints from the cache instead of recomputing every transform.
  // With narrow pass-bands the backward sweep runs the band-restricted
  // direct adjoint and needs no fields, so capture stays disarmed.
  const bool want_backprop = request.mask || request.source;
  sim::FieldCaptureScope capture(
      abbe_->workspaces(), abbe_->components(),
      want_backprop && !sim::adjoint_uses_band_conv(*abbe_));

  const AbbeAerial fwd = abbe_->aerial(o, source, source_cutoff_);
  const double w_total = fwd.total_weight;
  if (w_total <= 0.0) {
    throw std::runtime_error("AbbeGradientEngine: source has no power");
  }

  const SmoLoss loss = evaluate_smo_loss(fwd.intensity, target_, resist_,
                                         weights_, pw_, want_backprop);

  SmoGradient out;
  out.loss = loss.total;
  out.l2 = loss.l2;
  out.pvb = loss.pvb;
  if (!want_backprop) return out;

  const RealGrid& dldi = loss.dl_di;

  // Backward sweep: one adjoint chain per needed source point, run through
  // the unified engine layer (sim::adjoint_pass) over the per-slot
  // workspaces -- allocation- and lock-free in steady state, statically
  // partitioned for determinism, seeded from the captured forward fields.
  //
  // Mask gradients only need points that contribute to the image; the
  // source gradient needs |A|^2 even where j ~ 0 (to revive points), so
  // the item list covers every point either path requires.
  const std::size_t npts = pts.size();
  std::vector<double> gj_raw(request.source ? npts : 0, 0.0);
  std::vector<sim::AdjointItem> items;
  items.reserve(npts);
  for (std::size_t k = 0; k < npts; ++k) {
    const double jw = source(pts[k].row, pts[k].col);
    const bool mask_path = request.mask && jw > source_cutoff_;
    if (!mask_path && !request.source) continue;
    sim::AdjointItem item;
    item.component = static_cast<std::uint32_t>(k);
    item.mask = mask_path;
    item.scale = mask_path ? 2.0 * jw / w_total : 0.0;
    items.push_back(item);
  }

  // The source-gradient reduction sum dL/dI * |A_s|^2 is computed inside
  // the fused forward chain of each item (adjoint_pass's wns output), so
  // no separate field traversal is needed.
  std::vector<double> item_wns;
  ComplexGrid go = sim::adjoint_pass(*abbe_, o, dldi, items,
                                     request.source ? &item_wns : nullptr);
  if (request.source) {
    for (std::size_t k = 0; k < items.size(); ++k) {
      gj_raw[items[k].component] = item_wns[k];
    }
  }

  if (request.mask) {
    // Every mask-path point can be below the cutoff (e.g. an all-dark
    // source); the adjoint is then exactly zero, not absent.
    if (go.empty()) go = ComplexGrid(n, n);
    const ComplexGrid gm_complex = fft2_adjoint(go);
    const RealGrid gm = real_part(gm_complex);
    const RealGrid dact = mask_activation_derivative(theta_m, mask, activation_);
    out.grad_theta_m = gm * dact;
  }

  if (request.source) {
    // dL/dj_s = (sum dL/dI |A_s|^2 - sum dL/dI * I) / W, then the
    // activation chain rule (zero at invalid sigma points).
    const double c_term = dot(dldi, fwd.intensity);
    RealGrid gj(geometry.dim(), geometry.dim(), 0.0);
    for (std::size_t k = 0; k < npts; ++k) {
      gj(pts[k].row, pts[k].col) = (gj_raw[k] - c_term) / w_total;
    }
    const RealGrid dact =
        source_activation_derivative(theta_j, source, geometry, activation_);
    out.grad_theta_j = gj * dact;
  }
  return out;
}

}  // namespace bismo
