#include "grad/hopkins_grad.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fft/fft.hpp"
#include "math/grid_ops.hpp"
#include "sim/imaging_model.hpp"

namespace bismo {

HopkinsGradientEngine::HopkinsGradientEngine(const HopkinsImaging& hopkins,
                                             const RealGrid& target,
                                             ResistModel resist,
                                             ActivationConfig activation,
                                             LossWeights weights,
                                             ProcessWindow pw)
    : hopkins_(&hopkins),
      target_(target),
      resist_(resist),
      activation_(activation),
      weights_(weights),
      pw_(pw) {
  const std::size_t n = hopkins.optics().mask_dim;
  if (target_.rows() != n || target_.cols() != n) {
    throw std::invalid_argument("HopkinsGradientEngine: target shape mismatch");
  }
}

RealGrid HopkinsGradientEngine::aerial(const RealGrid& theta_m) const {
  const RealGrid mask = activate_mask(theta_m, activation_);
  ComplexGrid o = to_complex(mask);
  fft2(o);
  return hopkins_->aerial(o);
}

SmoLoss HopkinsGradientEngine::loss_only(const RealGrid& theta_m) const {
  return evaluate_smo_loss(aerial(theta_m), target_, resist_, weights_, pw_,
                           /*want_backprop=*/false);
}

SmoGradient HopkinsGradientEngine::evaluate(const RealGrid& theta_m) const {
  const std::size_t n = hopkins_->optics().mask_dim;
  const RealGrid mask = activate_mask(theta_m, activation_);
  ComplexGrid o = to_complex(mask);
  fft2(o);

  // Capture each kernel's coherent field during the forward pass so the
  // backward sweep reuses it (see FieldCaptureScope).
  // Narrow-band models take the band-restricted direct adjoint instead
  // and never read the cache.
  sim::FieldCaptureScope capture(hopkins_->workspaces(),
                                 hopkins_->components(),
                                 !sim::adjoint_uses_band_conv(*hopkins_));
  const RealGrid intensity = hopkins_->aerial(o);
  const SmoLoss loss = evaluate_smo_loss(intensity, target_, resist_,
                                         weights_, pw_, /*want_backprop=*/true);

  SmoGradient out;
  out.loss = loss.total;
  out.l2 = loss.l2;
  out.pvb = loss.pvb;

  const RealGrid& dldi = loss.dl_di;
  const auto& kernels = hopkins_->socs().kernels();

  // Backward sweep through the unified engine layer: identical adjoint
  // structure to the Abbe engine with kernels in place of source points
  // (sim::adjoint_pass handles pooling, workspaces, and determinism).
  std::vector<sim::AdjointItem> items(kernels.size());
  for (std::size_t q = 0; q < kernels.size(); ++q) {
    items[q].component = static_cast<std::uint32_t>(q);
    items[q].scale = 2.0 * kernels[q].weight;
    items[q].mask = true;
  }
  ComplexGrid go = sim::adjoint_pass(*hopkins_, o, dldi, items);
  if (go.empty()) go = ComplexGrid(n, n);  // rank-0 decomposition
  const RealGrid gm = real_part(fft2_adjoint(go));
  const RealGrid dact =
      mask_activation_derivative(theta_m, mask, activation_);
  out.grad_theta_m = gm * dact;
  return out;
}

}  // namespace bismo
