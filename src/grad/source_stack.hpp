// Fixed-mask spectral intensity stack: the exact source-side operators of
// the SMO objective at a fixed theta_M (paper Eqs. 12-18).
//
// At a fixed mask every coherent field A_s (grad/abbe_grad.hpp) is fixed,
// so the aerial image is a normalized linear combination of a fixed stack
// of per-source-point intensities E_s = |A_s|^2:
//
//   I = sum_s j_s E_s / W,   W = sum_s j_s.
//
// E_s's spectrum is the autocorrelation of the band-limited field spectrum
// S_s = O .* H_s (O = FFT2 of the activated mask, H_s the shifted pupil):
//
//   Ehat_s[d] = (1/N) sum_{k - l = d} S_s[k] conj(S_s[l]),
//
// exactly supported on the doubled pupil band |d| <= 2 NA / lambda, which
// OpticsConfig::validate keeps below Nyquist.  E_s is real, so Ehat_s is
// Hermitian and the stack stores one bin of each mirror pair {d, -d} of
// that support: N_s x |2-band support| / 2 x 16 B (about 0.26 MB at
// 128^2, 8 nm, Nj = 9).
//
// Band-local transforms.  Every band fits a b x b box of bins and every
// support lag a (2L+1) x (2L+1) box with b - 1 <= L, so on an M x M grid
// with M >= 2L + 1 (a power of two: 32 at 128^2, 8 nm) the circular
// correlation and convolution of box-placed band data never wrap.  The
// build therefore takes each autocorrelation as IFFT_M(|FFT_M(S_s)|^2), and
// the mixed product's band-restricted adjoint
//   u_s[k] = sum_l S_s[l] D[k - l]   at the band bins k
// (D = FFT2 of the cotangent seed, the sweep of sim::adjoint_pass) as
// IFFT_M(FFT_M(S_s) .* FFT_M(D on the lags)): two M x M transforms per
// point in place of O(nbins^2) multiply-adds, at any band width.
//
// Over the stack, with g = dL/dI and h = d2L/dI2 (diagonal, grad/loss.hpp)
// and <x, E_s> = (1/N) Re sum_d X[d] conj(Ehat_s[d]) by Parseval, every
// source-side quantity costs two dense transforms:
//   * I = IFFT(sum_s j_s Ehat_s) / W  and the loss;
//   * dL/dtheta_s = j'_s (<g, E_s> - <g, I>) / W           (one FFT of g);
//   * the source HVP along v through the tangent
//       I_v = (sum_s j'_s v_s E_s - I D) / W,   D = sum_s j'_s v_s,
//     and q = h .* I_v:
//       (Hv)_s = j''_s v_s (<g,E_s> - <g,I>) / W
//              + j'_s (<q,E_s> - <q,I> - <g,I_v>) / W
//              - j'_s (<g,E_s> - <g,I>) D / W^2;
//   * the mixed product [d2L/dtheta_M dtheta_J] w as one band-restricted
//     mask-adjoint sweep in which point s's cotangent is
//       (j_s / W) (h .* I_w) + (u_s - U j_s / W) g,
//     u_s = j'_s w_s / W, U = sum_s u_s, followed by the mask transform
//     and activation chain rule.  Points below the source cutoff stay in
//     this sweep: their u_s need not vanish.
//
// Points at or below the source cutoff are left out of the image, as in
// AbbeGradientEngine's forward pass, but kept in every derivative, as the
// engine's source gradient keeps them.
//
// The stack belongs to one solver call: it is built per fixed theta_M,
// reused while theta_M stays bitwise equal, and freed with its owner.  It
// is never cached across jobs.  Not reentrant (internal scratch); after
// the first call, evaluate/hvp/mixed allocate nothing.
#ifndef BISMO_GRAD_SOURCE_STACK_HPP
#define BISMO_GRAD_SOURCE_STACK_HPP

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "fft/fft.hpp"
#include "grad/abbe_grad.hpp"
#include "grad/loss.hpp"
#include "math/grid2d.hpp"

namespace bismo {

/// Per-source-point intensity spectra at one fixed mask, with the exact
/// loss, source gradient, source HVP and mixed product over them.
class SourceStack {
 public:
  /// `engine` is borrowed and must outlive the stack.  Throws
  /// std::invalid_argument when the engine's optics cannot hold the
  /// doubled pupil band (OpticsConfig::validate).
  explicit SourceStack(const AbbeGradientEngine& engine);

  SourceStack(const SourceStack&) = delete;
  SourceStack& operator=(const SourceStack&) = delete;

  /// Build the stack at `theta_m`, unless it was built at a bitwise-equal
  /// theta_m already.
  void set_mask(const RealGrid& theta_m);

  /// Loss terms at theta_j over the current stack; writes dL/dtheta_J into
  /// `grad_theta_j` (resized on first use).  Requires set_mask.
  SmoLossValue evaluate(const RealGrid& theta_j, RealGrid& grad_theta_j);

  /// out = [d2L/dtheta_J^2] v at theta_j (out resized on first use).
  void hvp(const RealGrid& theta_j, const RealGrid& v, RealGrid& out);

  /// out = [d2L/dtheta_M dtheta_J] w at theta_j, shaped like theta_M
  /// (resized on first use).
  void mixed(const RealGrid& theta_j, const RealGrid& w, RealGrid& out);

  /// Bins the stack stores per point: one of each mirror pair of the
  /// doubled pupil band.
  std::size_t support_size() const noexcept { return support_.size(); }

  /// Stack memory: points x support_size() x 16 B.
  std::size_t stack_bytes() const noexcept {
    return stack_.size() * sizeof(std::complex<double>);
  }

  /// Stack builds so far (one per distinct theta_M).
  long builds() const noexcept { return builds_; }

 private:
  /// Per-point state at one theta_J (skipped when theta_j is bitwise equal
  /// to the cached one).
  void set_point(const RealGrid& theta_j);
  /// tangent_ = I_v along v; returns D = sum_s j'_s v_s.
  double tangent(const RealGrid& v);
  /// pairing_[s] = <x, E_s> for every point, through one FFT of x.
  void pair_with_stack(const RealGrid& x);
  /// Image of the support accumulator: IFFT into the pixel domain.
  void support_to_image();
  /// M x M transform of a seed's dense spectrum on the lags |d| < M/2.
  void lag_spectrum(const RealGrid& seed, ComplexGrid& out);
  /// Run `fn(slot)` for every slot, on the pool when there is one.
  template <typename Fn>
  void for_slots(const Fn& fn);
  /// The points of slot `slot`: [first, second).
  std::pair<std::size_t, std::size_t> slot_points(std::size_t slot) const;
  /// Box-place point p's band spectrum S_p into `grid` and transform it.
  void local_band_spectrum(std::size_t p, ComplexGrid& grid,
                           std::complex<double>* scratch) const;
  void build_slot(std::size_t slot);
  void mixed_slot(std::size_t slot);

  const AbbeGradientEngine* engine_;
  const AbbeImaging* abbe_;
  std::size_t n_ = 0;     ///< grid dim
  double cutoff_ = 0.0;   ///< source cutoff of the forward image

  // Half the doubled pupil band: flat bins, their mirror bins, Parseval
  // weights (2 per pair, 1 for a self-mirrored bin) and their lag index
  // on the M x M grid.
  std::vector<std::uint32_t> support_;
  std::vector<std::uint32_t> support_mirror_;
  std::vector<double> support_weight_;
  std::vector<std::uint32_t> support_local_;
  std::size_t local_dim_ = 0;
  Fft2dPlan local_plan_;
  // Band bins of every point, concatenated: box-local index and offsets.
  std::vector<std::uint32_t> band_local_;
  std::vector<std::size_t> band_offset_;

  // Mask state.
  bool has_mask_ = false;
  long builds_ = 0;
  RealGrid theta_m_;
  RealGrid mask_dact_;   ///< dM/dtheta_M
  std::vector<std::complex<double>> band_spec_;  ///< S_p on every band
  std::vector<std::complex<double>> stack_;  ///< points x support, row-major

  // Point state at theta_j_.
  bool has_point_ = false;
  RealGrid theta_j_;
  std::vector<double> j_, dj_, d2j_;
  std::vector<double> e_;  ///< <g, E_s>
  double w_total_ = 0.0;
  double c_ = 0.0;         ///< <g, I>
  SmoLossValue loss_;
  RealGrid intensity_;
  RealGrid dl_di_;
  RealGrid d2l_di2_;

  // Scratch.
  std::size_t slots_ = 0;  ///< one per pool worker
  std::vector<ComplexGrid> slot_grid_;
  std::vector<std::vector<std::complex<double>>> slot_scratch_;
  Fft2dPlan plan_;
  std::vector<std::complex<double>> fft_scratch_;
  ComplexGrid work_;
  std::vector<std::complex<double>> support_acc_;
  std::vector<double> pairing_;
  RealGrid tangent_;  ///< I_v, then h .* I_v in place
  // Mixed product: per-point seed weights, the seeds' lag spectra, and
  // each point's adjoint over its band bins.
  std::vector<double> scale_a_, scale_b_;
  ComplexGrid lag_a_, lag_b_;
  std::vector<std::complex<double>> band_out_;
};

}  // namespace bismo

#endif  // BISMO_GRAD_SOURCE_STACK_HPP
