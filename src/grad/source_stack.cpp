#include "grad/source_stack.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "litho/activation.hpp"
#include "math/grid_ops.hpp"
#include "parallel/thread_pool.hpp"

namespace bismo {
namespace {

using Cplx = std::complex<double>;

bool same_bits(const RealGrid& a, const RealGrid& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void require_shape(const RealGrid& g, const RealGrid& like,
                   const char* what) {
  if (!g.same_shape(like)) {
    throw std::invalid_argument(std::string("SourceStack: ") + what +
                                " shape mismatch");
  }
}

void size_like(RealGrid& g, std::size_t rows, std::size_t cols) {
  if (g.rows() != rows || g.cols() != cols) g.resize(rows, cols);
}

/// `k` modulo `m` for a signed k.
std::size_t wrap(long k, std::size_t m) {
  const long mm = static_cast<long>(m);
  return static_cast<std::size_t>(((k % mm) + mm) % mm);
}

}  // namespace

SourceStack::SourceStack(const AbbeGradientEngine& engine)
    : engine_(&engine),
      abbe_(&engine.abbe()),
      n_(engine.abbe().optics().mask_dim),
      cutoff_(engine.source_cutoff()),
      plan_(n_, n_) {
  const OpticsConfig& optics = abbe_->optics();
  optics.validate();

  // Every difference of two bins of one shifted pupil disc lies within
  // twice the cut-off radius of the origin; validate() keeps that disc
  // below Nyquist, so it holds every wrapped bin difference.  The relative
  // slack covers rounding in the pupil's membership test.  E_s is real, so
  // Ehat_s[-d] = conj(Ehat_s[d]): only one bin of each mirror pair is kept.
  const double r2 = 4.0 * optics.cutoff_bins() * optics.cutoff_bins();
  long lag = 0;
  std::vector<long> support_y;
  std::vector<long> support_x;
  for (std::size_t r = 0; r < n_; ++r) {
    const long ky = fft_freq_index(r, n_);
    for (std::size_t c = 0; c < n_; ++c) {
      const long kx = fft_freq_index(c, n_);
      const double d2 = static_cast<double>(kx * kx + ky * ky);
      if (d2 > r2 * (1.0 + 1e-9) + 1e-9) continue;
      lag = std::max({lag, std::labs(ky), std::labs(kx)});
      const std::size_t bin = r * n_ + c;
      const std::size_t mirror = ((n_ - r) % n_) * n_ + (n_ - c) % n_;
      if (mirror < bin) continue;
      support_.push_back(static_cast<std::uint32_t>(bin));
      support_mirror_.push_back(static_cast<std::uint32_t>(mirror));
      // A pair stands for two bins in every Parseval sum.
      support_weight_.push_back(mirror == bin ? 1.0 : 2.0);
      support_y.push_back(ky);
      support_x.push_back(kx);
    }
  }
  local_dim_ = 8;
  while (local_dim_ < static_cast<std::size_t>(2 * lag + 1)) local_dim_ *= 2;
  const std::size_t m = local_dim_;
  local_plan_ = Fft2dPlan(m, m);
  support_local_.resize(support_.size());
  for (std::size_t k = 0; k < support_.size(); ++k) {
    support_local_[k] = static_cast<std::uint32_t>(
        wrap(support_y[k], m) * m + wrap(support_x[k], m));
  }

  // Each band placed in its own box: bins relative to the band's lowest
  // row and column frequency (differences, hence the transforms'
  // results, do not depend on the box origin).
  const std::size_t npts = abbe_->components();
  band_offset_.assign(npts + 1, 0);
  for (std::size_t p = 0; p < npts; ++p) {
    const sim::BandRef band = abbe_->component_band(p);
    long y0 = static_cast<long>(n_);
    long x0 = static_cast<long>(n_);
    for (std::size_t i = 0; i < band.nbins; ++i) {
      y0 = std::min(y0, fft_freq_index(band.bins[i] / n_, n_));
      x0 = std::min(x0, fft_freq_index(band.bins[i] % n_, n_));
    }
    for (std::size_t i = 0; i < band.nbins; ++i) {
      const long y = fft_freq_index(band.bins[i] / n_, n_) - y0;
      const long x = fft_freq_index(band.bins[i] % n_, n_) - x0;
      if (y > lag || x > lag) {
        throw std::logic_error("SourceStack: band wider than its lag box");
      }
      band_local_.push_back(static_cast<std::uint32_t>(y) *
                                static_cast<std::uint32_t>(m) +
                            static_cast<std::uint32_t>(x));
    }
    band_offset_[p + 1] = band_local_.size();
  }

  // Points are independent, so any partition is deterministic: one slot
  // of band-local scratch per pool worker.
  ThreadPool* pool = abbe_->pool();
  slots_ = std::max<std::size_t>(
      1, std::min(npts, pool != nullptr ? pool->width() : std::size_t{1}));
  slot_grid_.assign(slots_, ComplexGrid(m, m));
  slot_scratch_.assign(slots_, std::vector<Cplx>(std::max<std::size_t>(
                                   1, local_plan_.scratch_size())));
  j_.assign(npts, 0.0);
  dj_.assign(npts, 0.0);
  d2j_.assign(npts, 0.0);
  e_.assign(npts, 0.0);
  pairing_.assign(npts, 0.0);
  scale_a_.assign(npts, 0.0);
  scale_b_.assign(npts, 0.0);
  band_spec_.assign(band_local_.size(), Cplx{});
  band_out_.assign(band_local_.size(), Cplx{});
  lag_a_.resize(m, m);
  lag_b_.resize(m, m);
  fft_scratch_.assign(std::max<std::size_t>(1, plan_.scratch_size()), Cplx{});
  // Every per-job buffer is sized here, so the steady state (and each
  // rebuild) reuses them.
  stack_.assign(npts * support_.size(), Cplx{});
  theta_m_.resize(n_, n_);
  mask_dact_.resize(n_, n_);
  work_.resize(n_, n_);
  support_acc_.assign(support_.size(), Cplx{});
  intensity_.resize(n_, n_);
  dl_di_.resize(n_, n_);
  d2l_di2_.resize(n_, n_);
  tangent_.resize(n_, n_);
}

void SourceStack::set_mask(const RealGrid& theta_m) {
  if (theta_m.rows() != n_ || theta_m.cols() != n_) {
    throw std::invalid_argument("SourceStack: theta_m shape mismatch");
  }
  if (has_mask_ && same_bits(theta_m, theta_m_)) return;
  theta_m_ = theta_m;
  const ActivationConfig& act = engine_->activation();
  const RealGrid mask = activate_mask(theta_m, act);
  const RealGrid dact = mask_activation_derivative(theta_m, mask, act);
  std::copy(dact.begin(), dact.end(), mask_dact_.begin());
  // S_p = O .* H_p on every band, O = FFT2 of the activated mask.
  for (std::size_t i = 0; i < mask.size(); ++i) work_[i] = Cplx{mask[i], 0.0};
  plan_.forward(work_, fft_scratch_.data());
  for (std::size_t p = 0; p < abbe_->components(); ++p) {
    const sim::BandRef band = abbe_->component_band(p);
    Cplx* spec = band_spec_.data() + band_offset_[p];
    for (std::size_t i = 0; i < band.nbins; ++i) {
      const Cplx o = work_[band.bins[i]];
      spec[i] = band.vals != nullptr ? o * band.vals[i] : o;
    }
  }

  for_slots([this](std::size_t s) { build_slot(s); });
  has_mask_ = true;
  has_point_ = false;
  ++builds_;
}

template <typename Fn>
void SourceStack::for_slots(const Fn& fn) {
  // The task captures one reference, so std::function stores it inline.
  ThreadPool* pool = abbe_->pool();
  if (pool != nullptr && slots_ > 1) {
    pool->parallel_for(slots_, [&fn](std::size_t s) { fn(s); });
  } else {
    for (std::size_t s = 0; s < slots_; ++s) fn(s);
  }
}

std::pair<std::size_t, std::size_t> SourceStack::slot_points(
    std::size_t slot) const {
  const std::size_t npts = abbe_->components();
  return {slot * npts / slots_, (slot + 1) * npts / slots_};
}

// bismo-lint: no-alloc-begin
void SourceStack::local_band_spectrum(std::size_t p, ComplexGrid& grid,
                                      Cplx* scratch) const {
  const std::uint32_t* local = band_local_.data() + band_offset_[p];
  const Cplx* spec = band_spec_.data() + band_offset_[p];
  grid.fill(Cplx{});
  for (std::size_t i = 0; i < band_offset_[p + 1] - band_offset_[p]; ++i) {
    grid[local[i]] = spec[i];
  }
  local_plan_.forward(grid, scratch);
}

void SourceStack::build_slot(std::size_t slot) {
  // Ehat_p = IFFT_M(|FFT_M(S_p)|^2) / N read at the support lags.
  ComplexGrid& grid = slot_grid_[slot];
  Cplx* scratch = slot_scratch_[slot].data();
  const std::size_t ns = support_.size();
  const double inv_n = 1.0 / static_cast<double>(n_ * n_);
  const auto [begin, end] = slot_points(slot);
  for (std::size_t p = begin; p < end; ++p) {
    local_band_spectrum(p, grid, scratch);
    for (Cplx& f : grid) f = Cplx{std::norm(f), 0.0};
    local_plan_.inverse(grid, scratch);
    Cplx* row = stack_.data() + p * ns;
    for (std::size_t k = 0; k < ns; ++k) {
      row[k] = grid[support_local_[k]] * inv_n;
    }
  }
}

void SourceStack::mixed_slot(std::size_t slot) {
  // u_p = IFFT_M(FFT_M(S_p) .* (a_p LagA + b_p LagB)) at the band bins.
  ComplexGrid& grid = slot_grid_[slot];
  Cplx* scratch = slot_scratch_[slot].data();
  const auto [begin, end] = slot_points(slot);
  for (std::size_t p = begin; p < end; ++p) {
    local_band_spectrum(p, grid, scratch);
    const double a = scale_a_[p];
    const double b = scale_b_[p];
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid[i] *= a * lag_a_[i] + b * lag_b_[i];
    }
    local_plan_.inverse(grid, scratch);
    const std::uint32_t* local = band_local_.data() + band_offset_[p];
    Cplx* out = band_out_.data() + band_offset_[p];
    for (std::size_t i = 0; i < band_offset_[p + 1] - band_offset_[p]; ++i) {
      out[i] = grid[local[i]];
    }
  }
}

void SourceStack::lag_spectrum(const RealGrid& seed, ComplexGrid& out) {
  for (std::size_t i = 0; i < seed.size(); ++i) work_[i] = Cplx{seed[i], 0.0};
  plan_.forward(work_, fft_scratch_.data());
  const std::size_t m = local_dim_;
  for (std::size_t ly = 0; ly < m; ++ly) {
    const std::size_t y = wrap(fft_freq_index(ly, m), n_);
    for (std::size_t lx = 0; lx < m; ++lx) {
      out(ly, lx) = work_(y, wrap(fft_freq_index(lx, m), n_));
    }
  }
  local_plan_.forward(out, slot_scratch_[0].data());
}

void SourceStack::support_to_image() {
  work_.fill(Cplx{});
  for (std::size_t k = 0; k < support_.size(); ++k) {
    work_[support_mirror_[k]] = std::conj(support_acc_[k]);
    work_[support_[k]] = support_acc_[k];
  }
  plan_.inverse(work_, fft_scratch_.data());
}

void SourceStack::pair_with_stack(const RealGrid& x) {
  for (std::size_t i = 0; i < x.size(); ++i) work_[i] = Cplx{x[i], 0.0};
  plan_.forward(work_, fft_scratch_.data());
  for (std::size_t k = 0; k < support_.size(); ++k) {
    support_acc_[k] = work_[support_[k]] * support_weight_[k];
  }
  const std::size_t ns = support_.size();
  const double inv_n = 1.0 / static_cast<double>(n_ * n_);
  for (std::size_t p = 0; p < pairing_.size(); ++p) {
    const Cplx* row = stack_.data() + p * ns;
    double acc = 0.0;
    for (std::size_t k = 0; k < ns; ++k) {
      acc += support_acc_[k].real() * row[k].real() +
             support_acc_[k].imag() * row[k].imag();
    }
    pairing_[p] = acc * inv_n;
  }
}

void SourceStack::set_point(const RealGrid& theta_j) {
  if (!has_mask_) throw std::logic_error("SourceStack: no mask set");
  const SourceGeometry& geometry = abbe_->geometry();
  if (theta_j.rows() != geometry.dim() || theta_j.cols() != geometry.dim()) {
    throw std::invalid_argument("SourceStack: theta_j shape mismatch");
  }
  if (has_point_ && same_bits(theta_j, theta_j_)) return;
  theta_j_ = theta_j;

  const auto& pts = geometry.points();
  const ActivationConfig& act = engine_->activation();
  w_total_ = 0.0;
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const PointActivation a =
        activate_source_point(theta_j(pts[p].row, pts[p].col), act);
    j_[p] = a.value;
    dj_[p] = a.d1;
    d2j_[p] = a.d2;
    w_total_ += a.value;
  }
  if (w_total_ <= 0.0) {
    throw std::runtime_error("SourceStack: source has no power");
  }

  // I = IFFT(sum_s j_s Ehat_s) / W over the points the forward pass keeps.
  const std::size_t ns = support_.size();
  std::fill(support_acc_.begin(), support_acc_.end(), Cplx{});
  for (std::size_t p = 0; p < pts.size(); ++p) {
    if (!(j_[p] > cutoff_)) continue;
    const Cplx* row = stack_.data() + p * ns;
    for (std::size_t k = 0; k < ns; ++k) support_acc_[k] += j_[p] * row[k];
  }
  support_to_image();
  const double inv_w = 1.0 / w_total_;
  for (std::size_t i = 0; i < intensity_.size(); ++i) {
    intensity_[i] = work_[i].real() * inv_w;
  }

  loss_ = evaluate_smo_loss_curvature(
      intensity_, engine_->target(), engine_->resist(), engine_->weights(),
      engine_->process_window(), dl_di_, d2l_di2_);
  pair_with_stack(dl_di_);
  std::copy(pairing_.begin(), pairing_.end(), e_.begin());
  c_ = dot(dl_di_, intensity_);
  has_point_ = true;
}

double SourceStack::tangent(const RealGrid& v) {
  const auto& pts = abbe_->geometry().points();
  const std::size_t ns = support_.size();
  std::fill(support_acc_.begin(), support_acc_.end(), Cplx{});
  double d = 0.0;
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const double dj = dj_[p] * v(pts[p].row, pts[p].col);
    d += dj;
    if (dj == 0.0) continue;
    const Cplx* row = stack_.data() + p * ns;
    for (std::size_t k = 0; k < ns; ++k) support_acc_[k] += dj * row[k];
  }
  support_to_image();
  const double inv_w = 1.0 / w_total_;
  for (std::size_t i = 0; i < tangent_.size(); ++i) {
    tangent_[i] = (work_[i].real() - intensity_[i] * d) * inv_w;
  }
  return d;
}

SmoLossValue SourceStack::evaluate(const RealGrid& theta_j,
                                   RealGrid& grad_theta_j) {
  set_point(theta_j);
  size_like(grad_theta_j, theta_j.rows(), theta_j.cols());
  grad_theta_j.fill(0.0);
  const auto& pts = abbe_->geometry().points();
  const double inv_w = 1.0 / w_total_;
  for (std::size_t p = 0; p < pts.size(); ++p) {
    grad_theta_j(pts[p].row, pts[p].col) = dj_[p] * (e_[p] - c_) * inv_w;
  }
  return loss_;
}

void SourceStack::hvp(const RealGrid& theta_j, const RealGrid& v,
                      RealGrid& out) {
  set_point(theta_j);
  require_shape(v, theta_j, "v");
  const double d = tangent(v);
  const double g_iv = dot(dl_di_, tangent_);
  tangent_ *= d2l_di2_;  // q = h .* I_v
  pair_with_stack(tangent_);
  const double q_i = dot(tangent_, intensity_);

  size_like(out, theta_j.rows(), theta_j.cols());
  out.fill(0.0);
  const auto& pts = abbe_->geometry().points();
  const double inv_w = 1.0 / w_total_;
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const double vp = v(pts[p].row, pts[p].col);
    const double ec = e_[p] - c_;
    out(pts[p].row, pts[p].col) =
        (d2j_[p] * vp * ec + dj_[p] * (pairing_[p] - q_i - g_iv) -
         dj_[p] * ec * d * inv_w) *
        inv_w;
  }
}

void SourceStack::mixed(const RealGrid& theta_j, const RealGrid& w,
                        RealGrid& out) {
  set_point(theta_j);
  require_shape(w, theta_j, "w");
  const double d = tangent(w);
  tangent_ *= d2l_di2_;  // h .* I_w
  // Point s's cotangent (j_s/W) h.*I_w + (u_s - U j_s/W) g, with the
  // factor 2 of the |A|^2 adjoint and the 1/N^2 of the band-restricted
  // adjoint (sim::adjoint_pass) folded into both weights.
  const auto& pts = abbe_->geometry().points();
  const double inv_w = 1.0 / w_total_;
  const double u_total = d * inv_w;
  const double nn = static_cast<double>(n_ * n_);
  const double fac = 2.0 / (nn * nn);
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const double jw = j_[p] * inv_w;
    const double u = dj_[p] * w(pts[p].row, pts[p].col) * inv_w;
    scale_a_[p] = fac * jw;
    scale_b_[p] = fac * (u - u_total * jw);
  }
  lag_spectrum(tangent_, lag_a_);
  lag_spectrum(dl_di_, lag_b_);
  for_slots([this](std::size_t s) { mixed_slot(s); });

  // Scatter every band's adjoint in point order (deterministic), then back
  // through the mask transform (adjoint of FFT2 = unnormalized inverse)
  // and the mask activation.
  ComplexGrid& go = work_;
  go.fill(Cplx{});
  for (std::size_t p = 0; p < pts.size(); ++p) {
    const sim::BandRef band = abbe_->component_band(p);
    const Cplx* u = band_out_.data() + band_offset_[p];
    for (std::size_t i = 0; i < band.nbins; ++i) {
      go[band.bins[i]] +=
          band.vals != nullptr ? std::conj(band.vals[i]) * u[i] : u[i];
    }
  }
  plan_.transform(go, /*inverse=*/true, fft_scratch_.data());
  size_like(out, n_, n_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = go[i].real() * mask_dact_[i];
  }
}
// bismo-lint: no-alloc-end

}  // namespace bismo
