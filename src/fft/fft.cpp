#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>

#include "fft/kernels/kernel.hpp"

namespace bismo {

namespace {

using fft_detail::BluesteinPlan;
using fft_detail::Pow2Plan;
using fft_detail::Pow2Stage;

constexpr double kPi = 3.141592653589793238462643383279502884;

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Plan-cache lookup shared by the power-of-two and Bluestein caches:
/// existing plans are served under a shared lock (the common case after
/// warm-up); only a first-time build takes the exclusive lock.
template <typename Plan, typename Build>
const Plan* cached_plan(std::shared_mutex& mu,
                        std::map<std::size_t, std::unique_ptr<Plan>>& cache,
                        std::size_t n, const Build& build) {
  {
    std::shared_lock<std::shared_mutex> lock(mu);
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mu);
  auto& slot = cache[n];
  if (!slot) slot = build();
  return slot.get();
}

const Pow2Plan* pow2_plan(std::size_t n) {
  static std::shared_mutex mu;
  static std::map<std::size_t, std::unique_ptr<Pow2Plan>> cache;
  return cached_plan(mu, cache, n, [n] {
    auto plan = std::make_unique<Pow2Plan>();
    plan->n = n;
    plan->bitrev.resize(n);
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t rev = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        rev |= ((i >> b) & 1u) << (bits - 1 - b);
      }
      plan->bitrev[i] = static_cast<std::uint32_t>(rev);
    }
    // Factor n = [2 *] 4^k: a leading twiddle-free radix-2 stage when
    // log2(n) is odd, then radix-4 stages with SoA twiddles
    // w1[k] = W^k, w2[k] = W^2k, w3[k] = W^3k, W = exp(-2*pi*i/(4q)).
    plan->leading_radix2 = (bits % 2 == 1);
    std::size_t q = plan->leading_radix2 ? 2 : 1;
    while (q < n) {
      Pow2Stage stage;
      stage.q = q;
      stage.w1.resize(q);
      stage.w2.resize(q);
      stage.w3.resize(q);
      const double base = -2.0 * kPi / static_cast<double>(4 * q);
      for (std::size_t k = 0; k < q; ++k) {
        const double a1 = base * static_cast<double>(k);
        const double a2 = base * static_cast<double>(2 * k);
        const double a3 = base * static_cast<double>(3 * k);
        stage.w1[k] = {std::cos(a1), std::sin(a1)};
        stage.w2[k] = {std::cos(a2), std::sin(a2)};
        stage.w3[k] = {std::cos(a3), std::sin(a3)};
      }
      plan->stages.push_back(std::move(stage));
      q *= 4;
    }
    return plan;
  });
}

const BluesteinPlan* bluestein_plan(std::size_t n) {
  static std::shared_mutex mu;
  static std::map<std::size_t, std::unique_ptr<BluesteinPlan>> cache;
  return cached_plan(mu, cache, n, [n] {
    auto plan = std::make_unique<BluesteinPlan>();
    plan->n = n;
    plan->m = next_power_of_two(2 * n - 1);
    plan->sub = pow2_plan(plan->m);
    plan->chirp.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      // j^2 mod 2n keeps the argument small; exp is 2n-periodic in j^2.
      const std::size_t jsq = (j * j) % (2 * n);
      const double ang = -kPi * static_cast<double>(jsq) / static_cast<double>(n);
      plan->chirp[j] = {std::cos(ang), std::sin(ang)};
    }
    std::vector<std::complex<double>> b(plan->m, {0.0, 0.0});
    b[0] = std::conj(plan->chirp[0]);
    for (std::size_t j = 1; j < n; ++j) {
      b[j] = std::conj(plan->chirp[j]);
      b[plan->m - j] = std::conj(plan->chirp[j]);
    }
    // The reciprocal-chirp spectrum is backend-independent reference data:
    // build it with the scalar kernel so plans are identical no matter
    // which backend happened to be active at first use.
    fft::scalar_kernel().pow2_many(*plan->sub, b.data(), 1, plan->m,
                                   /*inverse=*/false);
    plan->b_spectrum = std::move(b);
    return plan;
  });
}

/// Bluestein transform into caller scratch of length plan.m (no allocation,
/// no plan-cache access).  Sub-FFTs and the length-m spectrum product run
/// through the active kernel.
void bluestein_run(const BluesteinPlan& plan, std::complex<double>* x,
                   bool inverse, std::complex<double>* scratch) {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t n = plan.n;
  std::complex<double>* a = scratch;
  for (std::size_t j = 0; j < n; ++j) {
    const std::complex<double> c =
        inverse ? std::conj(plan.chirp[j]) : plan.chirp[j];
    a[j] = x[j] * c;
  }
  for (std::size_t j = n; j < plan.m; ++j) a[j] = {0.0, 0.0};
  kernel.pow2_many(*plan.sub, a, 1, plan.m, /*inverse=*/false);
  // The inverse chirp spectrum is the conjugate-symmetric counterpart;
  // conj(b_spectrum) transforms the convolution kernel accordingly.
  kernel.cmul_inplace(a, plan.b_spectrum.data(), plan.m, /*conj_b=*/inverse);
  kernel.pow2_many(*plan.sub, a, 1, plan.m, /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(plan.m);
  for (std::size_t k = 0; k < n; ++k) {
    const std::complex<double> c =
        inverse ? std::conj(plan.chirp[k]) : plan.chirp[k];
    x[k] = a[k] * scale * c;
  }
}

void transform_1d(std::complex<double>* x, std::size_t n, bool inverse) {
  if (n == 0) throw std::invalid_argument("fft: zero length");
  if (n == 1) return;
  if (is_power_of_two(n)) {
    fft::active_kernel().pow2_many(*pow2_plan(n), x, 1, n, inverse);
  } else {
    const BluesteinPlan* plan = bluestein_plan(n);
    std::vector<std::complex<double>> scratch(plan->m);
    bluestein_run(*plan, x, inverse, scratch.data());
  }
}

}  // namespace

// ---- Plan handles -----------------------------------------------------------

Fft1dPlan::Fft1dPlan(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("Fft1dPlan: zero length");
  if (n == 1) return;
  if (is_power_of_two(n)) {
    pow2_ = pow2_plan(n);
  } else {
    bluestein_ = bluestein_plan(n);
  }
}

std::size_t Fft1dPlan::scratch_size() const noexcept {
  return bluestein_ != nullptr ? bluestein_->m : 0;
}

void Fft1dPlan::transform(std::complex<double>* data, bool inverse,
                          std::complex<double>* scratch) const {
  if (n_ <= 1) return;
  if (pow2_ != nullptr) {
    fft::active_kernel().pow2_many(*pow2_, data, 1, n_, inverse);
  } else {
    bluestein_run(*bluestein_, data, inverse, scratch);
  }
}

void Fft1dPlan::transform_many(std::complex<double>* data, std::size_t count,
                               std::size_t stride, bool inverse,
                               std::complex<double>* scratch) const {
  if (n_ <= 1 || count == 0) return;
  if (pow2_ != nullptr) {
    fft::active_kernel().pow2_many(*pow2_, data, count, stride, inverse);
  } else {
    for (std::size_t r = 0; r < count; ++r) {
      bluestein_run(*bluestein_, data + r * stride, inverse, scratch);
    }
  }
}

void Fft1dPlan::transform_columns(std::complex<double>* data,
                                  std::size_t width, std::size_t stride,
                                  bool inverse) const {
  if (n_ <= 1 || width == 0) return;
  if (pow2_ == nullptr) {
    throw std::logic_error(
        "Fft1dPlan::transform_columns: power-of-two lengths only");
  }
  fft::active_kernel().pow2_cols(*pow2_, data, width, stride, inverse);
}

void Fft1dPlan::transform_columns_fused(const fft_detail::ColsFusion& fusion,
                                        std::complex<double>* dst,
                                        std::size_t width, std::size_t stride,
                                        bool inverse) const {
  if (pow2_ == nullptr || n_ < 8) {
    throw std::logic_error(
        "Fft1dPlan::transform_columns_fused: power-of-two lengths >= 8 only");
  }
  fft::active_kernel().pow2_cols_fused(*pow2_, fusion, dst, width, stride,
                                       inverse);
}

Fft2dPlan::Fft2dPlan(std::size_t rows, std::size_t cols)
    : row_plan_(cols), col_plan_(rows) {}

std::size_t Fft2dPlan::scratch_size() const noexcept {
  return rows() +
         std::max(row_plan_.scratch_size(), col_plan_.scratch_size());
}

void Fft2dPlan::transform_row(std::complex<double>* row, bool inverse,
                              std::complex<double>* scratch) const {
  row_plan_.transform(row, inverse, scratch + rows());
}

void Fft2dPlan::transform_rows(std::complex<double>* rows_ptr,
                               std::size_t nrows, bool inverse,
                               std::complex<double>* scratch) const {
  row_plan_.transform_many(rows_ptr, nrows, cols(), inverse,
                           scratch + rows());
}

void Fft2dPlan::transform_cols(ComplexGrid& g, bool inverse,
                               std::complex<double>* scratch) const {
  const std::size_t r_count = rows();
  const std::size_t c_count = cols();
  if (col_plan_.is_pow2()) {
    // All columns in lock-step over whole rows: unit-stride butterflies
    // with broadcast twiddles, no gather/scatter.
    col_plan_.transform_columns(g.data(), c_count, c_count, inverse);
    return;
  }
  // Bluestein fallback (non-power-of-two row count): per-column
  // gather/scatter through the leading `rows()` scratch elements.
  std::complex<double>* col = scratch;
  std::complex<double>* scratch_1d = scratch + r_count;
  for (std::size_t c = 0; c < c_count; ++c) {
    for (std::size_t r = 0; r < r_count; ++r) col[r] = g(r, c);
    col_plan_.transform(col, inverse, scratch_1d);
    for (std::size_t r = 0; r < r_count; ++r) g(r, c) = col[r];
  }
}

bool Fft2dPlan::fused_cols() const noexcept {
  return rows() >= 8 && col_plan_.is_pow2();
}

void Fft2dPlan::transform_cols_fused(const fft_detail::ColsFusion& fusion,
                                     ComplexGrid& dst, bool inverse,
                                     std::complex<double>* scratch) const {
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t r_count = rows();
  const std::size_t c_count = cols();
  const std::size_t size = r_count * c_count;
  if (fused_cols()) {
    col_plan_.transform_columns_fused(fusion, dst.data(), c_count, c_count,
                                      inverse);
    return;
  }
  // Staged fallback (Bluestein row counts, tiny grids): materialize the
  // gathered/seeded input into `dst`, run the staged column pass, then
  // the epilogue per-stage ops.
  if (fusion.row_nonzero != nullptr) {
    for (std::size_t r = 0; r < r_count; ++r) {
      std::complex<double>* out_row = dst.data() + r * c_count;
      if (fusion.row_nonzero[r]) {
        const std::complex<double>* src_row = fusion.src + r * c_count;
        if (fusion.seed != nullptr) {
          kernel.seed_cotangent(out_row, fusion.seed + r * c_count, src_row,
                                c_count, fusion.seed_scale);
        } else {
          std::copy(src_row, src_row + c_count, out_row);
        }
      } else {
        std::fill(out_row, out_row + c_count, std::complex<double>{0.0, 0.0});
      }
    }
  } else if (fusion.seed != nullptr) {
    kernel.seed_cotangent(dst.data(), fusion.seed, fusion.src, size,
                          fusion.seed_scale);
  } else {
    std::copy(fusion.src, fusion.src + size, dst.data());
  }
  transform_cols(dst, inverse, scratch);
  if (fusion.scale != 1.0) kernel.scale(dst.data(), size, fusion.scale);
  if (fusion.norm_acc != nullptr) {
    kernel.accumulate_norm(fusion.norm_acc, dst.data(), size,
                           fusion.norm_weight);
  }
  if (fusion.wns_out != nullptr) {
    if (fusion.wns_weights != nullptr) {
      *fusion.wns_out =
          kernel.weighted_norm_sum(fusion.wns_weights, dst.data(), size);
    } else if (fusion.seed != nullptr) {
      // Seeded input reduction: sum seed[i] * |src_i|^2 over the logical
      // (row-masked) source, matching the fused pass's semantics.
      double acc = 0.0;
      if (fusion.row_nonzero != nullptr) {
        for (std::size_t r = 0; r < r_count; ++r) {
          if (!fusion.row_nonzero[r]) continue;
          acc += kernel.weighted_norm_sum(fusion.seed + r * c_count,
                                          fusion.src + r * c_count, c_count);
        }
      } else {
        acc = kernel.weighted_norm_sum(fusion.seed, fusion.src, size);
      }
      *fusion.wns_out = acc;
    } else {
      *fusion.wns_out = 0.0;
    }
  }
}

void Fft2dPlan::transform(ComplexGrid& g, bool inverse,
                          std::complex<double>* scratch) const {
  if (g.rows() != rows() || g.cols() != cols()) {
    throw std::invalid_argument("Fft2dPlan: grid shape mismatch");
  }
  transform_rows(g.data(), rows(), inverse, scratch);
  transform_cols(g, inverse, scratch);
}

void Fft2dPlan::forward(ComplexGrid& g, std::complex<double>* scratch) const {
  transform(g, /*inverse=*/false, scratch);
}

void Fft2dPlan::inverse(ComplexGrid& g, std::complex<double>* scratch) const {
  transform(g, /*inverse=*/true, scratch);
  fft::active_kernel().scale(g.data(), g.size(),
                             1.0 / static_cast<double>(g.size()));
}

// ---- Free functions ---------------------------------------------------------

void fft_1d(std::complex<double>* data, std::size_t n) {
  transform_1d(data, n, /*inverse=*/false);
}

void ifft_1d(std::complex<double>* data, std::size_t n) {
  transform_1d(data, n, /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
}

void fft_1d(std::vector<std::complex<double>>& data) {
  fft_1d(data.data(), data.size());
}

void ifft_1d(std::vector<std::complex<double>>& data) {
  ifft_1d(data.data(), data.size());
}

namespace {

/// Shared implementation of the convenience 2-D entry points: plan handles
/// (cache-locked at most twice) plus one scratch allocation.
void transform_2d(ComplexGrid& g, bool inverse) {
  if (g.rows() == 0 || g.cols() == 0) return;
  const Fft2dPlan plan(g.rows(), g.cols());
  std::vector<std::complex<double>> scratch(plan.scratch_size());
  plan.transform(g, inverse, scratch.data());
}

}  // namespace

void fft2(ComplexGrid& g) { transform_2d(g, /*inverse=*/false); }

void ifft2(ComplexGrid& g) {
  transform_2d(g, /*inverse=*/true);
  if (g.size() == 0) return;
  fft::active_kernel().scale(g.data(), g.size(),
                             1.0 / static_cast<double>(g.size()));
}

ComplexGrid fft2_copy(const ComplexGrid& g) {
  ComplexGrid out = g;
  fft2(out);
  return out;
}

ComplexGrid ifft2_copy(const ComplexGrid& g) {
  ComplexGrid out = g;
  ifft2(out);
  return out;
}

ComplexGrid fft2_adjoint(const ComplexGrid& g) {
  // adjoint(F) = F^H = N * F^{-1}
  ComplexGrid out = g;
  transform_2d(out, /*inverse=*/true);  // unnormalized inverse = F^H
  return out;
}

ComplexGrid ifft2_adjoint(const ComplexGrid& g) {
  // adjoint(F^{-1}) = (1/N) * F
  ComplexGrid out = g;
  transform_2d(out, /*inverse=*/false);
  if (out.size() == 0) return out;
  fft::active_kernel().scale(out.data(), out.size(),
                             1.0 / static_cast<double>(out.size()));
  return out;
}

double fft_freq(std::size_t k, std::size_t n, double d) {
  return static_cast<double>(fft_freq_index(k, n)) /
         (static_cast<double>(n) * d);
}

long fft_freq_index(std::size_t k, std::size_t n) {
  if (k >= n) throw std::out_of_range("fft_freq_index: k >= n");
  const long kn = static_cast<long>(n);
  const long kk = static_cast<long>(k);
  return (kk <= (kn - 1) / 2) ? kk : kk - kn;
}

}  // namespace bismo
