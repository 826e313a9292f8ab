#include "sim/workspace.hpp"

#include <cmath>

namespace bismo::sim {

void SimWorkspace::ensure(std::size_t dim) {
  if (dim_ == dim) return;
  pipeline_.build(dim);
  dim_ = dim;
  field_.resize(dim, dim);
  cotangent_.resize(dim, dim);
  spectrum_.resize(dim, dim);
  adjoint_accum_.resize(dim, dim);
  intensity_accum_.resize(dim, dim);
  row_flags_.assign(dim, 0);
  fft_scratch_.assign(pipeline_.plan().scratch_size(), std::complex<double>{});
  const std::size_t max_bins = band_conv_max_bins(dim);
  band_vals_.assign(max_bins, std::complex<double>{});
  band_row_.assign(max_bins, 0);
  band_col_.assign(max_bins, 0);
}

std::size_t band_conv_max_bins(std::size_t dim) {
  const std::size_t budget = 2 * dim * dim;
  auto m = static_cast<std::size_t>(std::sqrt(static_cast<double>(budget)));
  while (m * m > budget) --m;
  while ((m + 1) * (m + 1) <= budget) ++m;
  return m;
}

// bismo-lint: no-alloc-begin
// Steady-state evaluation path: after ensure() has sized the buffers,
// every call below must run without touching the heap (the AllocGuard
// tests assert this dynamically).
double SimWorkspace::forward_field(const ComplexGrid& o, const BandRef& band,
                                   RealGrid* acc, double acc_weight,
                                   const double* wns_weights,
                                   ComplexGrid* field_out) {
  ComplexGrid* dest = field_out != nullptr ? field_out : &field_;
  // bismo-lint: allow(no-alloc) first-use growth of a caller-provided capture grid
  if (dest->rows() != dim_ || dest->cols() != dim_) dest->resize(dim_, dim_);
  return pipeline_.forward(o, band, spectrum_, row_flags_.data(), *dest, acc,
                           acc_weight, wns_weights, fft_scratch_.data());
}

double SimWorkspace::adjoint_seed_accumulate(const ComplexGrid& field,
                                             const double* dldi, double scale,
                                             const BandRef& band,
                                             ComplexGrid& go, bool want_wns) {
  return pipeline_.adjoint(dldi, scale, field, band, cotangent_, go,
                           fft_scratch_.data(), want_wns);
}

double SimWorkspace::band_conv_adjoint(const ComplexGrid& o,
                                       const BandRef& band,
                                       const std::complex<double>* dspec,
                                       double go_scale,
                                       std::complex<double>* go) {
  const std::size_t nb = band.nbins;
  if (band_vals_.size() < nb) {
    // bismo-lint: allow(no-alloc) band wider than adjoint_pass ever sends
    band_vals_.resize(nb);
    // bismo-lint: allow(no-alloc) band wider than adjoint_pass ever sends
    band_row_.resize(nb);
    // bismo-lint: allow(no-alloc) band wider than adjoint_pass ever sends
    band_col_.resize(nb);
  }
  const std::size_t n = dim_;
  const std::uint32_t un = static_cast<std::uint32_t>(n);
  std::complex<double>* sval = band_vals_.data();
  std::uint32_t* brow = band_row_.data();
  std::uint32_t* bcol = band_col_.data();
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t bin = band.bins[i];
    brow[i] = bin / un;
    bcol[i] = bin % un;
    sval[i] = band.vals != nullptr ? o.data()[bin] * band.vals[i]
                                   : o.data()[bin];
  }
  double wacc = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    const std::uint32_t ri = brow[i];
    const std::uint32_t ci = bcol[i];
    std::complex<double> u{};
    for (std::size_t j = 0; j < nb; ++j) {
      const std::uint32_t dr = ri >= brow[j] ? ri - brow[j] : ri + un - brow[j];
      const std::uint32_t dc = ci >= bcol[j] ? ci - bcol[j] : ci + un - bcol[j];
      u += sval[j] * dspec[std::size_t{dr} * n + dc];
    }
    wacc += sval[i].real() * u.real() + sval[i].imag() * u.imag();
    if (go != nullptr) {
      const std::complex<double> v = band.vals != nullptr
                                         ? std::conj(band.vals[i])
                                         : std::complex<double>{1.0, 0.0};
      go[band.bins[i]] += v * u * go_scale;
    }
  }
  return wacc;
}
// bismo-lint: no-alloc-end

std::vector<std::uint32_t> occupied_rows(const std::vector<std::uint32_t>& bins,
                                         std::size_t cols) {
  // Bin lists are sorted row-major (a precondition of the sparse
  // transforms), so suppressing adjacent repeats yields sorted unique rows.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t bin : bins) {
    const std::uint32_t r = bin / static_cast<std::uint32_t>(cols);
    if (rows.empty() || rows.back() != r) rows.push_back(r);
  }
  return rows;
}

}  // namespace bismo::sim
