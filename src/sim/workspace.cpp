#include "sim/workspace.hpp"

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
