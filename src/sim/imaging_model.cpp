#include "sim/imaging_model.hpp"

#include <cmath>
#include <functional>

#include "fft/fft.hpp"
#include "fft/kernels/kernel.hpp"
#include "math/grid_ops.hpp"
#include "parallel/reduction.hpp"

namespace bismo::sim {
namespace {

/// Static slot partition shared by both passes (parallel/reduction.hpp).
struct SlotRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

SlotRange slot_range(std::size_t slot, std::size_t slots, std::size_t count) {
  return {slot * count / slots, (slot + 1) * count / slots};
}

void run_slots(const ImagingModel& model, std::size_t slots,
               const std::function<void(std::size_t)>& task) {
  ThreadPool* pool = model.pool();
  if (pool != nullptr && slots > 1) {
    pool->parallel_for(slots, task);
  } else {
    for (std::size_t s = 0; s < slots; ++s) task(s);
  }
}

}  // namespace

bool adjoint_uses_band_conv(const ImagingModel& model) {
  const std::size_t n = model.grid_dim();
  // Non-power-of-two and tiny grids keep the transform chains, which fall
  // back to the staged column pass inside Fft2dPlan::transform_cols_fused.
  if (n < 8 || (n & (n - 1)) != 0) return false;
  const std::size_t comps = model.components();
  if (comps == 0) return false;
  // Direct convolution is O(nbins^2) per component against ~N log N for
  // the transform chain; all-or-nothing so one wide band (e.g. a dense
  // SOCS kernel) keeps the whole pass on the cached-field chains.
  const std::size_t max_bins = band_conv_max_bins(n);
  for (std::size_t c = 0; c < comps; ++c) {
    if (model.component_band(c).nbins > max_bins) return false;
  }
  return true;
}

void ImagingModel::field_into(const ComplexGrid& o, std::size_t c,
                              SimWorkspace& ws) const {
  ws.forward_field(o, component_band(c), nullptr, 0.0, nullptr);
}

RealGrid accumulate_intensity(const ImagingModel& model, const ComplexGrid& o,
                              const std::vector<std::uint32_t>& comps,
                              const std::vector<double>& weights) {
  const std::size_t n = model.grid_dim();
  RealGrid out(n, n, 0.0);
  if (comps.empty()) return out;

  WorkspaceSet& set = model.workspaces();
  const std::size_t slots = reduction_slots(comps.size());
  auto task = [&](std::size_t s) {
    const SlotRange range = slot_range(s, slots, comps.size());
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    RealGrid& acc = ws.intensity_accum();
    acc.fill(0.0);
    // One fused chain per component: the |field|^2 accumulate runs inside
    // the column pass's final butterfly stage.  An armed field capture
    // redirects the chain's destination into the cache entry, so the
    // adjoint pass of the same evaluation skips its forward recompute.
    for (std::size_t k = range.begin; k < range.end; ++k) {
      ComplexGrid* dest =
          set.capturing() ? &set.capture_slot(comps[k]) : nullptr;
      ws.forward_field(o, model.component_band(comps[k]), &acc, weights[k],
                       nullptr, dest);
    }
  };
  run_slots(model, slots, task);
  combine_slot_partials(out, slots, [&](std::size_t s) -> const RealGrid& {
    return set.at(s).intensity_accum();
  });
  return out;
}

ComplexGrid adjoint_pass(const ImagingModel& model, const ComplexGrid& o,
                         const RealGrid& dldi,
                         const std::vector<AdjointItem>& items,
                         std::vector<double>* wns) {
  const std::size_t n = model.grid_dim();
  if (items.empty()) {
    if (wns != nullptr) wns->clear();
    return ComplexGrid{};
  }
  bool any_mask = false;
  for (const AdjointItem& it : items) any_mask = any_mask || it.mask;
  // Slots write disjoint item ranges, so the shared output list is safe.
  if (wns != nullptr) wns->assign(items.size(), 0.0);

  // The band scatter only ever writes rows in the union of the mask
  // items' band rows, so the per-slot accumulator zeroing and the final
  // combine are restricted to that row set.  The pattern depends only on
  // the item list (never on the slot partition), and rows outside it are
  // exactly zero either way, so results are unchanged.
  std::vector<std::uint8_t> row_union(any_mask ? n : 0, 0);
  if (any_mask) {
    for (const AdjointItem& it : items) {
      if (!it.mask) continue;
      const BandRef band = model.component_band(it.component);
      for (std::size_t i = 0; i < band.nrows; ++i) row_union[band.rows[i]] = 1;
    }
  }
  const auto for_each_union_run = [&](auto&& fn) {
    std::size_t r = 0;
    while (r < n) {
      if (!row_union[r]) {
        ++r;
        continue;
      }
      std::size_t e = r + 1;
      while (e < n && row_union[e]) ++e;
      fn(r, e - r);
      r = e;
    }
  };

  // Band-restricted direct adjoint (narrow bands).  With
  // D = FFT2(dldi), the cotangent spectrum of component c is the circular
  // convolution
  //   FFT2(dldi .* field_c)[k] = (1/N) sum_j S_c[j] D[k - j],
  // where S_c = o .* vals over the band bins -- and the band scatter only
  // ever reads it at those same bins, so U_c = (D (*) S_c)|_band is all
  // that is needed: O(nbins^2) multiply-adds per component in place of a
  // dense column transform.  The wns reduction is the matching Parseval
  // pairing  sum_i dldi[i] |field_c,i|^2 = (1/N^2) Re sum_k conj(S_c[k])
  // U_c[k].  No per-component transform and no coherent field at all (the
  // gradient engines skip arming the capture; see adjoint_uses_band_conv).
  const bool band_conv = adjoint_uses_band_conv(model);
  ComplexGrid dspec;
  if (band_conv) {
    dspec = to_complex(dldi);
    fft2(dspec);
  }

  WorkspaceSet& set = model.workspaces();
  const fft::FftKernel& kernel = fft::active_kernel();
  const std::size_t slots = reduction_slots(items.size());
  auto task = [&](std::size_t s) {
    const SlotRange range = slot_range(s, slots, items.size());
    SimWorkspace& ws = set.at(s);
    ws.ensure(n);
    if (any_mask) {
      ComplexGrid& accum = ws.adjoint_accum();
      for_each_union_run([&](std::size_t row, std::size_t count) {
        std::fill_n(accum.data() + row * n, count * n, std::complex<double>{});
      });
    }
    if (band_conv) {
      const double nn = static_cast<double>(n) * static_cast<double>(n);
      const double inv_n2 = 1.0 / (nn * nn);
      for (std::size_t k = range.begin; k < range.end; ++k) {
        const AdjointItem& item = items[k];
        if (!item.mask && wns == nullptr) continue;
        std::complex<double>* accum =
            item.mask ? ws.adjoint_accum().data() : nullptr;
        const double wacc = ws.band_conv_adjoint(
            o, model.component_band(item.component), dspec.data(),
            item.scale * inv_n2, accum);
        if (wns != nullptr) (*wns)[k] = wacc * inv_n2;
      }
      return;
    }
    for (std::size_t k = range.begin; k < range.end; ++k) {
      const AdjointItem& item = items[k];
      const BandRef band = model.component_band(item.component);
      const ComplexGrid* cached = set.captured_field(item.component);
      if (cached != nullptr) {
        // The intensity pass already produced this field; the forward
        // transform is skipped entirely.  The adjoint chain's seeded
        // loads compute the wns reduction in the same sweep, so the
        // cached grid is read exactly once; a source-only item (no
        // adjoint) falls back to the standalone vectorized reduction.
        if (item.mask) {
          const double item_wns = ws.adjoint_seed_accumulate(
              *cached, dldi.data(), item.scale, band, ws.adjoint_accum(),
              wns != nullptr);
          if (wns != nullptr) (*wns)[k] = item_wns;
        } else if (wns != nullptr) {
          (*wns)[k] = kernel.weighted_norm_sum(dldi.data(), cached->data(),
                                               cached->size());
        }
        continue;
      }
      const double item_wns = ws.forward_field(
          o, band, nullptr, 0.0, wns != nullptr ? dldi.data() : nullptr);
      if (wns != nullptr) (*wns)[k] = item_wns;
      if (item.mask) {
        ws.adjoint_seed_accumulate(ws.field(), dldi.data(), item.scale, band,
                                   ws.adjoint_accum());
      }
    }
  };
  run_slots(model, slots, task);

  if (!any_mask) return ComplexGrid{};
  ComplexGrid go(n, n);  // rows outside the band union stay exactly zero
  for (std::size_t s = 0; s < slots; ++s) {
    const ComplexGrid& partial = set.at(s).adjoint_accum();
    for_each_union_run([&](std::size_t row, std::size_t count) {
      kernel.add_complex(go.data() + row * n, partial.data() + row * n,
                         count * n);
    });
  }
  return go;
}

}  // namespace bismo::sim
