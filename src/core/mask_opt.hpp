// Mask-only optimization (MO) drivers -- the baselines of Tables 3-4:
//
//   * run_abbe_mo     -- the paper's own Abbe-MO: exact Abbe imaging with
//                        PVB-aware loss, source fixed at its template.
//   * run_hopkins_mo  -- Hopkins/SOCS ILT.  With `levels == 1`, few kernels
//                        and no PVB term this is the NILT [7] proxy; with
//                        coarse-to-fine levels, Q = 24 and the PVB term it
//                        is the DAC23-MILT [10] proxy (multi-level
//                        lithography simulation).  See README.md
//                        "Bench-scale substitutions" for why proxies stand
//                        in for the closed-source baselines.
#ifndef BISMO_CORE_MASK_OPT_HPP
#define BISMO_CORE_MASK_OPT_HPP

#include <cstddef>

#include "core/problem.hpp"
#include "core/run_control.hpp"
#include "core/stop.hpp"
#include "core/trace.hpp"

namespace bismo {

/// Options for mask-only drivers.
struct MoOptions {
  int steps = 40;                                  ///< optimizer iterations
  OptimizerKind optimizer = OptimizerKind::kAdam;  ///< update rule
  double lr = 0.1;                                 ///< xi_M
  bool use_pvb = true;  ///< false: optimize plain L2 (NILT proxy)
  StopCriteria stop{};  ///< optional plateau-based early stop
};

/// Hopkins-specific additions.
struct HopkinsMoOptions {
  MoOptions base;
  std::size_t kernels = 24;  ///< SOCS truncation Q
  int levels = 1;            ///< 1 = single level; >1 = multi-level ILT
};

/// Abbe-based MO: optimizes theta_M with theta_J frozen at the template.
/// The trace records the full Lsmo (standard weights) for comparability.
RunResult run_abbe_mo(const SmoProblem& problem, const MoOptions& options,
                      const RunControl& control = {});

/// Hopkins-based MO (single or multi-level).  The TCC is built once from
/// the frozen template source.  The returned theta_j is the frozen initial.
RunResult run_hopkins_mo(const SmoProblem& problem,
                         const HopkinsMoOptions& options,
                         const RunControl& control = {});

}  // namespace bismo

#endif  // BISMO_CORE_MASK_OPT_HPP
