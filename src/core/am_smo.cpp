#include "core/am_smo.hpp"

#include <chrono>

#include "grad/hopkins_grad.hpp"
#include "grad/source_stack.hpp"
#include "litho/hopkins.hpp"

namespace bismo {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::string to_string(AmMode mode) {
  switch (mode) {
    case AmMode::kAbbeAbbe:
      return "AM-SMO(Abbe-Abbe)";
    case AmMode::kAbbeHopkins:
      return "AM-SMO(Abbe-Hopkins)";
  }
  return "AM-SMO(?)";
}

RunResult run_am_smo(const SmoProblem& problem, AmMode mode,
                     const AmOptions& options, const RunControl& control) {
  const auto start = Clock::now();
  const SmoConfig& cfg = problem.config();
  const LossWeights& w = cfg.weights;
  RunResult result;
  result.method = to_string(mode);

  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  // Fresh optimizer state per epoch (each argmin of Algorithm 1 is its own
  // minimization); the parameters themselves carry over.
  int global_step = 0;

  for (int cycle = 0; cycle < options.cycles && !result.cancelled; ++cycle) {
    // ---- SO epoch (line 3): theta_M fixed, so every step runs over one
    // Abbe intensity stack built at this epoch's mask (freed after it). ----
    {
      auto so_opt = make_optimizer(options.optimizer, options.lr_source);
      SourceStack stack(problem.engine());
      stack.set_mask(theta_m);
      RealGrid grad_j(theta_j.rows(), theta_j.cols(), 0.0);
      for (int step = 0; step < options.so_steps; ++step) {
        if (control.stop_requested()) {
          result.cancelled = true;
          break;
        }
        const SmoLossValue g = stack.evaluate(theta_j, grad_j);
        ++result.gradient_evaluations;
        result.trace.push_back({global_step++, w.gamma * g.l2 + w.eta * g.pvb,
                                g.l2, g.pvb, elapsed_seconds(start)});
        control.notify(result.trace.back());
        so_opt->step(theta_j, grad_j);
      }
    }
    if (result.cancelled) break;

    // ---- MO epoch (line 5): theta_J fixed. ----
    if (mode == AmMode::kAbbeAbbe) {
      auto mo_opt = make_optimizer(options.optimizer, options.lr_mask);
      GradRequest req;
      req.mask = true;
      req.source = false;
      for (int step = 0; step < options.mo_steps; ++step) {
        if (control.stop_requested()) {
          result.cancelled = true;
          break;
        }
        const SmoGradient g = problem.engine().evaluate(theta_m, theta_j, req);
        ++result.gradient_evaluations;
        result.trace.push_back({global_step++, w.gamma * g.l2 + w.eta * g.pvb,
                                g.l2, g.pvb, elapsed_seconds(start)});
        control.notify(result.trace.back());
        mo_opt->step(theta_m, g.grad_theta_m);
      }
    } else {
      // Abbe-Hopkins hybrid [13]: regenerate the TCC from the *updated*
      // source, then run Hopkins-based MO.  The rebuild cost (Gram matrix +
      // eigendecomposition every cycle) is the method's bottleneck.  The
      // rebuilt engine shares the problem's per-slot workspaces, so the
      // per-cycle rebuild allocates no new scratch.
      const RealGrid source = problem.source_image(theta_j);
      const SocsDecomposition socs(problem.abbe(), source, options.kernels,
                                   cfg.source_cutoff);
      const HopkinsImaging hopkins(cfg.optics, socs, problem.pool(),
                                   problem.workspaces());
      const HopkinsGradientEngine engine(hopkins, problem.target(), cfg.resist,
                                         cfg.activation, cfg.weights,
                                         cfg.process_window);
      auto mo_opt = make_optimizer(options.optimizer, options.lr_mask);
      for (int step = 0; step < options.mo_steps; ++step) {
        if (control.stop_requested()) {
          result.cancelled = true;
          break;
        }
        const SmoGradient g = engine.evaluate(theta_m);
        ++result.gradient_evaluations;
        result.trace.push_back({global_step++, w.gamma * g.l2 + w.eta * g.pvb,
                                g.l2, g.pvb, elapsed_seconds(start)});
        control.notify(result.trace.back());
        mo_opt->step(theta_m, g.grad_theta_m);
      }
    }
  }

  result.theta_m = std::move(theta_m);
  result.theta_j = std::move(theta_j);
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

}  // namespace bismo
