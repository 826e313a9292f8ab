#include "core/source_opt.hpp"

#include <chrono>

#include "grad/source_stack.hpp"

namespace bismo {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

RunResult run_source_opt(const SmoProblem& problem, const RealGrid& theta_m,
                         const SoOptions& options,
                         const RunControl& control) {
  const auto start = Clock::now();
  const LossWeights& w = problem.config().weights;
  RunResult result;
  result.method = "SO";
  result.theta_m = theta_m;

  RealGrid theta_j = problem.initial_theta_j();
  auto opt = make_optimizer(options.optimizer, options.lr);
  PlateauDetector plateau(options.stop);

  // theta_M is frozen: every step runs over one intensity stack.
  SourceStack stack(problem.engine());
  stack.set_mask(theta_m);
  RealGrid grad_j(theta_j.rows(), theta_j.cols(), 0.0);
  for (int step = 0; step < options.steps; ++step) {
    if (control.stop_requested()) {
      result.cancelled = true;
      break;
    }
    const SmoLossValue g = stack.evaluate(theta_j, grad_j);
    ++result.gradient_evaluations;
    const double loss = w.gamma * g.l2 + w.eta * g.pvb;
    result.trace.push_back({step, loss, g.l2, g.pvb, elapsed_seconds(start)});
    control.notify(result.trace.back());
    opt->step(theta_j, grad_j);
    if (plateau.should_stop(loss)) break;
  }
  result.theta_j = std::move(theta_j);
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

RunResult run_source_opt(const SmoProblem& problem, const SoOptions& options,
                         const RunControl& control) {
  return run_source_opt(problem, problem.initial_theta_m(), options, control);
}

}  // namespace bismo
