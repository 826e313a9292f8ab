// Convergence criteria for the optimization drivers.
//
// The paper notes (Sec. 3.2) that AM-SMO's lack of global gradient guidance
// "complicates establishing effective early stopping criteria"; this module
// provides the plateau detector all drivers share so that observation can
// be studied quantitatively (see the convergence traces of
// bench_fig3_convergence and the K sweep of bench_ablation_k).
#ifndef BISMO_CORE_STOP_HPP
#define BISMO_CORE_STOP_HPP

#include <cstddef>

namespace bismo {

/// Plateau-based early stopping: stop when the best loss seen has not
/// improved by a relative `min_improvement` for `patience` consecutive
/// steps (after at least `min_steps` steps).  Disabled when patience == 0.
struct StopCriteria {
  int patience = 0;              ///< 0 disables early stopping
  double min_improvement = 1e-3; ///< relative improvement threshold
  int min_steps = 5;             ///< never stop before this many steps
};

/// Stateful plateau detector applying StopCriteria to a loss stream.
class PlateauDetector {
 public:
  explicit PlateauDetector(const StopCriteria& criteria)
      : criteria_(criteria) {}

  /// Feed the loss of the step just completed; returns true when the
  /// criteria say to stop *after* this step.
  bool should_stop(double loss) noexcept {
    ++steps_;
    if (loss < best_ * (1.0 - criteria_.min_improvement) || steps_ == 1) {
      best_ = loss;
      stale_ = 0;
    } else {
      ++stale_;
    }
    if (criteria_.patience <= 0) return false;
    return steps_ >= criteria_.min_steps && stale_ >= criteria_.patience;
  }

  /// Best loss observed so far.
  double best() const noexcept { return best_; }
  /// Steps observed.
  int steps() const noexcept { return steps_; }

 private:
  StopCriteria criteria_;
  double best_ = 0.0;
  int steps_ = 0;
  int stale_ = 0;
};

}  // namespace bismo

#endif  // BISMO_CORE_STOP_HPP
