// Ablation (Sec. 4.2): the effect of the hypergradient budget K on
// BiSMO-NMN and BiSMO-CG -- quality (final loss, binarized L2) vs cost
// (TAT).  K = 0 reduces NMN to FD (Sec. 3.2.4), making the FD column
// implicit in this sweep; the paper uses K = 5.
#include <iostream>

#include "bench_common.hpp"
#include "core/bismo.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.print_banner("Ablation: hypergradient budget K (NMN / CG)");
  ThreadPool pool(args.threads);
  const BenchDatasets data = make_bench_datasets(args);
  const SmoConfig cfg = args.config();
  const SmoProblem problem(cfg, data.suites[0].clips[0], &pool);

  TablePrinter table(
      {"variant", "K", "final loss", "L2 (nm^2)", "PVB (nm^2)", "TAT (s)",
       "grad evals"});
  BenchReport report("ablation_k", args);
  for (BismoVariant variant : {BismoVariant::kNmn, BismoVariant::kCg}) {
    for (int k : {0, 1, 3, 5}) {
      BismoOptions opt;
      opt.outer_steps = cfg.outer_steps;
      opt.unroll_steps = cfg.unroll_steps;
      opt.hyper_terms = k;
      opt.lr_mask = cfg.lr_mask;
      opt.lr_source = cfg.lr_source;
      const RunResult run = run_bismo(problem, variant, opt);
      const SolutionMetrics m =
          problem.evaluate_solution(run.theta_m, run.theta_j);
      table.add_row({to_string(variant), std::to_string(k),
                     TablePrinter::num(run.final_loss(), 2),
                     TablePrinter::num(m.l2_nm2, 0),
                     TablePrinter::num(m.pvb_nm2, 0),
                     TablePrinter::num(run.wall_seconds, 1),
                     std::to_string(run.gradient_evaluations)});
      report.add(to_string(variant) + "/K" + std::to_string(k),
                 {{"final_loss", run.final_loss()},
                  {"l2_nm2", m.l2_nm2},
                  {"pvb_nm2", m.pvb_nm2},
                  {"tat_seconds", run.wall_seconds},
                  {"grad_evals",
                   static_cast<double>(run.gradient_evaluations)}});
    }
    table.add_separator();
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nExpectation: quality saturates after a few terms while TAT"
               " grows linearly in K -- K ~ 3-5 is the sweet spot the paper"
               " lands on (K = 5).\n";
  return 0;
}
