// Reproduces Table 2: "Details of the Dataset" -- per-suite statistics of
// the synthetic benchmark clips standing in for ICCAD13 / ICCAD-L / ISPD19
// (see README.md "Bench-scale substitutions" for the generator rationale).
#include <iostream>

#include "bench_common.hpp"
#include "io/table.hpp"
#include "math/statistics.hpp"

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.print_banner("Table 2: Details of the Dataset (synthetic stand-ins)");

  const BenchDatasets data = make_bench_datasets(args);
  BenchReport report("table2_datasets", args);
  TablePrinter table({"Dataset", "From", "Area (avg nm^2)", "Test num.",
                      "Layer", "CD", "tile"});
  for (const Dataset& suite : data.suites) {
    RunningStats area;
    for (const Layout& clip : suite.clips) area.push(clip.union_area_nm2());
    report.add(suite.spec.name,
               {{"area_avg_nm2", area.mean()},
                {"area_std_nm2", area.stddev()},
                {"test_count", static_cast<double>(suite.clips.size())},
                {"cd_nm", suite.spec.cd_nm},
                {"tile_um2",
                 suite.spec.tile_nm * suite.spec.tile_nm / 1e6}});
    table.add_row({suite.spec.name,
                   "synthetic generator",
                   TablePrinter::num(area.mean(), 0),
                   std::to_string(suite.clips.size()),
                   suite.spec.layer,
                   TablePrinter::num(suite.spec.cd_nm, 0) + " nm",
                   TablePrinter::num(suite.spec.tile_nm * suite.spec.tile_nm /
                                         1e6,
                                     3) +
                       " um^2"});
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nPaper (Table 2, 4 um^2 tiles): ICCAD13 202655 / 10 / Metal"
               " / 32 nm; ICCAD-L 475571 / 10 / Metal / 32 nm;"
               " ISPD19 698743 / 100 / Metal+Via / 28 nm.\n"
               "Reproduction target: the area ratios across suites and the"
               " CD/layer composition.\n";
  return 0;
}
