#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/json.hpp"

namespace bismo::bench {
namespace {

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --full              paper-closer scale (128 px / 1024 nm / Nj 9)\n"
      "  --nm N              mask grid dimension (default 64)\n"
      "  --tile NM           tile side in nm (default 512)\n"
      "  --nj N              source grid dimension (default 9)\n"
      "  --cases N           clips per dataset (default 2)\n"
      "  --steps N           outer/MO steps (default 60)\n"
      "  --unroll T          BiSMO inner SO steps (default 2)\n"
      "  --kterms K          Neumann terms / CG iterations (default 3)\n"
      "  --am-cycles N       AM-SMO cycles (default 5)\n"
      "  --am-steps N        SO/MO steps per AM cycle (default 12)\n"
      "  --threads N         worker threads (default: hardware)\n"
      "  --seed S            base RNG seed (default 2024)\n"
      "  --cache PATH        result-cache file (default bismo_bench_cache.csv)\n",
      argv0);
  std::exit(2);
}

double parse_num(const char* flag, const char* value, const char* argv0) {
  if (value == nullptr) usage_and_exit(argv0);
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
    usage_and_exit(argv0);
  }
  return v;
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--help" || flag == "-h") usage_and_exit(argv[0]);
    if (flag == "--full") {
      args.full = true;
      args.mask_dim = 128;
      args.tile_nm = 1024.0;
      args.outer_steps = 80;
      args.hyper_terms = 5;
      args.unroll_steps = 3;
      continue;
    }
    if (flag == "--nm") { args.mask_dim = static_cast<std::size_t>(parse_num("--nm", next, argv[0])); ++i; continue; }
    if (flag == "--tile") { args.tile_nm = parse_num("--tile", next, argv[0]); ++i; continue; }
    if (flag == "--nj") { args.source_dim = static_cast<std::size_t>(parse_num("--nj", next, argv[0])); ++i; continue; }
    if (flag == "--cases") { args.cases_per_dataset = static_cast<std::size_t>(parse_num("--cases", next, argv[0])); ++i; continue; }
    if (flag == "--steps") { args.outer_steps = static_cast<int>(parse_num("--steps", next, argv[0])); ++i; continue; }
    if (flag == "--unroll") { args.unroll_steps = static_cast<int>(parse_num("--unroll", next, argv[0])); ++i; continue; }
    if (flag == "--kterms") { args.hyper_terms = static_cast<int>(parse_num("--kterms", next, argv[0])); ++i; continue; }
    if (flag == "--am-cycles") { args.am_cycles = static_cast<int>(parse_num("--am-cycles", next, argv[0])); ++i; continue; }
    if (flag == "--am-steps") { args.am_epoch_steps = static_cast<int>(parse_num("--am-steps", next, argv[0])); ++i; continue; }
    if (flag == "--threads") { args.threads = static_cast<std::size_t>(parse_num("--threads", next, argv[0])); ++i; continue; }
    if (flag == "--seed") { args.seed = static_cast<std::uint64_t>(parse_num("--seed", next, argv[0])); ++i; continue; }
    if (flag == "--cache") {
      if (next == nullptr) usage_and_exit(argv[0]);
      args.cache_path = next;
      ++i;
      continue;
    }
    // Ignore google-benchmark flags so mixed invocation scripts work.
    if (flag.rfind("--benchmark", 0) == 0) continue;
    std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
    usage_and_exit(argv[0]);
  }
  return args;
}

SmoConfig BenchArgs::config() const {
  SmoConfig cfg;
  cfg.optics.mask_dim = mask_dim;
  cfg.optics.pixel_nm = tile_nm / static_cast<double>(mask_dim);
  cfg.source_dim = source_dim;
  // The source starts from the generic conventional disc rather than the
  // paper's annular template: at bench scale (Nj = 9 vs the paper's 35)
  // the annular start is already near-optimal, which would idle the SO
  // component all methods are compared on.  Documented in README.md
  // "Bench-scale substitutions".
  cfg.initial_source.shape = SourceShape::kConventional;
  cfg.initial_source.sigma_out = 0.95;
  // A movable source at small step budgets (Table 1's j0 = 5 saturates the
  // sigmoid so deeply that tens of Adam steps cannot light/extinguish a
  // source point).
  cfg.activation.source_init = 1.5;
  cfg.outer_steps = outer_steps;
  cfg.unroll_steps = unroll_steps;
  cfg.hyper_terms = hyper_terms;
  cfg.am_cycles = am_cycles;
  cfg.am_so_steps = am_epoch_steps;
  cfg.am_mo_steps = am_epoch_steps;
  cfg.validate();
  return cfg;
}

void BenchArgs::print_banner(const std::string& bench_name) const {
  std::printf("== %s ==\n", bench_name.c_str());
  std::printf(
      "config: mask %zux%zu px, tile %.0f nm (pixel %.2f nm), source %zux%zu,"
      " clips/dataset %zu\n",
      mask_dim, mask_dim, tile_nm, tile_nm / static_cast<double>(mask_dim),
      source_dim, source_dim, cases_per_dataset);
  std::printf(
      "budgets: outer/MO steps %d, T=%d, K=%d, AM %d x (%d SO + %d MO),"
      " seed %llu%s\n",
      outer_steps, unroll_steps, hyper_terms, am_cycles, am_epoch_steps,
      am_epoch_steps, static_cast<unsigned long long>(seed),
      full ? " [--full]" : "");
  std::printf(
      "note: paper scale is Nm=2048 / Nj=35 on GPU; shapes and ratios are\n"
      "the reproduction target, not absolute nm^2 values (see README.md,\n"
      "\"Bench-scale substitutions\").\n\n");
}

BenchDatasets make_bench_datasets(const BenchArgs& args) {
  BenchDatasets out;
  for (DatasetKind kind :
       {DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19}) {
    DatasetSpec spec = dataset_spec(kind);
    spec.tile_nm = args.tile_nm;
    out.suites.push_back(
        make_dataset(spec, args.cases_per_dataset, args.seed));
  }
  return out;
}

CaseResult run_case(const BenchArgs& args, const Dataset& suite,
                    std::size_t clip_index, Method method, ThreadPool& pool) {
  const SmoConfig cfg = args.config();
  const SmoProblem problem(cfg, suite.clips[clip_index], &pool);
  const RunResult run = run_method(problem, method);
  const SolutionMetrics metrics =
      problem.evaluate_solution(run.theta_m, run.theta_j);
  CaseResult out;
  out.dataset = suite.spec.name;
  out.clip = suite.names[clip_index];
  out.method = method;
  out.l2_nm2 = metrics.l2_nm2;
  out.pvb_nm2 = metrics.pvb_nm2;
  out.epe = static_cast<double>(metrics.epe_violations);
  out.tat_seconds = run.wall_seconds;
  out.grad_evals = run.gradient_evaluations;
  out.final_loss = run.final_loss();
  return out;
}

std::vector<CaseResult> run_full_comparison(const BenchArgs& args,
                                            ThreadPool& pool) {
  if (auto cached = load_cache(args)) {
    std::printf("(reusing cached runs from %s)\n\n", args.cache_path.c_str());
    return *cached;
  }
  const BenchDatasets data = make_bench_datasets(args);
  std::vector<CaseResult> results;
  for (const Dataset& suite : data.suites) {
    for (std::size_t c = 0; c < suite.clips.size(); ++c) {
      for (Method method : all_methods()) {
        std::fprintf(stderr, "  running %s on %s...\n",
                     to_string(method).c_str(), suite.names[c].c_str());
        results.push_back(run_case(args, suite, c, method, pool));
      }
    }
  }
  save_cache(args, results);
  return results;
}

BenchReport::BenchReport(std::string name, const BenchArgs& args)
    : name_(std::move(name)), args_(args) {}

void BenchReport::add(const std::string& label,
                      std::vector<std::pair<std::string, double>> metrics) {
  rows_.emplace_back(label, std::move(metrics));
}

void BenchReport::add_case_results(const std::vector<CaseResult>& results) {
  for (const CaseResult& r : results) {
    add(r.clip + "/" + to_string(r.method),
        {{"l2_nm2", r.l2_nm2},
         {"pvb_nm2", r.pvb_nm2},
         {"epe", r.epe},
         {"tat_seconds", r.tat_seconds},
         {"grad_evals", static_cast<double>(r.grad_evals)},
         {"final_loss", r.final_loss}});
  }
}

std::string BenchReport::write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return "";
  }
  JsonWriter w(out);
  w.begin_object();
  w.key("bench").value(name_);
  w.key("config").begin_object();
  w.key("mask_dim").value(args_.mask_dim);
  w.key("tile_nm").value(args_.tile_nm);
  w.key("source_dim").value(args_.source_dim);
  w.key("cases_per_dataset").value(args_.cases_per_dataset);
  w.key("outer_steps").value(args_.outer_steps);
  w.key("unroll_steps").value(args_.unroll_steps);
  w.key("hyper_terms").value(args_.hyper_terms);
  w.key("am_cycles").value(args_.am_cycles);
  w.key("am_epoch_steps").value(args_.am_epoch_steps);
  w.key("seed").value(static_cast<std::size_t>(args_.seed));
  w.key("full").value(args_.full);
  w.key("fingerprint").value(config_fingerprint(args_));
  w.end_object();
  w.key("rows").begin_array();
  for (const auto& [label, metrics] : rows_) {
    w.begin_object();
    w.key("label").value(label);
    for (const auto& [key, value] : metrics) w.key(key).value(value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("machine-readable results: %s\n", path.c_str());
  return path;
}

std::string config_fingerprint(const BenchArgs& args) {
  std::ostringstream ss;
  ss << "v1:" << args.mask_dim << ":" << args.tile_nm << ":"
     << args.source_dim << ":" << args.cases_per_dataset << ":"
     << args.outer_steps << ":" << args.unroll_steps << ":"
     << args.hyper_terms << ":" << args.am_cycles << ":"
     << args.am_epoch_steps << ":" << args.seed;
  return ss.str();
}

void save_cache(const BenchArgs& args,
                const std::vector<CaseResult>& results) {
  std::ofstream out(args.cache_path);
  if (!out) return;  // caching is best-effort
  out << "# " << config_fingerprint(args) << "\n";
  out << "dataset,clip,method,l2,pvb,epe,tat,evals,loss\n";
  for (const CaseResult& r : results) {
    out << r.dataset << "," << r.clip << "," << static_cast<int>(r.method)
        << "," << r.l2_nm2 << "," << r.pvb_nm2 << "," << r.epe << ","
        << r.tat_seconds << "," << r.grad_evals << "," << r.final_loss
        << "\n";
  }
}

std::optional<std::vector<CaseResult>> load_cache(const BenchArgs& args) {
  std::ifstream in(args.cache_path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (line != "# " + config_fingerprint(args)) return std::nullopt;
  std::getline(in, line);  // header
  std::vector<CaseResult> results;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    CaseResult r;
    std::string method_str;
    std::string field;
    if (!std::getline(ss, r.dataset, ',')) break;
    std::getline(ss, r.clip, ',');
    std::getline(ss, method_str, ',');
    r.method = static_cast<Method>(std::stoi(method_str));
    std::getline(ss, field, ',');
    r.l2_nm2 = std::stod(field);
    std::getline(ss, field, ',');
    r.pvb_nm2 = std::stod(field);
    std::getline(ss, field, ',');
    r.epe = std::stod(field);
    std::getline(ss, field, ',');
    r.tat_seconds = std::stod(field);
    std::getline(ss, field, ',');
    r.grad_evals = std::stol(field);
    std::getline(ss, field, ',');
    r.final_loss = std::stod(field);
    results.push_back(std::move(r));
  }
  if (results.empty()) return std::nullopt;
  return results;
}

}  // namespace bismo::bench
