// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file path]
//
// Normally started through `python3 perfbench/run.py`, which builds this
// binary.  The workload is set up kSetupReps times (setup_s is the
// median), then:
//
//   --trace 0  one untraced window of --seconds; prints the end-to-end
//              metrics.
//   --trace 1  an untraced and a traced window of --seconds / 2 each, then
//              the layer ladder; prints the per-layer metrics, including
//              trace.overhead_pct (traced vs untraced primary metric), and
//              dumps the spans as Chrome trace-event JSON to --trace-file.
//
// stdout: a context line (seed, nproc, threads, FFT backend, fusion mode)
// and, last, one JSON object {"correct", "attempted", "failed",
// "metrics"}.  Exit 0 when every operation's check passed, 1 when one
// failed (the result is still printed), 2 on usage or set-up errors and 3
// when the run is invalid (its generator fell behind, or its rate search
// found no failing rate), without a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_smo_tat(Method method, std::uint64_t seed);
std::unique_ptr<Workload> make_tiled_layout(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed);

namespace {

constexpr std::size_t kSetupReps = 3;  ///< set-ups per run; setup_s is their median

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "smo_tat.abbe_mo", "smo_tat.am_aa",  "smo_tat.bismo_nmn", "smo_tat.bismo_cg",
      "tiled_layout",    "serve_mixed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "smo_tat.abbe_mo") return make_smo_tat(Method::kAbbeMo, seed);
  if (name == "smo_tat.am_aa") return make_smo_tat(Method::kAmAbbeAbbe, seed);
  if (name == "smo_tat.bismo_nmn") return make_smo_tat(Method::kBismoNmn, seed);
  if (name == "smo_tat.bismo_cg") return make_smo_tat(Method::kBismoCg, seed);
  if (name == "tiled_layout") return make_tiled_layout(seed);
  if (name == "serve_mixed") return make_serve_mixed(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file path]\nworkloads:",
               problem.c_str());
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0.0)) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return args;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int run(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    workload.reset();
    workload = make_workload(args.workload, args.seed);
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(t0));
  }

  Window window;
  MetricSet metrics;
  if (!args.trace) {
    window = workload->measure(args.seconds, nullptr);
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("peak_rss_mb", window.peak_rss_mb, "MB");
    metrics.merge(window.e2e);
  } else {
    const Window untraced = workload->measure(args.seconds / 2.0, nullptr);
    SpanRecorder spans;
    window = workload->measure(args.seconds / 2.0, &spans);
    window.attempted += untraced.attempted;
    window.failed += untraced.failed;
    window.problems.insert(window.problems.end(), untraced.problems.begin(),
                           untraced.problems.end());
    if (window.invalid.empty()) window.invalid = untraced.invalid;
    metrics.merge(window.layer);
    run_ladder(workload->ladder_input(), &spans, metrics);
    metrics.set("api.failed_ratio",
                static_cast<double>(window.failed) / static_cast<double>(window.attempted),
                "ratio");
    metrics.set("trace.overhead_pct", (window.primary / untraced.primary - 1.0) * 100.0, "%");
    if (!args.trace_file.empty() && !spans.write_chrome_trace(args.trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_file.c_str());
    }
  }

  for (const std::string& problem : window.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  if (!window.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", window.invalid.c_str());
    return 3;
  }
  bool finite = true;
  for (const Metric& m : metrics.items()) finite = finite && std::isfinite(m.value);
  const bool correct = window.failed == 0 && window.attempted > 0 && finite;

  std::printf("{\"context\": {\"workload\": ");
  print_json_string(args.workload);
  std::printf(", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, \"nproc\": %u, \"threads\": ",
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  print_json_string(workload->thread_summary());
  std::printf(", \"fft_backend\": ");
  print_json_string(window.fft_backend);
  std::printf(", \"fusion\": ");
  print_json_string(window.fusion);
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", window.attempted, window.failed);
  bool first = true;
  for (const Metric& m : metrics.items()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(m.name);
    if (std::isfinite(m.value)) {
      std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    } else {
      std::printf(": {\"value\": null, \"unit\": ");
    }
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
