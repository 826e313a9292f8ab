// Shared pieces of the benchmark driver: shared constants, metric sets, the
// workload interface, job-spec construction from generated clips, job
// event watching, and process measurements (peak RSS).
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "shard/shard.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

// The driver is a client of the whole library.
using namespace bismo;

double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);

/// Pixel pitch of every generated clip.
constexpr double kPixelNm = 8.0;
/// Loss target of smo_tat clips and tiled_layout tiles: this fraction of
/// the initial loss (engine().loss_only at initial_theta_m/j).
constexpr double kTargetFraction = 0.9;
/// Halo of the tiled_layout tiles, also used by the ladder's own tiling.
constexpr double kTileHaloNm = 128.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; a later `set` of the same name replaces the value.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  void merge(const MetricSet& other);
  const std::vector<Metric>& items() const noexcept { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one timed window of a workload produced.
struct Window {
  double seconds = 0.0;         ///< measured wall time
  std::size_t attempted = 0;    ///< operations started
  std::size_t failed = 0;       ///< operations whose own check failed
  std::vector<std::string> problems;  ///< first few failure descriptions
  MetricSet e2e;                ///< end-to-end metrics of the window
  MetricSet layer;              ///< per-layer metrics observed in the window
  double primary = 0.0;         ///< traced-vs-untraced comparison value
  /// Resident high-water mark after set-up and the window's first pass
  /// over its corpus (smo_tat, tiled) or its nominal rung (serving): a
  /// fixed amount of work, so a faster run does not read as more memory.
  double peak_rss_mb = 0.0;
  std::string fft_backend;      ///< JobResult.fft_backend of the jobs
  std::string fusion;           ///< JobResult.fusion of the jobs
  std::string invalid;          ///< non-empty: the run cannot be reported

  void fail(const std::string& problem);
};

/// The pieces the layer ladder needs from a workload.
struct LadderInput {
  api::Session* session = nullptr;  ///< warm session of the workload
  api::JobSpec spec;                ///< the workload's own grid and method
  api::JobResult result;            ///< a finished job of that spec
  /// The tiled workload's own layout and plan options (null elsewhere:
  /// the ladder then tiles a generated layout at the workload's grid).
  const Layout* tiled_layout = nullptr;
  api::JobSpec tiled_base;
  shard::ShardOptions shard_options;
};

/// One benchmark workload.  The driver constructs it, runs `setup`
/// (everything before timed work; timed as setup_s), then `measure`.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual Window measure(double seconds, SpanRecorder* spans) = 0;
  virtual LadderInput ladder_input() = 0;
  /// Parallel width of the whole workload.
  virtual std::string thread_summary() const = 0;
};

/// The layer ladder: times each layer's public functions on the
/// workload's own grid and method (warmed up, medians of repeats) and adds
/// every per-layer metric that the window itself did not observe.
void run_ladder(const LadderInput& input, SpanRecorder* spans, MetricSet& layer);

// -- Job construction ---------------------------------------------------

/// splitmix64 of (seed, salt): every generated input derives from the seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Iteration budget of one job.
struct Budget {
  int outer_steps = 1;
  int am_cycles = 1;
  int am_steps = 1;  ///< SO and MO steps per AM cycle
};

/// A generated clip of `dataset` whose tile covers `dim` pixels of the
/// benchmark's fixed pitch.
Layout make_clip(DatasetKind dataset, std::size_t dim, std::uint64_t seed);

/// A clip of blocks x blocks generated clips of `block_px` pixels each,
/// side by side.  Composite clips average over more generated geometry
/// (lower clip-to-clip spread), and generating a large layout block by
/// block is much faster than in one call.
Layout make_composite_clip(DatasetKind dataset, std::size_t blocks, std::size_t block_px,
                           std::uint64_t seed);

/// The benchmark's job: Nj = 9 conventional start source, T = 2, K = 3.
api::JobSpec make_spec(const Layout& clip, std::size_t dim, Method method,
                       const Budget& budget, bool evaluate_solution);

bool same_bits(const RealGrid& a, const RealGrid& b);

/// Per-job observation through the JobEvent feed: step losses with their
/// arrival times and the finished event.  Observer calls are serialized by
/// the submitter; the driver thread reads only after `wait_finished`.
struct JobWatch {
  Clock::time_point reference{};   ///< submission (or scheduled) time
  std::vector<StepSample> steps;
  bool finished = false;
  Clock::time_point finished_at{};
  std::uint64_t span_parent = 0;
  std::atomic<std::size_t>* finished_counter = nullptr;  ///< optional
  std::mutex mutex;  ///< guards steps / finished / finished_at
  std::condition_variable cv;

  /// Block until the finished event arrives or `timeout_s` passes.
  bool wait_finished(double timeout_s);
};

/// Observer feeding `watch` (which must outlive every event of the job).
api::JobEventObserver watch_observer(JobWatch* watch, SpanRecorder* spans);

/// Serving counters of the api layer over a window (Session::stats()
/// deltas): coalesce, steal, workspace- and pool-reuse ratios with their
/// base count.
void add_api_stats(const api::Session::Stats& before,
                   const api::Session::Stats& after, MetricSet& layer);

/// Percentiles of per-call timings for the api layer and the caller.
void add_percentiles(const std::string& name, const std::vector<double>& values,
                     const std::string& unit, MetricSet& layer);

// -- Process measurements -------------------------------------------------

/// The process's resident high-water mark in MB (getrusage ru_maxrss).
double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
