// tiled_layout: full-layout tiled throughput.
//
// Closed loop over a corpus of kLayouts generated large layouts (kGrid x
// kGrid generated blocks of kCorePx pixels, ICCAD13 / ICCAD-L / ISPD19 in
// turn).  Each layout is cut into kGrid x kGrid overlapping Abbe-MO tiles
// (kCorePx cores, kTileHaloNm halo) and run through shard::TileScheduler
// on an in-process Session of width 4: plan, concurrent sweep, stitch and
// full-layout evaluation.  A tile's time to target runs from the sweep's
// start to its first step at or below kTargetFraction of the tile's
// initial loss, observed through the session-wide JobEvent feed.
//
// A tile that never reaches its target is censored at its finish time and
// counted in core.target_misses.
//
// Checks per layout: every tile is ok(), the stitched metrics are finite,
// and a repeated layout stitches a bitwise-identical mask.
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "common.hpp"
#include "shard/shard.hpp"

namespace perfbench {
namespace {

struct LayoutCase {
  Layout layout;
  api::JobSpec base;
  std::vector<double> tile_targets;
};

struct LayoutRecord {
  RealGrid mask;
  double l2_pvb = 0.0;
  std::size_t target_misses = 0;
  std::vector<double> steps_to_target;  ///< per tile, like the two below
  std::vector<double> grad_evals_per_step;
  std::vector<double> outer_step_ms;
};

/// Tile events of the sweep in flight, fed by the session-wide observer.
struct SweepWatch {
  std::mutex mutex;  ///< guards everything below
  std::condition_variable cv;
  std::size_t layout = 0;
  Clock::time_point start{};
  std::vector<std::vector<StepSample>> steps;  ///< per tile
  std::vector<Clock::time_point> finished_at;  ///< per tile
  std::size_t finished = 0;
  SpanRecorder* spans = nullptr;
  std::uint64_t span_parent = 0;
};

class TiledLayout final : public Workload {
 public:
  explicit TiledLayout(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    api::Session::Options options;
    options.threads = kWidth;
    options.on_event = [this](const api::JobEvent& event) { observe(event); };
    session_ = std::make_unique<api::Session>(options);
    scheduler_ = std::make_unique<shard::TileScheduler>(*session_);
    const std::size_t full_dim = kGrid * kCorePx;
    shard_options_.rows = kGrid;
    shard_options_.cols = kGrid;
    shard_options_.halo_nm = kTileHaloNm;
    Budget budget;
    budget.outer_steps = kOuterSteps;
    for (std::size_t i = 0; i < kLayouts; ++i) {
      LayoutCase c;
      c.layout = make_composite_clip(static_cast<DatasetKind>(i % 3), kGrid, kCorePx,
                                     derive_seed(seed_, 1000 + i));
      c.base = make_spec(c.layout, full_dim, Method::kAbbeMo, budget, false);
      c.base.name = "L" + std::to_string(i);
      const shard::TilePlan plan = scheduler_->plan_for(c.layout, c.base, shard_options_);
      for (const api::JobSpec& tile : scheduler_->tile_specs(c.layout, c.base, plan)) {
        const auto problem = session_->make_problem(tile);
        c.tile_targets.push_back(
            kTargetFraction * problem->engine()
                           .loss_only(problem->initial_theta_m(), problem->initial_theta_j())
                           .total);
        if (tile_spec_.name.empty()) tile_spec_ = tile;
      }
      cases_.push_back(std::move(c));
    }
    records_.assign(cases_.size(), std::nullopt);
    Window warm;
    run_case(0, warm, nullptr);
    if (warm.failed != 0) {
      throw std::runtime_error("warm-up layout failed: " + warm.problems.front());
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    Window w;
    latency_ms_.clear();
    tat_s_.clear();
    queued_ms_.clear();
    run_ms_.clear();
    sweep_s_.clear();
    occupancy_.clear();
    caller_lag_ms_.clear();
    tiles_done_ = 0;
    last_finish_ = {};
    const api::Session::Stats before = session_->stats();
    const Clock::time_point t0 = Clock::now();
    std::size_t done = 0;
    while (done < cases_.size() || seconds_since(t0) < seconds) {
      run_case(done % cases_.size(), w, spans);
      if (++done == cases_.size()) w.peak_rss_mb = peak_rss_mb();
    }
    w.seconds = seconds_since(t0);
    add_api_stats(before, session_->stats(), w.layer);

    std::vector<double> l2_pvb, steps, evals, step_ms;
    std::size_t target_misses = 0;
    for (const auto& record : records_) {
      if (!record) continue;
      l2_pvb.push_back(record->l2_pvb);
      target_misses += record->target_misses;
      steps.insert(steps.end(), record->steps_to_target.begin(), record->steps_to_target.end());
      evals.insert(evals.end(), record->grad_evals_per_step.begin(),
                   record->grad_evals_per_step.end());
      step_ms.insert(step_ms.end(), record->outer_step_ms.begin(), record->outer_step_ms.end());
    }
    const double tiles_per_s = static_cast<double>(tiles_done_) / w.seconds;
    w.e2e.set("latency_p50_ms", median(latency_ms_), "ms");
    w.e2e.set("latency_p99_ms", tail_percentile(latency_ms_).value, "ms");
    w.e2e.set("jobs_per_s", tiles_per_s, "1/s");
    w.e2e.set("tat_s", mean(tat_s_), "s");
    w.e2e.set("l2_pvb_nm2", mean(l2_pvb), "nm2");
    w.primary = w.seconds / static_cast<double>(tiles_done_);  // time-like

    add_percentiles("api.queued_ms", queued_ms_, "ms", w.layer);
    w.layer.set("api.run_ms.p50", median(run_ms_), "ms");
    w.layer.set("core.outer_step_ms", mean(step_ms), "ms");
    w.layer.set("core.grad_evals_per_step", mean(evals), "count");
    w.layer.set("core.steps_to_target", mean(steps), "count");
    w.layer.set("core.target_misses", static_cast<double>(target_misses), "count");
    w.layer.set("shard.sweep_s", mean(sweep_s_), "s");
    w.layer.set("shard.lane_occupancy", mean(occupancy_), "ratio");
    w.layer.set("gen.lag_ms.p99", tail_percentile(caller_lag_ms_).value, "ms");
    return w;
  }

  LadderInput ladder_input() override {
    LadderInput in;
    in.session = session_.get();
    in.spec = tile_spec_;
    in.result = warm_tile_;
    in.tiled_layout = &cases_.front().layout;
    in.tiled_base = cases_.front().base;
    in.shard_options = shard_options_;
    return in;
  }

  std::string thread_summary() const override {
    return "session width " + std::to_string(kWidth) + ", 1 caller";
  }

 private:
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kGrid = 3;     ///< tiles per side
  static constexpr std::size_t kCorePx = 96;  ///< tile core (and block) size
  static constexpr int kOuterSteps = 16;
  static constexpr std::size_t kLayouts = 6;
  static constexpr double kSweepTimeoutS = 120.0;

  void observe(const api::JobEvent& event) {
    if (event.kind != api::JobEvent::Kind::kStep &&
        event.kind != api::JobEvent::Kind::kFinished) {
      return;
    }
    // Sweep tiles are named "L<layout>[row,col]" with batch_index = tile;
    // other jobs of the session (the layer ladder's) are not watched.
    const std::string& name = event.job_name;
    if (name.size() < 2 || name[0] != 'L' || name[1] < '0' || name[1] > '9') return;
    const std::size_t layout = std::strtoul(name.c_str() + 1, nullptr, 10);
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(sweep_.mutex);
    if (layout != sweep_.layout || event.batch_index >= sweep_.steps.size()) return;
    mark(sweep_.spans,
         event.kind == api::JobEvent::Kind::kStep ? "api.step_event" : "api.finished_event",
         event.job_id, sweep_.span_parent);
    if (event.kind == api::JobEvent::Kind::kStep) {
      sweep_.steps[event.batch_index].push_back(StepSample{
          event.step.step, event.step.loss,
          std::chrono::duration<double>(now - sweep_.start).count()});
    } else {
      sweep_.finished_at[event.batch_index] = now;
      ++sweep_.finished;
      sweep_.cv.notify_all();
    }
  }

  void run_case(std::size_t index, Window& w, SpanRecorder* spans) {
    ++w.attempted;
    bool failed = false;  // one failure per operation, first problem kept
    auto fail = [&](const std::string& problem) {
      if (!failed) w.fail(problem);
      failed = true;
    };
    const LayoutCase& c = cases_[index];
    const std::size_t tiles = c.tile_targets.size();
    Span case_span(spans, "tiled.layout", 0);
    const Clock::time_point start = Clock::now();
    if (last_finish_ != Clock::time_point{}) {
      caller_lag_ms_.push_back(ms_between(last_finish_, start));
    }
    {
      std::lock_guard<std::mutex> lock(sweep_.mutex);
      sweep_.layout = index;
      sweep_.start = start;
      sweep_.steps.assign(tiles, {});
      sweep_.finished_at.assign(tiles, Clock::time_point{});
      sweep_.finished = 0;
      sweep_.spans = spans;
      sweep_.span_parent = case_span.id();
    }
    shard::ShardResult result;
    {
      Span span(spans, "shard.run", 0, case_span.id());
      result = scheduler_->run(c.layout, c.base, shard_options_);
    }
    last_finish_ = Clock::now();
    latency_ms_.push_back(ms_between(start, last_finish_));
    // The finished events of the last tiles may still be in delivery.
    std::unique_lock<std::mutex> lock(sweep_.mutex);
    if (!sweep_.cv.wait_for(lock, std::chrono::duration<double>(kSweepTimeoutS),
                            [&] { return sweep_.finished == tiles; })) {
      fail(c.base.name + ": tile finished events missing");
      return;
    }
    if (!result.ok() || result.cancelled || result.tiles.size() != tiles) {
      fail(c.base.name + ": sweep failed: " + result.error);
      return;
    }
    tiles_done_ += tiles;
    sweep_s_.push_back(result.run_seconds);
    double busy_ms = 0.0;
    LayoutRecord record;
    for (std::size_t t = 0; t < tiles; ++t) {
      const api::JobResult& tile = result.tiles[t];
      if (w.fft_backend.empty()) {
        w.fft_backend = tile.fft_backend;
        w.fusion = tile.fusion;
      }
      if (!tile.ok()) fail(tile.job_name + ": tile failed: " + tile.error);
      queued_ms_.push_back(tile.queued_ms);
      run_ms_.push_back(tile.run_ms);
      busy_ms += tile.run_ms;
      const double censor = std::chrono::duration<double>(sweep_.finished_at[t] - start).count();
      const Crossing crossing = time_to_target(sweep_.steps[t], c.tile_targets[t], censor);
      tat_s_.push_back(crossing.seconds);
      if (!crossing.reached) ++record.target_misses;
      for (const StepSample& s : sweep_.steps[t]) {
        if (!std::isfinite(s.loss)) fail(tile.job_name + ": non-finite loss");
      }
      const double tile_steps = static_cast<double>(tile.run.trace.size());
      record.steps_to_target.push_back(crossing.step);
      record.grad_evals_per_step.push_back(
          static_cast<double>(tile.run.gradient_evaluations) / tile_steps);
      record.outer_step_ms.push_back(tile.run.wall_seconds * 1e3 / tile_steps);
    }
    lock.unlock();
    occupancy_.push_back(busy_ms / (static_cast<double>(kWidth) * result.run_seconds * 1e3));
    record.l2_pvb = result.stitched.l2_nm2 + result.stitched.pvb_nm2;
    if (!std::isfinite(record.l2_pvb) || !std::isfinite(result.stitched.loss)) {
      fail(c.base.name + ": non-finite stitched metrics");
    }
    std::optional<LayoutRecord>& previous = records_[index];
    if (previous) {
      if (!same_bits(previous->mask, result.mask)) {
        fail(c.base.name + ": repeated layout stitched a different mask");
      }
      return;
    }
    record.mask = result.mask;
    previous = std::move(record);
    if (index == 0) warm_tile_ = result.tiles.front();
  }

  std::uint64_t seed_;
  SweepWatch sweep_;  ///< declared before the session it observes
  std::unique_ptr<api::Session> session_;
  std::unique_ptr<shard::TileScheduler> scheduler_;
  shard::ShardOptions shard_options_;
  std::vector<LayoutCase> cases_;
  std::vector<std::optional<LayoutRecord>> records_;
  api::JobSpec tile_spec_;
  api::JobResult warm_tile_;
  // Per-window samples.
  std::vector<double> latency_ms_, tat_s_, queued_ms_, run_ms_, sweep_s_, occupancy_,
      caller_lag_ms_;
  std::size_t tiles_done_ = 0;
  Clock::time_point last_finish_{};
};

}  // namespace

std::unique_ptr<Workload> make_tiled_layout(std::uint64_t seed) {
  return std::make_unique<TiledLayout>(seed);
}

}  // namespace perfbench
