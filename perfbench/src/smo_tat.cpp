// smo_tat.<method>: the paper's time-to-target and quality comparison.
//
// Closed loop: one caller, one job in flight, submit + wait on an
// in-process Session of width 4.  The corpus is kClips clips at kDim^2,
// Nj = 9, taken in turn from ICCAD13, ICCAD-L and ISPD19; each clip is
// kBlocks x kBlocks generated blocks.  Every clip runs the workload's
// method at a fixed budget; the loop cycles through the corpus until the
// window ends, always finishing at least one full pass.  Each clip's
// target loss is kTargetFraction of its initial loss (engine().loss_only
// at initial_theta_m/j).
//
// A clip that never reaches its target is censored: it contributes the
// job's full time to tat_s and counts in core.target_misses.
//
// Checks per job: the job succeeded, every observed loss is finite, and a
// repeated clip returns bitwise-identical final theta_M and theta_J (the
// warm-up run in set-up is the first repeat reference for clip 0).
#include <cmath>
#include <optional>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

struct ClipRecord {
  RealGrid theta_m;
  RealGrid theta_j;
  double l2_pvb = 0.0;
  int steps_to_target = 0;
  bool target_missed = false;
  double grad_evals_per_step = 0.0;
  double outer_step_ms = 0.0;
};

class SmoTat final : public Workload {
 public:
  SmoTat(Method method, std::uint64_t seed) : method_(method), seed_(seed) {}

  void setup() override {
    api::Session::Options options;
    options.threads = kWidth;
    session_ = std::make_unique<api::Session>(options);
    Budget budget;
    budget.outer_steps = kOuterSteps;
    budget.am_cycles = kAmCycles;
    budget.am_steps = kAmSteps;
    for (std::size_t i = 0; i < kClips; ++i) {
      const auto dataset = static_cast<DatasetKind>(i % 3);
      const Layout clip =
          make_composite_clip(dataset, kBlocks, kDim / kBlocks, derive_seed(seed_, i));
      api::JobSpec spec = make_spec(clip, kDim, method_, budget, true);
      spec.name = "clip" + std::to_string(i);
      const auto problem = session_->make_problem(spec);
      const double initial =
          problem->engine()
              .loss_only(problem->initial_theta_m(), problem->initial_theta_j())
              .total;
      targets_.push_back(kTargetFraction * initial);
      corpus_.push_back(std::move(spec));
    }
    records_.assign(corpus_.size(), std::nullopt);
    tat_by_clip_.assign(corpus_.size(), {});
    // One warm-up job of the workload's single shape; its result is the
    // repeat reference for clip 0.
    Window warm;
    run_case(0, warm, nullptr);
    if (warm.failed != 0) {
      throw std::runtime_error("warm-up job failed: " + warm.problems.front());
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    Window w;
    latency_ms_.clear();
    submit_us_.clear();
    queued_ms_.clear();
    run_ms_.clear();
    caller_lag_ms_.clear();
    tat_by_clip_.assign(corpus_.size(), {});
    last_finish_ = {};
    const api::Session::Stats before = session_->stats();
    const Clock::time_point t0 = Clock::now();
    std::size_t done = 0;
    while (done < corpus_.size() || seconds_since(t0) < seconds) {
      run_case(done % corpus_.size(), w, spans);
      if (++done == corpus_.size()) w.peak_rss_mb = peak_rss_mb();
    }
    w.seconds = seconds_since(t0);
    add_api_stats(before, session_->stats(), w.layer);

    std::vector<double> clip_tat;
    std::vector<double> l2_pvb;
    std::vector<double> steps;
    std::vector<double> evals;
    std::vector<double> step_ms;
    std::size_t target_misses = 0;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      if (!tat_by_clip_[i].empty()) clip_tat.push_back(mean(tat_by_clip_[i]));
      if (!records_[i]) continue;  // the clip's only case failed
      const ClipRecord& r = *records_[i];
      l2_pvb.push_back(r.l2_pvb);
      steps.push_back(r.steps_to_target);
      evals.push_back(r.grad_evals_per_step);
      step_ms.push_back(r.outer_step_ms);
      if (r.target_missed) ++target_misses;
    }
    const double tat = mean(clip_tat);
    w.e2e.set("latency_p50_ms", median(latency_ms_), "ms");
    w.e2e.set("latency_p99_ms", tail_percentile(latency_ms_).value, "ms");
    w.e2e.set("jobs_per_s", static_cast<double>(done) / w.seconds, "1/s");
    w.e2e.set("tat_s", tat, "s");
    w.e2e.set("l2_pvb_nm2", mean(l2_pvb), "nm2");
    w.primary = tat;

    add_percentiles("api.submit_us", submit_us_, "us", w.layer);
    add_percentiles("api.queued_ms", queued_ms_, "ms", w.layer);
    w.layer.set("api.run_ms.p50", median(run_ms_), "ms");
    w.layer.set("core.outer_step_ms", mean(step_ms), "ms");
    w.layer.set("core.grad_evals_per_step", mean(evals), "count");
    w.layer.set("core.steps_to_target", mean(steps), "count");
    w.layer.set("core.target_misses", static_cast<double>(target_misses), "count");
    w.layer.set("gen.lag_ms.p99", tail_percentile(caller_lag_ms_).value, "ms");
    return w;
  }

  LadderInput ladder_input() override {
    LadderInput in;
    in.session = session_.get();
    in.spec = corpus_.front();
    in.result = warm_result_;
    return in;
  }

  std::string thread_summary() const override {
    return "session width " + std::to_string(kWidth) + ", 1 caller";
  }

 private:
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kBlocks = 2;  ///< composite clips of 2 x 2 blocks
  static constexpr std::size_t kClips = 12;
  static constexpr int kOuterSteps = 20;
  static constexpr int kAmCycles = 2;  ///< AM-SMO: cycles of kAmSteps SO + kAmSteps MO
  static constexpr int kAmSteps = 10;
  static constexpr double kJobTimeoutS = 120.0;

  void run_case(std::size_t clip, Window& w, SpanRecorder* spans) {
    ++w.attempted;
    bool failed = false;  // one failure per operation, first problem kept
    auto fail = [&](const std::string& problem) {
      if (!failed) w.fail(problem);
      failed = true;
    };
    Span job_span(spans, "smo.job", 0);
    auto owned = std::make_unique<JobWatch>();
    JobWatch& watch = *owned;
    watch.span_parent = job_span.id();
    api::SubmitOptions options;
    options.on_event = watch_observer(&watch, spans);
    watch.reference = Clock::now();
    if (last_finish_ != Clock::time_point{}) {
      caller_lag_ms_.push_back(ms_between(last_finish_, watch.reference));
    }
    api::JobHandle handle;
    {
      Span span(spans, "api.submit", 0, job_span.id());
      handle = session_->submit(corpus_[clip], options);
    }
    submit_us_.push_back(ms_between(watch.reference, Clock::now()) * 1e3);
    bool finished_in_time = false;
    {
      Span span(spans, "api.wait", handle.id(), job_span.id());
      finished_in_time = watch.wait_finished(kJobTimeoutS);
    }
    if (!finished_in_time) {
      fail(corpus_[clip].name + ": no finished event within the timeout");
      handle.cancel();
      // The cancelled job still delivers events: keep its watch alive.
      abandoned_.push_back(std::move(owned));
      return;
    }
    const api::JobResult& result = handle.wait();
    last_finish_ = watch.finished_at;
    const double latency_s = ms_between(watch.reference, watch.finished_at) / 1e3;
    latency_ms_.push_back(latency_s * 1e3);
    queued_ms_.push_back(result.queued_ms);
    run_ms_.push_back(result.run_ms);
    if (w.fft_backend.empty()) {
      w.fft_backend = result.fft_backend;
      w.fusion = result.fusion;
    }
    if (!result.ok() || result.cancelled()) {
      fail(corpus_[clip].name + ": job failed: " + result.error);
      return;
    }
    for (const StepSample& s : watch.steps) {
      if (!std::isfinite(s.loss)) {
        fail(corpus_[clip].name + ": non-finite loss at step " + std::to_string(s.step));
        return;
      }
    }
    const Crossing crossing = time_to_target(watch.steps, targets_[clip], latency_s);
    // A miss is a result, not a broken output: it is censored at the
    // job's full time (and counted once per clip in core.target_misses).
    tat_by_clip_[clip].push_back(crossing.seconds);
    std::optional<ClipRecord>& record = records_[clip];
    if (record) {
      if (!same_bits(record->theta_m, result.run.theta_m) ||
          !same_bits(record->theta_j, result.run.theta_j)) {
        fail(corpus_[clip].name + ": repeated case is not bitwise identical");
      }
      return;
    }
    ClipRecord r;
    r.theta_m = result.run.theta_m;
    r.theta_j = result.run.theta_j;
    r.l2_pvb = result.after.l2_nm2 + result.after.pvb_nm2;
    r.steps_to_target = crossing.step;
    r.target_missed = !crossing.reached;
    const double steps = static_cast<double>(result.run.trace.size());
    r.grad_evals_per_step = static_cast<double>(result.run.gradient_evaluations) / steps;
    r.outer_step_ms = result.run.wall_seconds * 1e3 / steps;
    if (!std::isfinite(r.l2_pvb)) {
      fail(corpus_[clip].name + ": non-finite L2 + PVB");
    }
    record = std::move(r);
    if (clip == 0) warm_result_ = result;
  }

  Method method_;
  std::uint64_t seed_;
  // Watches of timed-out jobs; declared before the session so they
  // outlive its last event.
  std::vector<std::unique_ptr<JobWatch>> abandoned_;
  std::unique_ptr<api::Session> session_;
  std::vector<api::JobSpec> corpus_;
  std::vector<double> targets_;
  std::vector<std::optional<ClipRecord>> records_;
  api::JobResult warm_result_;
  // Per-window samples.
  std::vector<double> latency_ms_, submit_us_, queued_ms_, run_ms_, caller_lag_ms_;
  std::vector<std::vector<double>> tat_by_clip_;
  Clock::time_point last_finish_{};
};

}  // namespace

std::unique_ptr<Workload> make_smo_tat(Method method, std::uint64_t seed) {
  return std::make_unique<SmoTat>(method, seed);
}

}  // namespace perfbench
