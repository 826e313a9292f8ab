// serve_mixed: open-loop serving under a mixed load.
//
// One generator thread sends a precomputed schedule at fixed rates, one
// rung at a time; each rung drains before the next starts.  The first rung
// runs at kNominalRate for kNominalShare of the window and gives the
// latency metrics.  The search rungs share the rest of the window and look
// for the highest rate whose tail latency meets kLatencyLimitMs without a
// growing backlog (RateSearch: grow by kSearchGrowth until a rung fails,
// then bisect).  There are at least kMinSearchRungs of them, and more
// while no passing and failing rate bracket the answer yet; a search that
// finds no bracket within kMaxSearchRungs makes the run invalid.
// Set-up ends with kPrimeS seconds of the stream at the nominal rate, so
// lazily created lanes and pools exist before timing.
// Most jobs are tiny (kTinyDim^2 Abbe-MO, one step, no solution
// evaluation, coalesce_key set); every kMediumEvery-th job is medium
// (kMediumDim^2 BiSMO-NMN, kMediumSteps steps, with solution evaluation,
// lanes_hint = session width, so it runs on one lane).
// Every job has a per-job on_event observer, and latency runs from the
// job's *scheduled* send time to its finished event, so a stall also
// delays later jobs.  The jobs go to one in-process Session of width 4.
//
// Checks: every job succeeds (a shed, rejected, failed or timed-out job
// counts as failed and as an infinite latency), losses are finite, and
// every kReferenceEvery-th job is re-run on a fresh in-process Session
// after the window and must match bitwise.  A run whose generator fell
// behind at the nominal rate (median lag above kMaxLagMs) is invalid.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

struct Scheduled {
  std::size_t spec = 0;  ///< index into the spec pool
  bool medium = false;
  double at_s = 0.0;     ///< send time relative to the rung start
};

struct Sent {
  Clock::time_point scheduled{};
  Clock::time_point sent{};
  JobWatch watch;
  api::JobHandle handle;
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    api::Session::Options options;
    options.threads = kWidth;
    session_ = std::make_unique<api::Session>(options);
    make_pool();
    // Warm-up: both job shapes, once per lane.
    std::vector<std::unique_ptr<Sent>> sent;
    for (std::size_t copy = 0; copy < kWidth; ++copy) {
      for (std::size_t index : {copy, kTinyClips + copy}) {
        auto s = std::make_unique<Sent>();
        s->scheduled = s->sent = s->watch.reference = Clock::now();
        s->handle = session_->submit(pool_[index], submit_options(index, s->watch, nullptr));
        sent.push_back(std::move(s));
      }
    }
    for (auto& s : sent) {
      const api::JobResult& r = s->handle.wait();
      if (!r.ok()) throw std::runtime_error("warm-up job failed: " + r.error);
      if (!s->watch.wait_finished(kJobTimeoutS)) {
        throw std::runtime_error("warm-up job sent no finished event");
      }
    }
    medium_result_ = sent.back()->handle.wait();

    // Prime: a short stretch of the stream at the nominal rate, so the
    // lanes, lane pools and workspaces of every width the scheduler picks
    // under load exist before timing starts.
    const std::vector<Scheduled> schedule = make_schedule(kNominalRate, kPrimeS, kPrimeRung);
    std::vector<api::JobHandle> primed;
    const Clock::time_point start = Clock::now();
    for (const Scheduled& job : schedule) {
      std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(job.at_s)));
      primed.push_back(session_->submit(pool_[job.spec], stream_options(job.spec)));
    }
    for (const api::JobHandle& h : primed) {
      if (!h.wait().ok()) throw std::runtime_error("priming job failed: " + h.wait().error);
    }
  }

  Window measure(double seconds, SpanRecorder* spans) override {
    Window w;
    Samples samples;
    const api::Session::Stats before = session_->stats();
    const Clock::time_point t0 = Clock::now();

    // The nominal rung gives the latency metrics.
    RateSearch search(kLatencyLimitMs, kSearchGrowth);
    search.record(run_rung(0, kNominalRate, seconds * kNominalShare, true, w, samples, spans));
    w.peak_rss_mb = peak_rss_mb();
    // The generator must keep its schedule at the nominal rate; the search
    // rungs deliberately overload the machine, which delays it too.  It has
    // fallen behind when it is late typically (median), not when the host
    // stalls it now and then: latency counts from the scheduled time, so a
    // stall still shows in the latencies.
    const TailPercentile lag = tail_percentile(samples.lag_ms);
    const double typical_lag = median(samples.lag_ms);
    const double rung_s = seconds * (1.0 - kNominalShare) / static_cast<double>(kMinSearchRungs);
    std::size_t rungs = 0;
    while (rungs < kMaxSearchRungs && (rungs < kMinSearchRungs || !search.bracketed())) {
      ++rungs;
      search.record(run_rung(rungs, search.next_rate(), rung_s, false, w, samples, spans));
    }
    w.seconds = seconds_since(t0);
    add_api_stats(before, session_->stats(), w.layer);
    check_against_reference(samples.checked, w, spans);

    if (typical_lag > kMaxLagMs) {
      w.invalid = "generator fell behind: median lag " + std::to_string(typical_lag) +
                  " ms > " + std::to_string(kMaxLagMs) + " ms";
    } else if (!search.bracketed()) {
      w.invalid = "rate search found no passing and failing rate in " +
                  std::to_string(rungs) + " rungs";
    }
    const double p50 = median(samples.nominal_latency);
    w.e2e.set("latency_p50_ms", p50, "ms");
    w.e2e.set("latency_p99_ms", tail_percentile(samples.nominal_latency).value, "ms");
    w.e2e.set("jobs_per_s", search.max_rate(), "1/s");
    w.e2e.set("tat_s", median(samples.nominal_first_step), "s");
    w.e2e.set("l2_pvb_nm2", mean(samples.medium_l2_pvb), "nm2");
    w.primary = p50;

    add_percentiles("api.submit_us", samples.submit_us, "us", w.layer);
    add_percentiles("api.queued_ms", samples.queued_ms, "ms", w.layer);
    w.layer.set("api.run_ms.p50", median(samples.run_ms), "ms");
    w.layer.set("core.outer_step_ms", mean(samples.medium_step_ms), "ms");
    w.layer.set("core.grad_evals_per_step",
                static_cast<double>(medium_result_.run.gradient_evaluations) /
                    static_cast<double>(medium_result_.run.trace.size()),
                "count");
    // Serving has no loss target: the first step is the target.
    w.layer.set("core.steps_to_target", 1.0, "count");
    w.layer.set("core.target_misses", 0.0, "count");
    w.layer.set("gen.lag_ms.p99", lag.value, "ms");
    return w;
  }

  LadderInput ladder_input() override {
    LadderInput in;
    in.session = session_.get();
    in.spec = pool_[kTinyClips];
    in.result = medium_result_;
    return in;
  }

  std::string thread_summary() const override {
    return "session width " + std::to_string(kWidth) + ", 1 generator thread";
  }

 private:
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kTinyDim = 32;
  static constexpr std::size_t kMediumDim = 64;
  static constexpr std::size_t kTinyClips = 256;   ///< distinct tiny clips in the pool
  // The nominal tail is about the 90th percentile of the medium jobs' run
  // time.  With few distinct medium clips a few expensive ones set it and
  // it follows the seed; with many it follows the clip generator.
  static constexpr std::size_t kMediumClips = 128;
  static constexpr std::size_t kMediumEvery = 10;
  static constexpr int kMediumSteps = 3;
  static constexpr double kNominalRate = 400.0;   ///< jobs/s
  static constexpr double kNominalShare = 0.6;    ///< of the window
  static constexpr double kLatencyLimitMs = 100.0;
  // Two growth rungs reach overload on a 4-core host and leave four to
  // bisect: a final bracket of 2^(1/16), about 4%.
  static constexpr double kSearchGrowth = 2.0;
  static constexpr std::size_t kMinSearchRungs = 6;
  static constexpr std::size_t kMaxSearchRungs = 12;
  static constexpr double kMaxLagMs = 2.0;  ///< median generator lag, nominal rung
  static constexpr std::size_t kReferenceEvery = 50;
  static constexpr double kPrimeS = 0.5;
  static constexpr double kJobTimeoutS = 60.0;
  static constexpr std::size_t kPrimeRung = 1000;  ///< stream index of the prime

  /// Everything the rungs of one window sample.
  struct Samples {
    std::vector<double> lag_ms, submit_us, queued_ms, run_ms;
    std::vector<double> nominal_latency, nominal_first_step, medium_l2_pvb, medium_step_ms;
    std::size_t jobs = 0;
    std::vector<std::pair<std::size_t, api::JobResult>> checked;  ///< (spec, result)
  };

  /// Send one rung of the stream at `rate` for `duration`, wait for every
  /// job, check and sample it, and return the rung's tail and backlog.
  Rung run_rung(std::size_t index, double rate, double duration, bool nominal, Window& w,
                Samples& samples, SpanRecorder* spans) {
    const std::vector<Scheduled> schedule = make_schedule(rate, duration, index);
    std::vector<std::unique_ptr<Sent>> sent;
    sent.reserve(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) sent.push_back(std::make_unique<Sent>());
    const std::size_t finished_before = finished_.load();
    std::size_t mid_backlog = 0;
    Span rung_span(spans, "serve.rung", 0);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Sent& s = *sent[i];
      s.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(schedule[i].at_s));
      std::this_thread::sleep_until(s.scheduled);
      s.sent = Clock::now();
      samples.lag_ms.push_back(ms_between(s.scheduled, s.sent));
      s.watch.reference = s.scheduled;
      s.watch.finished_counter = &finished_;
      s.watch.span_parent = rung_span.id();
      api::SubmitOptions options = submit_options(schedule[i].spec, s.watch, spans);
      {
        Span span(spans, "api.submit", 0, rung_span.id());
        s.handle = session_->submit(pool_[schedule[i].spec], std::move(options));
      }
      samples.submit_us.push_back(ms_between(s.sent, Clock::now()) * 1e3);
      if (i + 1 == schedule.size() / 2) {
        mid_backlog = i + 1 - (finished_.load() - finished_before);
      }
    }
    const std::size_t end_backlog = schedule.size() - (finished_.load() - finished_before);
    std::vector<double> latency;
    // A job that times out, fails or is shed misses every latency limit:
    // it counts as an infinite latency in the rung and the nominal tail.
    auto record_latency = [&](double ms) {
      latency.push_back(ms);
      if (nominal) samples.nominal_latency.push_back(ms);
    };
    constexpr double kMissed = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Sent& s = *sent[i];
      ++w.attempted;
      if (!s.watch.wait_finished(kJobTimeoutS)) {
        w.fail("job sent no finished event within the timeout");
        s.handle.cancel();
        record_latency(kMissed);
        continue;
      }
      const api::JobResult& result = s.handle.wait();
      if (w.fft_backend.empty()) {
        w.fft_backend = result.fft_backend;
        w.fusion = result.fusion;
      }
      bool ok = result.ok() && !result.cancelled() && !result.shed;
      for (const StepSample& step : s.watch.steps) ok = ok && std::isfinite(step.loss);
      if (!ok) {
        w.fail(result.job_name + ": failed, shed or non-finite: " + result.error);
        record_latency(kMissed);
        continue;
      }
      const double ms = ms_between(s.scheduled, s.watch.finished_at);
      record_latency(ms);
      samples.queued_ms.push_back(result.queued_ms);
      samples.run_ms.push_back(result.run_ms);
      if (nominal) {
        samples.nominal_first_step.push_back(
            time_to_target(s.watch.steps, std::numeric_limits<double>::infinity(), ms / 1e3)
                .seconds);
      }
      if (schedule[i].medium) {
        const double l2_pvb = result.after.l2_nm2 + result.after.pvb_nm2;
        if (!std::isfinite(l2_pvb)) w.fail(result.job_name + ": non-finite L2+PVB");
        // Quality comes from the nominal rung only: its jobs are the same
        // in every run of one seed.
        if (nominal) samples.medium_l2_pvb.push_back(l2_pvb);
        samples.medium_step_ms.push_back(result.run.wall_seconds * 1e3 /
                                         static_cast<double>(result.run.trace.size()));
      }
      if (samples.jobs++ % kReferenceEvery == 0 ||
          (schedule[i].medium && samples.checked.size() < 64)) {
        samples.checked.emplace_back(schedule[i].spec, result);
      }
    }
    Rung rung;
    rung.rate = rate;
    rung.tail_ms = tail_percentile(latency).value;
    // The backlog grew when more jobs were outstanding at the end of the
    // sending period than halfway through it (beyond a small slack).
    const double slack = 8.0 + 0.02 * static_cast<double>(schedule.size());
    rung.backlog_grew =
        static_cast<double>(end_backlog) > static_cast<double>(mid_backlog) + slack;
    std::fprintf(stderr, "perfbench: rung %.0f jobs/s: %zu jobs, tail %.2f ms, backlog %zu -> %zu\n",
                 rate, schedule.size(), rung.tail_ms, mid_backlog, end_backlog);
    // Keep the watches alive with the workload (a job that timed out may
    // still deliver events) but release the results.
    for (auto& s : sent) {
      s->handle = api::JobHandle();
      sent_.push_back(std::move(s));
    }
    return rung;
  }

  /// Distinct tiny clips first, then the medium ones; the stream picks
  /// from this pool by seeded index.
  void make_pool() {
    Budget tiny;
    tiny.outer_steps = 1;
    Budget medium;
    medium.outer_steps = kMediumSteps;
    for (std::size_t i = 0; i < kTinyClips + kMediumClips; ++i) {
      const bool is_medium = i >= kTinyClips;
      const std::size_t dim = is_medium ? kMediumDim : kTinyDim;
      api::JobSpec spec =
          make_spec(make_clip(static_cast<DatasetKind>(i % 3), dim, derive_seed(seed_, 2000 + i)),
                    dim, is_medium ? Method::kBismoNmn : Method::kAbbeMo,
                    is_medium ? medium : tiny, is_medium);
      spec.name = (is_medium ? "medium" : "tiny") + std::to_string(i);
      fingerprints_.push_back(is_medium ? 0 : spec.coalesce_fingerprint());
      pool_.push_back(std::move(spec));
    }
  }

  /// Constant-rate schedule of one rung: every kMediumEvery-th job is
  /// medium, and the clips derive from the seed and the rung index.
  std::vector<Scheduled> make_schedule(double rate, double duration, std::size_t rung) const {
    const auto n = static_cast<std::size_t>(std::llround(rate * duration));
    std::vector<Scheduled> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t h = derive_seed(seed_, (rung + 1) * 1000003 + i);
      out[i].medium = i % kMediumEvery == kMediumEvery - 1;
      out[i].spec = out[i].medium ? kTinyClips + h % kMediumClips : h % kTinyClips;
      out[i].at_s = static_cast<double>(i) / rate;
    }
    return out;
  }

  /// How the stream submits a job of the pool.
  api::SubmitOptions stream_options(std::size_t spec) const {
    api::SubmitOptions options;
    options.coalesce_key = fingerprints_[spec];
    // A medium job expects to share the session (as run_batch's windows
    // do), so it runs on one lane.  Without the hint its width follows the
    // dispatches in flight when it starts, and the nominal tail -- about
    // the medium jobs' p90 -- flipped between width modes from run to run.
    if (spec >= kTinyClips) options.lanes_hint = kWidth;
    return options;
  }

  /// stream_options plus a per-job observer feeding `watch`.
  api::SubmitOptions submit_options(std::size_t spec, JobWatch& watch, SpanRecorder* spans) const {
    api::SubmitOptions options = stream_options(spec);
    options.on_event = watch_observer(&watch, spans);
    return options;
  }

  api::Session& reference_session() {
    if (!reference_) {
      api::Session::Options options;
      options.threads = kWidth;
      reference_ = std::make_unique<api::Session>(options);
    }
    return *reference_;
  }

  /// Re-run the sampled jobs on a fresh in-process session; results must
  /// be bitwise identical to what the workload's session returned.
  void check_against_reference(const std::vector<std::pair<std::size_t, api::JobResult>>& checked,
                               Window& w, SpanRecorder* spans) {
    Span span(spans, "serve.reference_check", 0);
    std::vector<api::JobSpec> specs;
    for (const auto& c : checked) specs.push_back(pool_[c.first]);
    api::Session::BatchOptions batch;
    batch.concurrency = kWidth;
    const std::vector<api::JobResult> reference = reference_session().run_batch(specs, batch);
    for (std::size_t i = 0; i < checked.size(); ++i) {
      const api::JobResult& got = checked[i].second;
      if (!reference[i].ok() || !same_bits(reference[i].run.theta_m, got.run.theta_m) ||
          !same_bits(reference[i].run.theta_j, got.run.theta_j)) {
        w.fail(got.job_name + ": result differs from the in-process reference");
      }
    }
  }

  std::uint64_t seed_;
  // Declared before the session so they outlive its last event.
  std::atomic<std::size_t> finished_{0};
  std::vector<std::unique_ptr<Sent>> sent_;
  std::unique_ptr<api::Session> session_;
  std::unique_ptr<api::Session> reference_;
  std::vector<api::JobSpec> pool_;
  std::vector<std::uint64_t> fingerprints_;
  api::JobResult medium_result_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace perfbench
