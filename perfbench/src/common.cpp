#include "common.hpp"

#include <cstring>
#include <sys/resource.h>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

bool MetricSet::has(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return true;
  }
  return false;
}

void MetricSet::merge(const MetricSet& other) {
  for (const Metric& m : other.items()) set(m.name, m.value, m.unit);
}

void Window::fail(const std::string& problem) {
  ++failed;
  if (problems.size() < 8) problems.push_back(problem);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Layout make_clip(DatasetKind dataset, std::size_t dim, std::uint64_t seed) {
  DatasetSpec spec = dataset_spec(dataset);
  spec.tile_nm = static_cast<double>(dim) * kPixelNm;
  return generate_clip(spec, seed);
}

Layout make_composite_clip(DatasetKind dataset, std::size_t blocks, std::size_t block_px,
                           std::uint64_t seed) {
  const double block_nm = static_cast<double>(block_px) * kPixelNm;
  Layout out(block_nm * static_cast<double>(blocks));
  for (std::size_t b = 0; b < blocks * blocks; ++b) {
    const double dx = block_nm * static_cast<double>(b % blocks);
    const double dy = block_nm * static_cast<double>(b / blocks);
    const Layout block = make_clip(dataset, block_px, derive_seed(seed, b));
    for (const Rect& r : block.rects()) {
      out.add_rect(Rect{r.x0 + dx, r.y0 + dy, r.x1 + dx, r.y1 + dy});
    }
  }
  return out;
}

api::JobSpec make_spec(const Layout& clip, std::size_t dim, Method method,
                       const Budget& budget, bool evaluate_solution) {
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_layout(clip);
  spec.method = method;
  spec.evaluate_solution = evaluate_solution;
  SmoConfig& cfg = spec.config;
  cfg.optics.mask_dim = dim;
  cfg.optics.pixel_nm = kPixelNm;
  cfg.source_dim = 9;
  // The bench-scale start used by the repository's paper benches: a
  // conventional disc with a movable source (see bench/bench_common.cpp).
  cfg.initial_source.shape = SourceShape::kConventional;
  cfg.initial_source.sigma_out = 0.95;
  cfg.activation.source_init = 1.5;
  cfg.unroll_steps = 2;
  cfg.hyper_terms = 3;
  cfg.outer_steps = budget.outer_steps;
  cfg.am_cycles = budget.am_cycles;
  cfg.am_so_steps = budget.am_steps;
  cfg.am_mo_steps = budget.am_steps;
  return spec;
}

bool same_bits(const RealGrid& a, const RealGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool JobWatch::wait_finished(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex);
  return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                     [this] { return finished; });
}

api::JobEventObserver watch_observer(JobWatch* watch, SpanRecorder* spans) {
  return [watch, spans](const api::JobEvent& event) {
    const Clock::time_point now = Clock::now();
    if (event.kind == api::JobEvent::Kind::kStep) {
      mark(spans, "api.step_event", event.job_id, watch->span_parent);
      std::lock_guard<std::mutex> lock(watch->mutex);
      watch->steps.push_back(StepSample{
          event.step.step, event.step.loss,
          std::chrono::duration<double>(now - watch->reference).count()});
    } else if (event.kind == api::JobEvent::Kind::kFinished) {
      mark(spans, "api.finished_event", event.job_id, watch->span_parent);
      if (watch->finished_counter != nullptr) {
        watch->finished_counter->fetch_add(1, std::memory_order_relaxed);
      }
      // Notify under the lock: once the waiter sees `finished` it may
      // destroy the watch, so nothing may touch it after the unlock.
      std::lock_guard<std::mutex> lock(watch->mutex);
      watch->finished = true;
      watch->finished_at = now;
      watch->cv.notify_all();
    }
  };
}

void add_api_stats(const api::Session::Stats& before,
                   const api::Session::Stats& after, MetricSet& layer) {
  const double jobs = static_cast<double>(after.jobs_run - before.jobs_run);
  const double coalesced =
      static_cast<double>(after.coalesced_jobs - before.coalesced_jobs);
  // Coalesced jobs ride another job's dispatch, so dispatches = jobs - them.
  const double dispatches = jobs - coalesced;
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  layer.set("api.jobs_run", jobs, "count");
  layer.set("api.coalesce_ratio", ratio(coalesced, jobs), "ratio");
  layer.set("api.steal_ratio",
            ratio(static_cast<double>(after.steals - before.steals), jobs), "ratio");
  layer.set("api.workspace_reuse_ratio",
            ratio(static_cast<double>(after.workspace_reuses - before.workspace_reuses), jobs),
            "ratio");
  layer.set("api.pool_reuse_ratio",
            ratio(static_cast<double>(after.lane_pool_reuses - before.lane_pool_reuses),
                  dispatches),
            "ratio");
}

void add_percentiles(const std::string& name, const std::vector<double>& values,
                     const std::string& unit, MetricSet& layer) {
  layer.set(name + ".p50", median(values), unit);
  layer.set(name + ".p99", tail_percentile(values).value, unit);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

}  // namespace perfbench
