// The layer ladder of the traced run.  Each layer's public functions are
// called from outside on the workload's own grid, method and clip, warmed
// up, and timed as the median of repeats (every call inside a span).
// Metrics the traced window already measured at the workload's real load
// (shard sweep and occupancy on tiled_layout, submit latencies where the
// workload submits itself) are kept; the ladder adds the rest, so every
// workload reports every layer.
#include <cmath>
#include <complex>
#include <functional>
#include <vector>

#include "common.hpp"
#include "fft/fft.hpp"
#include "grad/hvp.hpp"
#include "net/net.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr double kBudgetS = 0.25;  ///< wall budget per timed call site
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

/// Median wall time of `call` in ms: one warm-up call, then repeats until
/// the budget is spent (at least kMinReps, at most kMaxReps).
double median_ms(SpanRecorder* spans, const char* name, const std::function<void()>& call) {
  {
    Span warm(spans, name);
    call();
  }
  std::vector<double> ms;
  const Clock::time_point t0 = Clock::now();
  while (ms.size() < static_cast<std::size_t>(kMinReps) ||
         (ms.size() < static_cast<std::size_t>(kMaxReps) && seconds_since(t0) < kBudgetS)) {
    Span span(spans, name);
    const Clock::time_point start = Clock::now();
    call();
    ms.push_back(ms_between(start, Clock::now()));
  }
  return median(ms);
}

RealGrid filled_like(const RealGrid& shape, double base) {
  RealGrid out(shape.rows(), shape.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = base + 0.01 * static_cast<double>(i % 7);
  }
  return out;
}

void fft_layer(SpanRecorder* spans, MetricSet& layer) {
  for (std::size_t n : {32, 64, 128, 256}) {
    const std::string suffix = "." + std::to_string(n);
    Fft2dPlan plan(n, n);
    ComplexGrid grid(n, n);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      grid.data()[i] = {std::cos(0.1 * static_cast<double>(i)), 0.0};
    }
    std::vector<std::complex<double>> scratch(std::max<std::size_t>(1, plan.scratch_size()));
    // A forward + normalized inverse pair keeps the data bounded.
    const double pair_ms = median_ms(spans, "fft.fft2_pair", [&] {
      plan.forward(grid, scratch.data());
      plan.inverse(grid, scratch.data());
    });
    const double points = static_cast<double>(n * n);
    layer.set("fft.fft2_us" + suffix, pair_ms * 1e3 / 2.0, "us");
    // Computed, not measured: 5 N log2 N flops for a complex transform of
    // N = n^2 points; two passes (rows, columns), each reading and writing
    // every complex<double> once.
    layer.set("fft.flops" + suffix, 5.0 * points * std::log2(points), "flop");
    layer.set("fft.bytes" + suffix, 2.0 * 2.0 * 16.0 * points, "B");
  }
}

void engine_layers(const LadderInput& in, SpanRecorder* spans, MetricSet& layer) {
  api::Session& session = *in.session;
  std::shared_ptr<SmoProblem> problem;
  layer.set("core.problem_setup_ms", median_ms(spans, "core.make_problem", [&] {
              problem.reset();
              problem = session.make_problem(in.spec);
            }),
            "ms");
  const RealGrid theta_m = problem->initial_theta_m();
  const RealGrid theta_j = problem->initial_theta_j();
  const AbbeGradientEngine& engine = problem->engine();
  layer.set("sim.aerial_ms",
            median_ms(spans, "sim.aerial_image", [&] { problem->aerial_image(theta_m, theta_j); }),
            "ms");
  layer.set("grad.evaluate_ms",
            median_ms(spans, "grad.evaluate", [&] { engine.evaluate(theta_m, theta_j, {true, true}); }),
            "ms");
  layer.set("grad.evaluate_mask_ms", median_ms(spans, "grad.evaluate_mask", [&] {
              engine.evaluate(theta_m, theta_j, {true, false});
            }),
            "ms");
  layer.set("grad.evaluate_source_ms", median_ms(spans, "grad.evaluate_source", [&] {
              engine.evaluate(theta_m, theta_j, {false, true});
            }),
            "ms");
  layer.set("grad.loss_only_ms",
            median_ms(spans, "grad.loss_only", [&] { engine.loss_only(theta_m, theta_j); }), "ms");
  const HypergradientOps ops(engine, problem->config().fd_eps_scale);
  const RealGrid v = filled_like(theta_j, 0.1);
  layer.set("grad.hvp_source_ms",
            median_ms(spans, "grad.hvp_source", [&] { ops.hvp_source(theta_m, theta_j, v); }),
            "ms");
  layer.set("grad.mixed_ms", median_ms(spans, "grad.mixed_mask_source", [&] {
              ops.mixed_mask_source(theta_m, theta_j, v);
            }),
            "ms");
  layer.set("metrics.evaluate_solution_ms", median_ms(spans, "metrics.evaluate_solution", [&] {
              problem->evaluate_solution(theta_m, theta_j);
            }),
            "ms");

  // parallel: the same evaluate on a 1-thread and a 4-thread pool.
  ThreadPool one(1);
  ThreadPool four(4);
  const SmoProblem narrow(problem->config(), problem->target(), &one);
  const SmoProblem wide(problem->config(), problem->target(), &four);
  const double narrow_ms = median_ms(spans, "parallel.evaluate_1", [&] {
    narrow.engine().evaluate(theta_m, theta_j, {true, true});
  });
  const double wide_ms = median_ms(spans, "parallel.evaluate_4", [&] {
    wide.engine().evaluate(theta_m, theta_j, {true, true});
  });
  layer.set("parallel.evaluate_speedup", narrow_ms / wide_ms, "ratio");
}

/// The workload's spec cut down to one step: the jobs the ladder submits
/// measure per-job overheads, not optimization.
api::JobSpec one_step(const api::JobSpec& spec, const std::string& name) {
  api::JobSpec out = spec;
  out.name = name;
  out.config.outer_steps = 1;
  out.config.am_cycles = 1;
  out.config.am_so_steps = 1;
  out.config.am_mo_steps = 1;
  return out;
}

void api_probe(const LadderInput& in, SpanRecorder* spans, MetricSet& layer) {
  constexpr std::size_t kJobs = 16;
  const api::JobSpec spec = one_step(in.spec, "ladder-api");
  std::vector<double> submit_us;
  std::vector<api::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    Span span(spans, "api.submit");
    const Clock::time_point start = Clock::now();
    handles.push_back(in.session->submit(spec));
    submit_us.push_back(ms_between(start, Clock::now()) * 1e3);
  }
  for (const api::JobHandle& h : handles) h.wait();
  add_percentiles("api.submit_us", submit_us, "us", layer);
}

void shard_layer(const LadderInput& in, SpanRecorder* spans, MetricSet& layer) {
  shard::TileScheduler scheduler(*in.session);
  Layout generated;
  const Layout* layout = in.tiled_layout;
  api::JobSpec base = in.tiled_base;
  shard::ShardOptions options = in.shard_options;
  if (layout == nullptr) {
    // A 2 x 2 tiling whose windows have the workload's own grid.
    const std::size_t dim = in.spec.config.optics.mask_dim;
    const double pixel_nm = in.spec.config.optics.pixel_nm;
    auto halo_px = static_cast<std::size_t>(std::ceil(kTileHaloNm / pixel_nm));
    if (2 * halo_px >= dim) halo_px = dim / 4;
    const std::size_t full_dim = 2 * (dim - 2 * halo_px);
    generated = make_clip(DatasetKind::kIccad13, full_dim, 7);
    layout = &generated;
    base = one_step(in.spec, "ladder-tile");
    base.evaluate_solution = false;
    base.config.optics.mask_dim = full_dim;
    options = shard::ShardOptions{};
    options.rows = 2;
    options.cols = 2;
    options.halo_nm = static_cast<double>(halo_px) * pixel_nm;
  }
  shard::TilePlan plan;
  std::vector<api::JobSpec> specs;
  layer.set("shard.plan_ms", median_ms(spans, "shard.plan", [&] {
              plan = scheduler.plan_for(*layout, base, options);
              specs = scheduler.tile_specs(*layout, base, plan);
            }),
            "ms");
  std::vector<RealGrid> tiles(plan.tile_count(),
                              filled_like(RealGrid(plan.tile_dim(), plan.tile_dim()), 0.3));
  layer.set("shard.stitch_ms",
            median_ms(spans, "shard.stitch", [&] { shard::stitch(plan, tiles); }), "ms");
  if (layer.has("shard.sweep_s")) return;
  // A concurrent sweep of the one-step tiles, submitted like the scheduler
  // does (lanes_hint = tiles in flight).
  Span span(spans, "shard.sweep");
  const Clock::time_point start = Clock::now();
  std::vector<api::JobHandle> handles;
  for (const api::JobSpec& spec : specs) {
    api::SubmitOptions submit;
    submit.lanes_hint = std::min<std::size_t>(specs.size(), in.session->width());
    handles.push_back(in.session->submit(spec, submit));
  }
  double busy_ms = 0.0;
  for (const api::JobHandle& h : handles) busy_ms += h.wait().run_ms;
  const double sweep_s = seconds_since(start);
  layer.set("shard.sweep_s", sweep_s, "s");
  layer.set("shard.lane_occupancy",
            busy_ms / (static_cast<double>(in.session->width()) * sweep_s * 1e3), "ratio");
}

void net_layer(const LadderInput& in, SpanRecorder* spans, MetricSet& layer) {
  net::SubmitMsg submit;
  submit.spec = in.spec;
  net::ResultMsg result;
  result.result = in.result;
  net::EventMsg event;
  event.event.kind = api::JobEvent::Kind::kStep;
  event.event.job_name = in.result.job_name;
  event.event.method = in.result.method;
  std::size_t submit_bytes = 0, result_bytes = 0, event_bytes = 0;
  const double encode_ms = median_ms(spans, "net.encode", [&] {
    net::WireWriter ws, wr, we;
    net::encode_submit(ws, submit);
    net::encode_result_msg(wr, result);
    net::encode_event_msg(we, event);
    submit_bytes = ws.bytes().size();
    result_bytes = wr.bytes().size();
    event_bytes = we.bytes().size();
  });
  net::WireWriter ws, wr;
  net::encode_submit(ws, submit);
  net::encode_result_msg(wr, result);
  const double decode_ms = median_ms(spans, "net.decode", [&] {
    net::WireReader rs(ws.bytes());
    net::WireReader rr(wr.bytes());
    net::decode_submit(rs);
    net::decode_result_msg(rr);
  });
  layer.set("net.encode_us", encode_ms * 1e3, "us");
  layer.set("net.decode_us", decode_ms * 1e3, "us");
  // Payload of one job on the wire: the submit, a started event, one
  // event per recorded step, and the result.
  const double steps = static_cast<double>(in.result.run.trace.size());
  layer.set("net.bytes_per_job",
            static_cast<double>(submit_bytes + result_bytes) +
                (1.0 + steps) * static_cast<double>(event_bytes),
            "B");
  // A one-worker loopback cluster running one-step copies of the job.
  constexpr std::size_t kJobs = 20;
  net::WorkerOptions wopts;
  wopts.threads = 2;
  wopts.name = "ladder";
  net::Worker worker(wopts);
  worker.start();
  net::DispatcherOptions dopts;
  net::Endpoint endpoint;
  endpoint.port = worker.port();
  dopts.workers.push_back(endpoint);
  std::vector<double> overhead_ms;
  std::size_t retries = 0;
  {
    net::Dispatcher dispatcher(dopts);
    if (dispatcher.wait_for_workers(1, 20.0) < 1) {
      throw std::runtime_error("ladder loopback worker did not come up");
    }
    const api::JobSpec spec = one_step(in.spec, "ladder-net");
    for (std::size_t i = 0; i < kJobs; ++i) {
      Span span(spans, "net.round_trip");
      const Clock::time_point start = Clock::now();
      const api::JobHandle handle = dispatcher.submit(spec);
      const api::JobResult& r = handle.wait();
      const double client_ms = ms_between(start, Clock::now());
      if (i == 0) continue;  // warm-up
      overhead_ms.push_back(client_ms - r.queued_ms - r.run_ms);
      retries += r.retries;
    }
  }
  worker.stop();
  add_percentiles("net.overhead_ms", overhead_ms, "ms", layer);
  layer.set("net.retries", static_cast<double>(retries), "count");
}

}  // namespace

void run_ladder(const LadderInput& input, SpanRecorder* spans, MetricSet& layer) {
  Span span(spans, "ladder");
  fft_layer(spans, layer);
  engine_layers(input, spans, layer);
  if (!layer.has("api.submit_us.p50")) api_probe(input, spans, layer);
  shard_layer(input, spans, layer);
  net_layer(input, spans, layer);
}

}  // namespace perfbench
