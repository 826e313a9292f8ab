// core::AllocGuard tests: the runtime cross-check of the static no-alloc
// lint regions.  The guarded hot paths -- the pipeline forward+adjoint at
// 64x64 and at 48x48 (the Bluestein fallback), the band-restricted direct
// adjoint at 128x128, the JobQueue MPMC push/pop fast path -- must execute
// with zero heap allocations once warmed up, and a steady-state
// Session::run re-submission must allocate strictly less than the cold
// first run (workspace leases and FFT plans are reused, per-step result
// grids still allocate by design).
//
// Every assertion is gated on AllocGuard::enforced(): under ASan/TSan the
// sanitizer runtime owns the allocator and interposition is compiled out.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/job_queue.hpp"
#include "core/alloc_guard.hpp"
#include "litho/abbe.hpp"
#include "math/grid_ops.hpp"
#include "math/rng.hpp"
#include "sim/imaging_model.hpp"
#include "sim/pipeline.hpp"
#include "sim/workspace.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

using core::AllocGuard;

TEST(AllocGuardBasics, CountsHeapAllocationsInScope) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  AllocGuard guard;
  EXPECT_EQ(guard.allocations(), 0u);
  // Direct operator-new call: a `new`/`delete` pair is elidable at -O2+.
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_GE(guard.allocations(), 1u);
}

TEST(AllocGuardBasics, AllocationFreeRegionCountsZero) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  double stack_work[64];
  AllocGuard guard;
  for (int i = 0; i < 64; ++i) stack_work[i] = i * 0.5;
  double sum = 0.0;
  for (int i = 0; i < 64; ++i) sum += stack_work[i];
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(AllocGuardBasics, ThreadScopeIgnoresOtherThreads) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    ::operator delete(::operator new(16));
    done.store(true, std::memory_order_release);
  });
  {
    AllocGuard guard(AllocGuard::Scope::kThread);
    go.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_EQ(guard.allocations(), 0u);
  }
  worker.join();
}

TEST(AllocGuardBasics, GlobalScopeSeesOtherThreads) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread worker([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    ::operator delete(::operator new(16));
    done.store(true, std::memory_order_release);
  });
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    go.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_GE(guard.allocations(), 1u);
  }
  worker.join();
}

// ---- JobQueue fast path -----------------------------------------------------

TEST(AllocGuardJobQueue, PushPopFastPathIsAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  api::detail::JobQueue queue(64);
  auto state = std::make_shared<api::detail::JobState>();
  state->id = 1;

  // Warm-up: first traversal of every code path (condvar bookkeeping,
  // lazy TLS) happens outside the guarded region.
  ASSERT_TRUE(queue.try_push(state));
  ASSERT_NE(queue.pop(), nullptr);

  AllocGuard guard;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(queue.try_push(state));
    ASSERT_NE(queue.pop(), nullptr);
  }
  EXPECT_EQ(guard.allocations(), 0u);
}

// ---- Fused pipeline ---------------------------------------------------------

/// A dense low band over the first 8 rows of an n x n spectrum: sorted
/// row-major bins plus the matching occupied-row list, the shape the Abbe
/// engine feeds the pipeline.
struct TestBand {
  std::vector<std::uint32_t> bins;
  std::vector<std::uint32_t> rows;

  explicit TestBand(std::uint32_t n) {
    for (std::uint32_t row = 0; row < 8; ++row) {
      rows.push_back(row);
      for (std::uint32_t col = 0; col < n; ++col) {
        bins.push_back(row * n + col);
      }
    }
  }

  sim::BandRef ref() const {
    return sim::BandRef{bins.data(), nullptr, bins.size(), rows.data(),
                        rows.size()};
  }
};

TEST(AllocGuardPipeline, ForwardAndAdjointAt64AreAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  // 64 runs the fused column kernels; 48 is not a power of two and takes
  // the Bluestein fallback inside Fft2dPlan::transform_cols_fused.
  for (const std::uint32_t n : {64u, 48u}) {
    Rng rng(17);
    const ComplexGrid o = testing::random_complex_grid(rng, n, n);
    RealGrid dldi(n, n, 0.0);
    for (auto& v : dldi) v = rng.uniform(-1.0, 1.0);
    const TestBand band(n);
    sim::SimWorkspace ws;
    ws.ensure(n);
    ComplexGrid go(n, n);
    RealGrid acc(n, n, 0.0);

    // Warm-up pass sizes every buffer and exercises both directions.
    ws.forward_field(o, band.ref(), &acc, 0.5, nullptr);
    ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(), go);

    AllocGuard guard;
    for (int step = 0; step < 4; ++step) {
      ws.forward_field(o, band.ref(), &acc, 0.5, nullptr);
      ws.adjoint_seed_accumulate(ws.field(), dldi.data(), 0.25, band.ref(),
                                 go);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << n << "x" << n << " pipeline allocated";
  }
}

TEST(AllocGuardPipeline, BandConvAdjointIsAllocationFree) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  // 128^2 at 8 nm: narrow bands, so adjoint_pass takes the band-restricted
  // direct adjoint; its per-component sweep runs on workspace scratch.
  const OpticsConfig optics{193.0, 1.35, 128, 8.0, 0.0};
  const SourceGeometry geometry(7, optics);
  const AbbeImaging abbe(optics, geometry);
  ASSERT_TRUE(sim::adjoint_uses_band_conv(abbe));
  Rng rng(19);
  const ComplexGrid o = testing::random_complex_grid(rng, 128, 128);
  const ComplexGrid dspec = testing::random_complex_grid(rng, 128, 128);
  sim::SimWorkspace ws;
  ws.ensure(128);
  ComplexGrid go(128, 128);

  // ensure() sized the band scratch; one warm-up pass touches every band.
  for (std::size_t c = 0; c < abbe.components(); ++c) {
    ws.band_conv_adjoint(o, abbe.component_band(c), dspec.data(), 0.5,
                         go.data());
  }
  AllocGuard guard;
  double wns = 0.0;
  for (int step = 0; step < 2; ++step) {
    for (std::size_t c = 0; c < abbe.components(); ++c) {
      wns += ws.band_conv_adjoint(o, abbe.component_band(c), dspec.data(),
                                  0.5, c % 2 == 0 ? go.data() : nullptr);
    }
  }
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_TRUE(std::isfinite(wns));
}

// ---- Session steady state ---------------------------------------------------

TEST(AllocGuardSession, SteadyStateResubmissionAllocatesLessThanColdStart) {
  if (!AllocGuard::enforced()) GTEST_SKIP() << "sanitizer build";
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_grid(testing::tiny_target32());
  spec.method = Method::kAbbeMo;
  spec.config.optics.pixel_nm = 16.0;
  spec.config_overrides = {"source_dim=7", "socs_kernels=6", "outer_steps=2"};

  api::Session session;
  std::size_t cold = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    cold = guard.allocations();
  }
  // Re-submission leases the cached workspaces and FFT plans; only the
  // per-step result grids still allocate.  Two steady runs bound each
  // other, guarding against slow per-run growth.
  std::size_t steady1 = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    steady1 = guard.allocations();
  }
  std::size_t steady2 = 0;
  {
    AllocGuard guard(AllocGuard::Scope::kGlobal);
    ASSERT_TRUE(session.run(spec).ok());
    steady2 = guard.allocations();
  }
  EXPECT_LT(steady1, cold);
  EXPECT_LT(steady2, cold);
}

}  // namespace
}  // namespace bismo
