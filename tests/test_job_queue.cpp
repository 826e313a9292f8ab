// Dispatch-queue tests: exact FIFO and priority ordering,
// multi-producer/multi-consumer stress (exactly-once delivery), coalesce-key
// matched pops, shed-victim selection, capacity behavior, and close/drain
// semantics.  Suite names start with "JobQueue" so the TSan CI leg
// (-R '^(Service|Session|Job|TileScheduler|Net)') runs them;
// BISMO_QUEUE_STRESS_ITERS scales the stress case up for the dedicated TSan
// stress invocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "api/job_queue.hpp"

namespace bismo {
namespace {

using api::detail::JobQueue;
using api::detail::JobState;

std::shared_ptr<JobState> make_job(std::uint64_t id, int priority = 0,
                                   std::uint64_t coalesce_key = 0) {
  auto state = std::make_shared<JobState>();
  state->id = id;
  state->options.priority = priority;
  state->options.coalesce_key = coalesce_key;
  return state;
}

std::size_t stress_items_per_producer() {
  if (const char* env = std::getenv("BISMO_QUEUE_STRESS_ITERS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 2000;
}

TEST(JobQueueOrder, SingleShardIsExactFifo) {
  JobQueue queue(1024);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));
  }
  EXPECT_EQ(queue.size(), 100u);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    const auto state = queue.pop();
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->id, id);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueOrder, PriorityBeatsFifoAndNegativeYields) {
  JobQueue queue(1024);
  ASSERT_TRUE(queue.try_push(make_job(1, 0)));
  ASSERT_TRUE(queue.try_push(make_job(2, -3)));
  ASSERT_TRUE(queue.try_push(make_job(3, 0)));
  ASSERT_TRUE(queue.try_push(make_job(4, 5)));
  // priority 5 first, FIFO priority-0 next, below-normal last.
  EXPECT_EQ(queue.pop()->id, 4u);
  EXPECT_EQ(queue.pop()->id, 1u);
  EXPECT_EQ(queue.pop()->id, 3u);
  EXPECT_EQ(queue.pop()->id, 2u);
}

// 4 producers x 4 consumers on one queue: every job is delivered exactly
// once, and each producer's priority-0 jobs reach every consumer in
// submission order.  `priority_of(i)` picks the priority of a producer's
// i-th job.
template <typename PriorityOf>
void stress_exactly_once(std::size_t ring_capacity, PriorityOf priority_of) {
  const std::size_t kProducers = 4;
  const std::size_t kConsumers = 4;
  const std::size_t per_producer = stress_items_per_producer();
  const std::size_t total = kProducers * per_producer;

  JobQueue queue(ring_capacity);

  std::atomic<std::size_t> popped{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      for (;;) {
        const auto state = queue.pop();
        if (state == nullptr) return;  // closed
        received[c].push_back(state->id);
        popped.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const auto job = make_job(1 + p * per_producer + i, priority_of(i));
        while (!queue.try_push(job)) {
          std::this_thread::yield();  // ring momentarily full
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  while (popped.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }
  queue.close();
  for (auto& t : consumers) t.join();

  // Exact FIFO within a priority level: every consumer sees each
  // producer's priority-0 jobs in submission order.
  for (const auto& ids : received) {
    std::vector<std::uint64_t> last(kProducers, 0);
    for (const std::uint64_t id : ids) {
      const std::size_t p = (id - 1) / per_producer;
      if (priority_of((id - 1) % per_producer) != 0) continue;
      EXPECT_GT(id, last[p]) << "priority-0 jobs popped out of order";
      last[p] = id;
    }
  }

  std::vector<std::uint64_t> all;
  for (const auto& ids : received) {
    all.insert(all.end(), ids.begin(), ids.end());
  }
  ASSERT_EQ(all.size(), total);  // nothing lost, nothing duplicated
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.front(), 1u);
  EXPECT_EQ(all.back(), total);
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(JobQueueMpmc, StressDeliversEveryJobExactlyOnce) {
  // Mostly ring traffic with a sprinkle of side-list jobs at both
  // non-zero priority signs.  A ring smaller than the stream: producers
  // also exercise the full-ring retry path.
  stress_exactly_once(1 << 10, [](std::size_t i) {
    return (i % 97 == 0) ? 2 : (i % 89 == 0) ? -1 : 0;
  });
}

TEST(JobQueueMpmc, StressSingleShardNoStealDeliversEveryJobExactlyOnce) {
  // Pure priority-0 traffic through the one FIFO ring, the configuration
  // every service now runs: no side-list jobs, and a ring large enough
  // that producers rarely see it full.
  stress_exactly_once(1 << 12, [](std::size_t) { return 0; });
}

TEST(JobQueueCoalesce, MatchedPopTakesOnlySameKeyHead) {
  JobQueue queue(1024);
  ASSERT_TRUE(queue.try_push(make_job(1, 0, /*coalesce_key=*/7)));
  ASSERT_TRUE(queue.try_push(make_job(2, 0, 7)));
  ASSERT_TRUE(queue.try_push(make_job(3, 0, 9)));
  ASSERT_TRUE(queue.try_push(make_job(4, 0, 7)));

  const auto head = queue.pop();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 1u);

  // Key 7 matches the next queued job, then stops at the key-9 head.
  const auto second = queue.try_pop_matching(7, /*priority=*/0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(queue.try_pop_matching(7, 0), nullptr);
  // Key 0 never coalesces.
  EXPECT_EQ(queue.try_pop_matching(0, 0), nullptr);

  EXPECT_EQ(queue.pop()->id, 3u);
  EXPECT_EQ(queue.pop()->id, 4u);
}

TEST(JobQueueCapacity, TryPushFailsOnlyWhenRingsAreFull) {
  JobQueue queue(/*ring_capacity=*/8);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(queue.try_push(make_job(id)));
  }
  EXPECT_FALSE(queue.try_push(make_job(9)));  // ring full
  // The priority side list is unbounded.
  EXPECT_TRUE(queue.try_push(make_job(10, 3)));

  EXPECT_EQ(queue.pop()->id, 10u);  // priority first
  EXPECT_EQ(queue.pop()->id, 1u);
  EXPECT_TRUE(queue.try_push(make_job(9)));  // space again
}

TEST(JobQueueShed, VictimIsOldestLowestPriority) {
  JobQueue queue(1024);
  ASSERT_TRUE(queue.try_push(make_job(1, 0)));
  ASSERT_TRUE(queue.try_push(make_job(2, 0)));
  ASSERT_TRUE(queue.try_push(make_job(3, -2)));
  ASSERT_TRUE(queue.try_push(make_job(4, 6)));

  // Below-normal is globally lowest; then the oldest ring job.
  const auto first = queue.shed_victim(/*max_priority=*/0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, 3u);
  const auto second = queue.shed_victim(0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, 1u);
  // A high-priority entrant may shed the priority-6 job once rings empty.
  const auto third = queue.shed_victim(0);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->id, 2u);
  EXPECT_EQ(queue.shed_victim(0), nullptr);  // only the prio-6 job is left
  const auto fourth = queue.shed_victim(9);
  ASSERT_NE(fourth, nullptr);
  EXPECT_EQ(fourth->id, 4u);
}

TEST(JobQueueClose, PopReturnsNullAfterDrainingAndClose) {
  JobQueue queue(1024);
  ASSERT_TRUE(queue.try_push(make_job(1)));
  ASSERT_TRUE(queue.try_push(make_job(2, 4)));
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);

  queue.close();
  EXPECT_EQ(queue.pop(), nullptr);

  // A parked consumer wakes up with nullptr when close() lands.
  JobQueue parked(1024);
  std::thread consumer([&parked] { EXPECT_EQ(parked.pop(), nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  parked.close();
  consumer.join();
}

}  // namespace
}  // namespace bismo
