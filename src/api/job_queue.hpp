// Dispatch queue feeding the persistent lane scheduler (multi-producer,
// multi-consumer).
//
// One mutex guards everything: a pre-sized FIFO ring for priority-0 jobs
// (the throughput path) and an ordered side list for jobs with a non-zero
// priority, kept in (priority desc, id asc) order.  Two condition
// variables park idle lanes (ready) and producers under the block
// admission policy (space).
//
// Ordering contract: exact FIFO within each priority level, higher
// SubmitOptions::priority first.  Positive priorities pop before the ring,
// negative ones only once the ring is empty.  Jobs cancelled while queued
// are NOT erased -- they stay in line as terminal entries that lanes skip
// with a failed status CAS -- so cancellation never races the pop path.
#ifndef BISMO_API_JOB_QUEUE_HPP
#define BISMO_API_JOB_QUEUE_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "api/job_handle.hpp"

namespace bismo::api::detail {

/// Thread-safe exact-FIFO job queue (multi-producer, multi-consumer).
class JobQueue {
 public:
  /// `ring_capacity`: priority-0 slots, allocated up front (at least 1).
  explicit JobQueue(std::size_t ring_capacity);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Non-blocking push.  Priority-0 jobs take the ring; other priorities
  /// take the ordered side list, which never fills.  False only when the
  /// ring is full -- admission control (block/reject/shed) lives in the
  /// caller.
  bool try_push(const std::shared_ptr<JobState>& state);

  /// Block until a job is available or the queue is closed.  Returns
  /// nullptr once closed and empty.  Pop order: positive-priority side
  /// list, ring, negative-priority side list.
  std::shared_ptr<JobState> pop();

  /// Non-blocking pop of the next job of exactly `priority` when it
  /// carries exactly `coalesce_key` (key 0 never matches).  This is the
  /// batching path: a lane that popped a coalescable job gathers
  /// same-shape jobs queued right behind it.  Priority 0 looks at the ring
  /// head; other levels at the side-list front, which must hold exactly
  /// that priority -- jobs never coalesce across priority levels.
  std::shared_ptr<JobState> try_pop_matching(std::uint64_t coalesce_key,
                                             int priority);

  /// Non-blocking pop of the oldest lowest-priority queued job whose
  /// priority is <= `max_priority` (shed-oldest admission policy); nullptr
  /// when nothing sheddable is queued.
  std::shared_ptr<JobState> shed_victim(int max_priority);

  /// Block until occupancy drops below `below` or the queue closes
  /// (admission backoff).
  void wait_space(std::size_t below);

  /// Remove and return every queued entry (shutdown path).
  std::vector<std::shared_ptr<JobState>> drain();

  /// Wake all waiters; pop() returns nullptr once the queue is empty.
  void close();

  /// Total queued entries (ring + side list), including cancelled entries
  /// not yet skipped by a lane.
  std::size_t size() const;

 private:
  /// Callers hold mutex_.
  std::shared_ptr<JobState> pop_ring_locked();
  void push_side_locked(const std::shared_ptr<JobState>& state);
  std::shared_ptr<JobState> pop_side_locked(bool back);
  std::size_t size_locked() const { return ring_count_ + side_.size(); }

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  ///< lanes waiting for work
  std::condition_variable space_cv_;  ///< producers waiting for room
  std::vector<std::shared_ptr<JobState>> ring_;  ///< priority-0 FIFO
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::list<std::shared_ptr<JobState>> side_;  ///< (priority desc, id asc)
  bool closed_ = false;
};

}  // namespace bismo::api::detail

#endif  // BISMO_API_JOB_QUEUE_HPP
