#include "api/job_queue.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace bismo::api::detail {

JobQueue::JobQueue(std::size_t ring_capacity)
    : ring_(std::max<std::size_t>(1, ring_capacity)) {}

// bismo-lint: no-alloc-begin
// The priority-0 fast path: push/pop move refcounts through the pre-sized
// ring and notify -- the dispatch loop must stay allocation-free.
bool JobQueue::try_push(const std::shared_ptr<JobState>& state) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state->options.priority != 0) {
      push_side_locked(state);
    } else {
      if (ring_count_ == ring_.size()) return false;
      ring_[(ring_head_ + ring_count_) % ring_.size()] = state;
      ++ring_count_;
    }
  }
  ready_cv_.notify_one();
  return true;
}

std::shared_ptr<JobState> JobQueue::pop_ring_locked() {
  std::shared_ptr<JobState> state = std::move(ring_[ring_head_]);
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --ring_count_;
  return state;
}

std::shared_ptr<JobState> JobQueue::pop() {
  std::shared_ptr<JobState> state;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_cv_.wait(lock, [this] { return closed_ || size_locked() > 0; });
    if (!side_.empty() && side_.front()->options.priority > 0) {
      state = pop_side_locked(/*back=*/false);
    } else if (ring_count_ > 0) {
      state = pop_ring_locked();
    } else if (!side_.empty()) {
      state = pop_side_locked(/*back=*/false);
    } else {
      return nullptr;  // closed and empty
    }
  }
  space_cv_.notify_all();
  return state;
}
// bismo-lint: no-alloc-end

void JobQueue::push_side_locked(const std::shared_ptr<JobState>& state) {
  // Scan from the back: same-priority jobs keep submission order, so a
  // steady stream at one priority inserts in O(1).
  auto it = side_.end();
  while (it != side_.begin() &&
         (*std::prev(it))->options.priority < state->options.priority) {
    --it;
  }
  side_.insert(it, state);
}

std::shared_ptr<JobState> JobQueue::pop_side_locked(bool back) {
  std::shared_ptr<JobState> state;
  if (back) {
    state = std::move(side_.back());
    side_.pop_back();
  } else {
    state = std::move(side_.front());
    side_.pop_front();
  }
  return state;
}

std::shared_ptr<JobState> JobQueue::try_pop_matching(
    std::uint64_t coalesce_key, int priority) {
  if (coalesce_key == 0) return nullptr;
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (priority == 0) {
      if (ring_count_ == 0 ||
          ring_[ring_head_]->options.coalesce_key != coalesce_key) {
        return nullptr;
      }
      state = pop_ring_locked();
    } else {
      if (side_.empty()) return nullptr;
      const JobState& front = *side_.front();
      if (front.options.priority != priority ||
          front.options.coalesce_key != coalesce_key) {
        return nullptr;
      }
      state = pop_side_locked(/*back=*/false);
    }
  }
  space_cv_.notify_all();
  return state;
}

std::shared_ptr<JobState> JobQueue::shed_victim(int max_priority) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The side-list back is the lowest priority queued.  Below normal, it
    // goes first; above normal, only once the ring holds nothing.
    const bool side_eligible =
        !side_.empty() && side_.back()->options.priority <= max_priority;
    if (side_eligible && side_.back()->options.priority < 0) {
      state = pop_side_locked(/*back=*/true);
    } else if (max_priority >= 0 && ring_count_ > 0) {
      state = pop_ring_locked();
    } else if (side_eligible) {
      state = pop_side_locked(/*back=*/true);
    } else {
      return nullptr;
    }
  }
  space_cv_.notify_all();
  return state;
}

void JobQueue::wait_space(std::size_t below) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [this, below] {
    return closed_ || size_locked() < below;
  });
}

std::vector<std::shared_ptr<JobState>> JobQueue::drain() {
  std::vector<std::shared_ptr<JobState>> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drained.reserve(size_locked());
    while (ring_count_ > 0) drained.push_back(pop_ring_locked());
    for (auto& state : side_) drained.push_back(std::move(state));
    side_.clear();
  }
  space_cv_.notify_all();
  return drained;
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_cv_.notify_all();
  space_cv_.notify_all();
}

std::size_t JobQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_locked();
}

}  // namespace bismo::api::detail
