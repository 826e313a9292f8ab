#include "api/job_handle.hpp"

#include "api/service.hpp"

namespace bismo::api {

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::uint64_t JobHandle::id() const noexcept {
  return state_ != nullptr ? state_->id : 0;
}

const std::string& JobHandle::name() const noexcept {
  static const std::string kEmpty;
  return state_ != nullptr ? state_->name : kEmpty;
}

JobStatus JobHandle::status() const noexcept {
  if (state_ == nullptr) return JobStatus::kCancelled;
  const JobStatus status = state_->status.load(std::memory_order_acquire);
  if (!is_terminal(status)) return status;
  // A terminal status is only reported once the result is published, so
  // is_terminal(status()) always implies try_result() != nullptr.  In the
  // claimed-but-unpublished window, report the last observable phase.
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->finished) return status;
  return state_->started_at == detail::JobState::Clock::time_point{}
             ? JobStatus::kQueued
             : JobStatus::kRunning;
}

const JobResult& JobHandle::wait() const& {
  static const JobResult kEmptyResult;
  if (state_ == nullptr) return kEmptyResult;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->finished; });
  return state_->result;
}

JobResult JobHandle::wait() && {
  // Copy, not move: other handle copies may still read the shared result.
  return static_cast<const JobHandle&>(*this).wait();
}

bool JobHandle::wait_for(double seconds) const {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return state_->finished; });
}

const JobResult* JobHandle::try_result() const {
  if (state_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->finished ? &state_->result : nullptr;
}

void JobHandle::cancel() const {
  if (state_ == nullptr) return;
  // Entering the gate pins the scheduler for the duration of the call: if
  // the session is being destroyed concurrently, either the service is
  // still alive here (its destructor waits for `entered` to drop before
  // returning) or it is gone and this job is already finalized -- never a
  // dangling dereference.
  detail::ServiceGate& gate = *state_->gate;
  detail::JobRouter* router = nullptr;
  {
    std::lock_guard<std::mutex> lock(gate.mutex);
    if (gate.service == nullptr) return;
    router = gate.service;
    ++gate.entered;
  }
  router->cancel_job(state_);
  {
    std::lock_guard<std::mutex> lock(gate.mutex);
    --gate.entered;
  }
  gate.idle.notify_all();
}

}  // namespace bismo::api
