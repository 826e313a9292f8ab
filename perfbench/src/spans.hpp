// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer of the library.  Each span has a name, start, end, the
// span that caused it (0 for none) and the job it belongs to (0 for none).
// Recording appends to a preallocated buffer under one mutex; nothing is
// written out until `write_chrome_trace` dumps the buffer once at the end
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
// A null recorder pointer turns every Span into a no-op, which is how the
// untraced run measures the end-to-end metrics.
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  ///< static string: layer.operation
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< small per-thread index
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve = 1u << 18);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  void record(const SpanRecord& span);
  /// Write every span as a Chrome "X" (complete) event; returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts on construction, records on destruction.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, std::uint64_t job = 0,
       std::uint64_t parent = 0)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    record_.name = name;
    record_.id = recorder_->next_id();
    record_.parent = parent;
    record_.job = job;
    record_.start_ns = recorder_->since_epoch(Clock::now());
  }
  ~Span() {
    if (recorder_ == nullptr) return;
    record_.end_ns = recorder_->since_epoch(Clock::now());
    recorder_->record(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecord record_;
};

/// A zero-length span marking an instant (an observed job event).
inline void mark(SpanRecorder* recorder, const char* name, std::uint64_t job,
                 std::uint64_t parent = 0) {
  Span span(recorder, name, job, parent);
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
