// In-memory span recording for the traced benchmark run.
//
// Spans (name, start, end, parent, request id) are appended under a mutex,
// kept in memory for the whole run and written once at exit as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto). A layer's self
// time is its span's duration minus the part of that interval its child
// spans cover; overlapping children are counted once.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;  // since the recorder's epoch
  uint64_t end_ns = 0;
  int64_t parent = -1;    // index into the span list, -1 for a root
  uint64_t request_id = 0;
  uint32_t thread = 0;
};

// Length of [start, end) not covered by the union of `children`, each
// clipped to [start, end).
uint64_t SelfTimeNs(uint64_t start, uint64_t end,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

// Self time summed per span name.
std::map<std::string, uint64_t> SelfTimeByName(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" complete events, microsecond timestamps).
std::string ToChromeTrace(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  // Records a finished span; returns its index (-1 when disabled).
  int64_t Add(std::string name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t request_id, uint32_t thread = 0);
  // Opens a span now so its children can name it as parent; End() closes
  // it. Both are no-ops when disabled.
  int64_t Begin(std::string name, int64_t parent, uint64_t request_id = 0);
  void End(int64_t index);

  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t parent = -1,
             uint64_t request_id = 0)
      : rec_(rec), index_(rec->Begin(name, parent, request_id)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
