#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint64_t SelfTimeNs(uint64_t start, uint64_t end,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;  // everything before cursor is accounted for
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return (end - start) - covered;
}

std::map<std::string, uint64_t> SelfTimeByName(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] +=
        SelfTimeNs(spans[i].start_ns, spans[i].end_ns, std::move(children[i]));
  }
  return out;
}

std::string ToChromeTrace(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"request_id\":%llu}}",
                  i ? "," : "", s.name.c_str(), s.thread, s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

int64_t SpanRecorder::Add(std::string name, uint64_t start_ns, uint64_t end_ns,
                          int64_t parent, uint64_t request_id,
                          uint32_t thread) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::move(name), start_ns, end_ns, parent, request_id, thread});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent,
                            uint64_t request_id) {
  const uint64_t now = NowNs();
  return Add(std::move(name), now, now, parent, request_id);
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) return;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
