// In-memory span recorder for the traced benchmark run.
//
// A span marks one call the benchmark makes into a library layer: its name
// ("<layer>.<call>"), start and end, the span that was open on the same
// thread when it began (its parent), and a request id that ties together
// the spans of one service request. Spans go to per-thread buffers and are
// written out once, when the run ends. With tracing off a Span costs one
// relaxed load and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";  // string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // unique, 1-based
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0; // 0 = not part of a service request
  int thread = 0;
};

namespace trace {

void enable(bool on);
bool enabled();

// Nanoseconds since the tracer's epoch.
std::int64_t now_ns();
std::int64_t to_ns(Clock::time_point t);

// Record a finished span directly (open-loop requests whose interval is
// known only when the reply arrives). Parent = the caller's open span.
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request = 0);

// Every span recorded so far, all threads (call after workers joined).
std::vector<SpanRecord> collect();

// Self time per layer in seconds: each span's duration minus the time its
// child spans cover, summed by the layer prefix of its name.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans);

// Mean cost of opening and closing one span while tracing is on, in ns
// (measured on a throwaway buffer).
double span_cost_ns();

// Write the spans as JSON lines. False when the file cannot be written.
bool write_jsonl(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace trace

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_ = 0;
  std::uint64_t id_ = 0;  // 0 = tracing was off at construction
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace perfbench
