#include "trace.h"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  int thread = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

const Clock::time_point kEpoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

thread_local std::shared_ptr<ThreadBuffer> tl_buffer;
thread_local std::uint64_t tl_open = 0;  // innermost open span on this thread

ThreadBuffer& buffer() {
  if (!tl_buffer) {
    tl_buffer = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    tl_buffer->thread = static_cast<int>(r.buffers.size());
    r.buffers.push_back(tl_buffer);
  }
  return *tl_buffer;
}

std::string layer_of(const char* name) {
  std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

namespace trace {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}
std::int64_t now_ns() { return to_ns(Clock::now()); }

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = tl_open;
  rec.request = request;
  ThreadBuffer& buf = buffer();
  rec.thread = buf.thread;
  buf.spans.push_back(rec);
}

std::vector<SpanRecord> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> all;
  for (const auto& b : r.buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans) {
  // Children of one span run on its thread inside its interval and do not
  // overlap each other, so the time they cover is the sum of their lengths.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    std::int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out[layer_of(s.name)] += static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

double span_cost_ns() {
  if (!enabled()) return 0;
  ThreadBuffer& buf = buffer();
  const std::size_t keep = buf.spans.size();
  constexpr int kReps = 100000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    Span s("trace.cost");
  }
  const std::int64_t t1 = now_ns();
  buf.spans.resize(keep);
  return static_cast<double>(t1 - t0) / kReps;
}

bool write_jsonl(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  for (const SpanRecord& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace trace

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!trace::enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = tl_open;
  tl_open = id_;
  start_ns_ = trace::now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord rec;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.end_ns = trace::now_ns();
  rec.id = id_;
  rec.parent = parent_;
  rec.request = request_;
  ThreadBuffer& buf = buffer();
  rec.thread = buf.thread;
  buf.spans.push_back(rec);
  tl_open = parent_;
}

}  // namespace perfbench
