#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace perfbench::trace {
namespace {

struct Recorder {
  std::mutex mutex;
  std::vector<Record> records;
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> opened{0};
  std::atomic<std::uint32_t> next_thread{1};
  const Clock::time_point epoch = Clock::now();
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::uint32_t thread_index() {
  thread_local const std::uint32_t index =
      recorder().next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

thread_local std::vector<std::uint64_t> open_spans;

void push(Recorder& r, const Record& rec) {
  std::lock_guard<std::mutex> lock(r.mutex);
  r.records.push_back(rec);
}

}  // namespace

void enable(bool on) { recorder().on.store(on, std::memory_order_relaxed); }

bool enabled() { return recorder().on.load(std::memory_order_relaxed); }

double now() {
  return std::chrono::duration<double>(Clock::now() - recorder().epoch).count();
}

std::uint64_t record(const char* name, double start, double end,
                     std::uint64_t request, std::uint64_t parent) {
  Recorder& r = recorder();
  r.opened.fetch_add(1, std::memory_order_relaxed);
  if (!r.on.load(std::memory_order_relaxed)) return 0;
  const std::uint64_t id = r.next_id.fetch_add(1, std::memory_order_relaxed);
  push(r, Record{name, start, end, id, parent, request, thread_index()});
  return id;
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request), start_(now()) {
  recorder().opened.fetch_add(1, std::memory_order_relaxed);
  if (enabled()) {
    id_ = recorder().next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = open_spans.empty() ? 0 : open_spans.back();
    open_spans.push_back(id_);
  }
}

double Span::end() {
  if (duration_ >= 0) return duration_;
  const double stop = now();
  duration_ = stop - start_;
  if (id_ != 0) {
    if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
    push(recorder(),
         Record{name_, start_, stop, id_, parent_, request_, thread_index()});
  }
  return duration_;
}

std::vector<double> durations(const std::string& name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<double> out;
  for (const Record& rec : r.records) {
    if (name == rec.name) out.push_back(rec.end - rec.start);
  }
  return out;
}

std::size_t size() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.records.size();
}

std::uint64_t spans_opened() {
  return recorder().opened.load(std::memory_order_relaxed);
}

bool write_chrome_json(const std::string& path) {
  Recorder& r = recorder();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(r.mutex);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const Record& rec = r.records[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", rec.name, rec.thread, rec.start * 1e6,
                 (rec.end - rec.start) * 1e6,
                 static_cast<unsigned long long>(rec.id),
                 static_cast<unsigned long long>(rec.parent),
                 static_cast<unsigned long long>(rec.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double span_cost_seconds() {
  // Same work as a recorded Span: two clock reads, an id, a parent-stack
  // push/pop and a locked append.
  Recorder scratch;
  constexpr int kSpans = 100000;
  scratch.records.reserve(kSpans);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const double start = now();
    const std::uint64_t id = scratch.next_id.fetch_add(1);
    open_spans.push_back(id);
    open_spans.pop_back();
    push(scratch, Record{"x", start, now(), id, 0, 0, thread_index()});
  }
  return seconds_since(t0) / kSpans;
}

}  // namespace perfbench::trace
