// Shared pieces of the repository benchmark: command-line arguments, the
// result every workload returns, timing and order statistics, and the
// seeded input generators the workloads draw from.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs)
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` and `per_layer` use the
/// names of BENCHMARK.json; `report` holds the human-readable lines
/// printed before the JSON result (the workload's own figures, by name).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> report;
  std::vector<std::string> errors;  ///< failed correctness checks

  void fail_check(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Order statistic with linear interpolation between closest ranks (the
/// usual "type 7" definition); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set of this process so far, in bytes.
inline double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Bytes a fully written vector keeps resident.
template <class T>
double bytes_of(const std::vector<T>& v) {
  return static_cast<double>(v.size() * sizeof(T));
}

/// Records the program's own peak resident set: this process's peak less
/// `own_bytes`, the benchmark's own buffers (reference matrices, its
/// copies of the inputs, request lists). Those are written in full before
/// the first call into the library and freed only after the last, so they
/// are resident at the peak, wherever in the run it falls. `before_library`
/// is the peak just before that first call; the report line prints it to
/// show the peak falls in the measured phase.
inline void record_peak_rss(Outcome& out, double own_bytes, double before_library) {
  const double peak = peak_rss_bytes();
  out.end_to_end["peak_rss_bytes"] = {peak - own_bytes, "bytes"};
  char line[200];
  std::snprintf(line, sizeof line,
                "peak_rss_bytes %.0f: process peak %.0f less the benchmark's own "
                "buffers %.0f (process peak before the first library call %.0f)",
                peak - own_bytes, peak, own_bytes, before_library);
  out.report.push_back(line);
}

inline int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// printf-style formatting of one number, for report lines.
inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace perfbench
