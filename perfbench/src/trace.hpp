// The benchmark's own span recorder. Every call the benchmark makes into a
// layer of the library is wrapped in a Span; with tracing on, each span is
// kept in memory (name, start, end, parent, request id, thread) and the
// whole set is written out as Chrome-trace JSON when the run ends. With
// tracing off a Span is only a stopwatch, so both modes time the same
// interval and the difference between a traced and an untraced run is the
// cost of recording.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Record {
  const char* name = "";
  double start = 0;  ///< seconds since the recorder's epoch
  double end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< serving request id, 0 = none
  std::uint32_t thread = 0;
};

void enable(bool on);
[[nodiscard]] bool enabled();

/// Seconds since the recorder's epoch (the clock spans are stamped with).
[[nodiscard]] double now();

/// Record a span whose interval was measured elsewhere (a request sent on
/// one thread and answered on another). Returns its id (0 when off).
std::uint64_t record(const char* name, double start, double end,
                     std::uint64_t request = 0, std::uint64_t parent = 0);

/// Scoped span: parent is the innermost open Span of this thread.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent) and return its duration in seconds.
  double end();

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_;
  double duration_ = -1;
};

/// Durations (seconds) of every recorded span called `name`.
[[nodiscard]] std::vector<double> durations(const std::string& name);

/// Number of spans recorded so far.
[[nodiscard]] std::size_t size();

/// Spans opened so far, recorded or not (what a traced run would record).
[[nodiscard]] std::uint64_t spans_opened();

/// Write every span as Chrome-trace JSON ("X" events, microseconds);
/// returns false when the file cannot be written.
bool write_chrome_json(const std::string& path);

/// Measured cost of recording one span (seconds), for the overhead line
/// of an untraced run. Records into a scratch recorder, not the run's.
[[nodiscard]] double span_cost_seconds();

}  // namespace perfbench::trace
