// gee_perfbench: the repository benchmark (see perfbench/README.md).
//
//   gee_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>]
//
// Runs the check self-tests, then one workload for --seconds of
// measurement, prints the workload's figures by name with their units,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 records
// spans around every call into the library, writes them as Chrome-trace
// JSON, and reports the per-layer metrics.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Name {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_bytes", "bytes"},
};

constexpr Name kPerLayer[] = {
    {"graph.build_s", "s"},
    {"gee.projection_s", "s"},
    {"gee.z_alloc_s", "s"},
    {"gee.unattributed_s", "s"},
    {"backends.edge_pass_s", "s"},
    {"backends.edge_pass_serial_s", "s"},
    {"backends.edge_pass_t1_s", "s"},
    {"backends.scaling", "ratio"},
    {"backends.parallel_speedup", "ratio"},
    {"backends.arcs_per_s", "arcs/s"},
    {"stream.construct_s", "s"},
    {"stream.coalesce_s", "s"},
    {"stream.apply_large_p50_s", "s"},
    {"stream.buffer_copies", "count"},
    {"stream.buffer_promotions", "count"},
    {"stream.rebuilds", "count"},
    {"stream.parallel_batches", "count"},
    {"serve.lookup_s", "s"},
    {"serve.query_s", "s"},
    {"serve.lookup_batch_s", "s"},
    {"serve.topk_s", "s"},
    {"shard.latency_p50_s", "s"},
    {"shard.latency_p99_s", "s"},
    {"shard.request_p50_s", "s"},
    {"net.encode_s", "s"},
    {"net.decode_s", "s"},
    {"net.rtt_p50_s", "s"},
    {"net.boundary_p50_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gee_perfbench: %s\n"
               "usage: gee_perfbench --workload "
               "embed-sparse|embed-dense|stream-churn|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed wants an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) {
        usage("--seconds wants a number in (0, 120]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// A run that outlives its budget is a hung program, not a slow one:
/// report it and leave rather than run past the caller's deadline.
void on_alarm(int) {
  static const char kMessage[] = "gee_perfbench: run exceeded its time budget\n";
  (void)!::write(2, kMessage, sizeof kMessage - 1);
  std::_Exit(3);
}

std::string format_metric_line(const std::string& prefix,
                               const std::map<std::string, Metric>& metrics) {
  std::string line = prefix;
  for (const auto& [name, m] : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, " | %s %.6g %s", name.c_str(), m.value,
                  m.unit.c_str());
    line += buf;
  }
  return line;
}

}  // namespace


}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Outcome (*workload)(const Args&) = nullptr;
  if (args.workload == "embed-sparse") {
    workload = [](const Args& a) { return run_embed(a, false); };
  } else if (args.workload == "embed-dense") {
    workload = [](const Args& a) { return run_embed(a, true); };
  } else if (args.workload == "stream-churn") {
    workload = run_stream;
  } else if (args.workload == "serve-mixed") {
    workload = run_serve;
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::signal(SIGALRM, on_alarm);
  ::alarm(170);

  const std::vector<std::string> self_failures = self_test();
  trace::enable(args.trace);
  Outcome out;
  try {
    out = workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gee_perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  trace::enable(false);
  for (const std::string& f : self_failures) out.fail_check("self-test: " + f);

  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& line : out.report) std::printf("  %s\n", line.c_str());
  constexpr std::size_t kShownErrors = 20;
  for (std::size_t i = 0; i < out.errors.size() && i < kShownErrors; ++i) {
    std::printf("  CHECK FAILED: %s\n", out.errors[i].c_str());
    std::fprintf(stderr, "gee_perfbench: check failed: %s\n", out.errors[i].c_str());
  }
  if (out.errors.size() > kShownErrors) {
    std::printf("  ... and %zu more failed checks\n", out.errors.size() - kShownErrors);
  }
  std::printf("%s\n", format_metric_line("  end-to-end", out.end_to_end).c_str());

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    // Layers a workload does not exercise report 0 (no work done there).
    for (const Name& m : kPerLayer) {
      auto it = out.per_layer.find(m.name);
      metrics[m.name] = it == out.per_layer.end() ? Metric{0, m.unit} : it->second;
    }
    std::printf("%s\n", format_metric_line("  per-layer", metrics).c_str());
    const std::string path = args.trace_out.empty()
                                 ? ".bench_build/trace-" + args.workload + ".json"
                                 : args.trace_out;
    std::error_code ignored;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ignored);
    const bool written = trace::write_chrome_json(path);
    std::printf("  trace: %zu spans %s %s\n", trace::size(),
                written ? "written to" : "NOT written to", path.c_str());
  } else {
    for (const Name& m : kEndToEnd) {
      auto it = out.end_to_end.find(m.name);
      if (it == out.end_to_end.end()) {
        std::fprintf(stderr, "gee_perfbench: %s did not report %s\n",
                     args.workload.c_str(), m.name);
        return 1;
      }
      metrics[m.name] = it->second;
    }
    const double cost = trace::span_cost_seconds();
    std::printf(
        "  tracing overhead: %llu spans in this run x %.0f ns recording each = "
        "%.3f ms (%.4f%% of the %.1f s window); the traced run (--trace 1) "
        "prints the same end-to-end figures measured with recording on\n",
        static_cast<unsigned long long>(trace::spans_opened()), cost * 1e9,
        static_cast<double>(trace::spans_opened()) * cost * 1e3,
        static_cast<double>(trace::spans_opened()) * cost / args.seconds * 100,
        args.seconds);
  }
  std::printf("  operations: attempted %llu failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
