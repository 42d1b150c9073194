// embed-sparse and embed-dense: repeated whole core::embed() calls.
//
// Both workloads embed the same number of R-MAT edges. embed-sparse spreads
// them over 2^20 vertices, so Z (n x 50 doubles, 420 MB) is several times
// the last-level cache and allocating/zeroing it is most of a call;
// embed-dense packs them onto 2^16 vertices (Z = 26 MB, cache-resident),
// so the backends' edge pass -- with its atomic adds on hub rows -- is
// most of a call. Each round calls the default backend and the paper's
// compiled-serial reference once; a traced round also times a standalone
// Z allocation and the default backend pinned to one thread.
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "gee/gee.hpp"
#include "graph/csr.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct EmbedShape {
  int scale;
  std::uint64_t edge_factor;
};

constexpr int kClasses = 50;
constexpr double kLabelFraction = 0.1;
constexpr int kSetupRepeats = 3;

}  // namespace

Outcome run_embed(const Args& args, bool dense) {
  using gee::core::Backend;
  const EmbedShape shape = dense ? EmbedShape{16, 256} : EmbedShape{20, 16};
  Outcome out;

  inputs::EdgeArrays arrays = inputs::rmat(shape.scale, shape.edge_factor, args.seed);
  const std::vector<std::int32_t> labels =
      inputs::labels(arrays.n, kClasses, kLabelFraction, args.seed + 1);
  const ref::Projection proj = ref::project(labels, kClasses);
  const std::vector<double> z_ref =
      ref::embed(arrays.n, labels, proj, ref::Edges{arrays.src, arrays.dst});
  const ref::Tolerance tol{1e-9 * proj.min_weight, 1e-9};
  const std::uint32_t n = arrays.n;
  const gee::graph::EdgeList edges = gee::graph::EdgeList::adopt(
      n, std::move(arrays.src), std::move(arrays.dst));
  const std::vector<double> column_sums = ref::expected_column_sums(
      labels, proj, ref::Edges{edges.srcs(), edges.dsts()});

  const double rss_before_library = peak_rss_bytes();
  // Set-up: Graph::build, several times, median reported.
  std::vector<double> build_s;
  gee::graph::Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g = gee::graph::Graph();
    trace::Span span("graph.build");
    g = gee::graph::Graph::build(edges, gee::graph::GraphKind::kUndirected);
    build_s.push_back(span.end());
  }
  const double arcs = static_cast<double>(g.num_arcs());

  struct Call {
    double wall = 0;
    gee::core::Timings t;
  };
  std::vector<Call> calls_default, calls_serial, calls_t1;
  std::vector<double> z_alloc_s;
  double check_s = 0;

  const auto call = [&](const char* name, Backend backend, int threads,
                        std::vector<Call>& into) {
    ++out.attempted;
    try {
      gee::core::Options options;
      options.backend = backend;
      options.num_classes = kClasses;
      options.num_threads = threads;
      trace::Span span(name);
      gee::core::Result r = gee::core::embed(g, labels, options);
      into.push_back({span.end(), r.timings});
      trace::Span check("check.embed");
      if (auto e = ref::check_matrix(r.z.data(), z_ref, n, kClasses, tol);
          !e.empty()) {
        out.fail_check(std::string(name) + ": " + e);
      }
      if (auto e = ref::check_column_sums(r.z.data(), n, column_sums, 1e-9);
          !e.empty()) {
        out.fail_check(std::string(name) + ": " + e);
      }
      check_s += check.end();
    } catch (const std::exception& e) {
      ++out.failed;
      out.errors.push_back(std::string(name) + " threw: " + e.what());
    }
  };

  const auto t0 = Clock::now();
  do {
    call("gee.embed.default", Backend::kLigraParallel, 0, calls_default);
    call("gee.embed.compiled_serial", Backend::kCompiledSerial, 0, calls_serial);
    if (args.trace) {
      call("gee.embed.default_t1", Backend::kLigraParallel, 1, calls_t1);
      trace::Span span("gee.z_alloc");
      gee::core::Embedding z(n, kClasses);
      z_alloc_s.push_back(span.end());
    }
  } while (seconds_since(t0) < args.seconds);

  const auto walls = [](const std::vector<Call>& v) {
    std::vector<double> s;
    for (const Call& c : v) s.push_back(c.wall);
    return s;
  };
  const auto phase = [](const std::vector<Call>& v, double gee::core::Timings::*f) {
    std::vector<double> s;
    for (const Call& c : v) s.push_back(c.t.*f);
    return s;
  };

  const double setup_s = median(build_s);
  const double embed_s = median(walls(calls_default));
  const double embed_serial_s = median(walls(calls_serial));
  out.end_to_end["setup_s"] = {setup_s, "s"};
  out.end_to_end["latency_p50_s"] = {embed_s, "s"};
  out.end_to_end["throughput_per_s"] = {arcs / embed_serial_s, "1/s"};
  record_peak_rss(out, bytes_of(z_ref) + bytes_of(proj.vertex_weight),
                  rss_before_library);
  out.report.push_back("graph: n=" + std::to_string(n) + " arcs=" +
                       std::to_string(g.num_arcs()) + " K=50 labels=10%");
  out.report.push_back(fmt("embed_s %.6f s", embed_s) +
                       fmt(" | embed_serial_s %.6f s", embed_serial_s) +
                       " | calls " + std::to_string(calls_default.size()) + "+" +
                       std::to_string(calls_serial.size()) +
                       fmt(" | checks %.3f s", check_s));

  if (args.trace) {
    std::vector<double> unattributed;
    for (const Call& c : calls_default) {
      unattributed.push_back(c.wall - c.t.projection - c.t.edge_pass -
                             c.t.postprocess - c.t.graph_build);
    }
    const double pass = median(phase(calls_default, &gee::core::Timings::edge_pass));
    const double pass_serial =
        median(phase(calls_serial, &gee::core::Timings::edge_pass));
    const double pass_t1 = median(phase(calls_t1, &gee::core::Timings::edge_pass));
    auto& L = out.per_layer;
    L["graph.build_s"] = {median(trace::durations("graph.build")), "s"};
    L["gee.projection_s"] = {
        median(phase(calls_default, &gee::core::Timings::projection)), "s"};
    L["gee.z_alloc_s"] = {median(trace::durations("gee.z_alloc")), "s"};
    L["gee.unattributed_s"] = {median(unattributed), "s"};
    L["backends.edge_pass_s"] = {pass, "s"};
    L["backends.edge_pass_serial_s"] = {pass_serial, "s"};
    L["backends.edge_pass_t1_s"] = {pass_t1, "s"};
    L["backends.scaling"] = {pass_t1 / pass, "ratio"};
    L["backends.parallel_speedup"] = {pass_serial / pass, "ratio"};
    L["backends.arcs_per_s"] = {arcs / pass, "arcs/s"};
  }
  return out;
}

}  // namespace perfbench
