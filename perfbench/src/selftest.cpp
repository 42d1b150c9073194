// Self-tests of the benchmark's checks, run before every workload.
//
// 1. The reference gives hand-checkable values on Zachary's karate club
//    (data/karate.txt) with one labeled vertex per class -- vertex 0 in
//    class 0, vertex 33 in class 1 -- so W = 1 and Z(u, c) is 1 exactly
//    when u is adjacent to that class's vertex. Vertex 0 has 16
//    neighbours and vertex 33 has 17, so the columns sum to 16 and 17.
//    The library's embed() and out-of-sample row agree with it.
// 2. Every check rejects a deliberately perturbed output. A check that
//    cannot fail proves nothing.
#include <fstream>
#include <sstream>

#include "gee/gee.hpp"
#include "gee/oos.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kKarate = "data/karate.txt";

struct Karate {
  std::vector<std::uint32_t> src, dst;
  std::uint32_t n = 0;
};

Karate read_karate(std::vector<std::string>& failures) {
  Karate g;
  std::ifstream in(kKarate);
  if (!in) {
    failures.push_back(std::string("cannot read ") + kKarate);
    return g;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint32_t u = 0, v = 0;
    if (!(fields >> u >> v)) continue;
    g.src.push_back(u);
    g.dst.push_back(v);
    g.n = std::max({g.n, u + 1, v + 1});
  }
  return g;
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const auto must_fail = [&](const std::string& verdict, const std::string& what) {
    expect(!verdict.empty(), "check accepted a perturbed output: " + what);
  };
  const auto must_pass = [&](const std::string& verdict, const std::string& what) {
    expect(verdict.empty(), what + ": " + verdict);
  };

  // ------------------------------------------- 1. hand-checkable values
  const Karate g = read_karate(failures);
  if (g.n != 34 || g.src.size() != 78) {
    failures.push_back("karate club is not 34 vertices and 78 edges");
    return failures;
  }
  std::vector<std::int32_t> labels(g.n, -1);
  labels[0] = 0;
  labels[33] = 1;
  constexpr int k = 2;
  const ref::Projection p = ref::project(labels, k);
  const ref::Edges edges{g.src, g.dst};
  const std::vector<double> z = ref::embed(g.n, labels, p, edges);
  const auto at = [&](std::uint32_t v, int c) { return z[v * k + static_cast<std::size_t>(c)]; };
  expect(p.vertex_weight[0] == 1.0 && p.vertex_weight[33] == 1.0, "karate: W != 1");
  expect(at(1, 0) == 1 && at(1, 1) == 0, "karate: Z(1) != (1, 0)");
  expect(at(31, 0) == 1 && at(31, 1) == 1, "karate: Z(31) != (1, 1)");
  expect(at(32, 0) == 0 && at(32, 1) == 1, "karate: Z(32) != (0, 1)");
  expect(at(0, 0) == 0 && at(0, 1) == 0, "karate: Z(0) != (0, 0)");
  expect(at(33, 0) == 0 && at(33, 1) == 0, "karate: Z(33) != (0, 0)");
  double col0 = 0, col1 = 0;
  for (std::uint32_t u = 0; u < g.n; ++u) {
    col0 += at(u, 0);
    col1 += at(u, 1);
  }
  expect(col0 == 16 && col1 == 17, "karate: column sums != (16, 17)");
  const std::vector<double> sums = ref::expected_column_sums(labels, p, edges);
  expect(sums.size() == 2 && sums[0] == 16 && sums[1] == 17,
         "karate: expected column sums != (16, 17)");

  const ref::Tolerance tol{1e-12, 1e-12};
  const gee::graph::Graph graph = gee::graph::Graph::build(
      gee::graph::EdgeList::adopt(g.n, g.src, g.dst), gee::graph::GraphKind::kUndirected);
  for (const auto backend :
       {gee::core::Backend::kLigraParallel, gee::core::Backend::kCompiledSerial}) {
    gee::core::Options options;
    options.backend = backend;
    options.num_classes = k;
    const gee::core::Result r = gee::core::embed(graph, labels, options);
    const std::string name = "karate embed() " + gee::core::to_string(backend);
    must_pass(ref::check_matrix(r.z.data(), z, g.n, k, tol), name);
    must_pass(ref::check_column_sums(r.z.data(), g.n, sums, 1e-12), name);
  }
  gee::serve::VertexQuery q;
  q.neighbors = {{0, 1.0f}, {33, 1.0f}, {31, 1.0f}};
  const std::vector<double> row = ref::oos_row(q, labels, p);
  expect(row.size() == 2 && row[0] == 1 && row[1] == 1, "karate: OOS row != (1, 1)");
  gee::core::Options options;
  options.num_classes = k;
  const gee::core::Result r = gee::core::embed(graph, labels, options);
  const std::vector<double> lib_row =
      gee::core::embed_one_vertex(r.projection, labels, q.neighbors);
  must_pass(ref::check_row(lib_row, row, tol), "karate OOS row");

  // --------------------------------------- 2. perturbed outputs fail
  std::vector<double> bad = z;
  bad[5 * k + 0] += 1e-6;
  must_fail(ref::check_matrix(bad.data(), z, g.n, k, tol), "matrix, one cell + 1e-6");
  must_fail(ref::check_column_sums(bad.data(), g.n, sums, 1e-9),
            "column sums, one cell + 1e-6");
  bad = z;
  std::swap(bad[1 * k + 0], bad[32 * k + 0]);  // sums hold, cells do not
  must_fail(ref::check_matrix(bad.data(), z, g.n, k, tol), "matrix, two cells swapped");
  std::vector<double> bad_row = row;
  bad_row[1] -= 1e-6;
  must_fail(ref::check_row(bad_row, row, tol), "OOS row - 1e-6");

  // Top-k: vertices 1, 2, 3 lead class 0 with score 1 (ties by id).
  using gee::serve::VertexScore;
  const std::vector<VertexScore> top{{1, 1.0}, {2, 1.0}, {3, 1.0}};
  must_pass(ref::check_ranked_order(top), "karate top-3 order");
  must_pass(ref::check_ranked_scores(top, z, g.n, k, 0, 3, tol), "karate top-3 scores");
  must_fail(ref::check_ranked_order(std::vector<VertexScore>{{2, 1.0}, {1, 1.0}, {3, 1.0}}),
            "top-k, tie out of id order");
  must_fail(ref::check_ranked_scores(std::vector<VertexScore>{{1, 1.0}, {2, 1.0}, {32, 1.0}},
                                     z, g.n, k, 0, 3, tol),
            "top-k, score not its row");
  must_fail(ref::check_ranked_scores(top, z, g.n, k, 0, 4, tol), "top-k, short list");
  const std::vector<double> graded{3, 0, 2, 0, 1, 0};  // 3 vertices, k = 2
  must_fail(ref::check_ranked_scores(std::vector<VertexScore>{{0, 3.0}, {2, 1.0}},
                                     graded, 3, 2, 0, 2, tol),
            "top-k, a higher vertex left out");

  // Serving replies: a well-formed reply of each kind passes, and a wrong
  // opcode, a short row, a prediction that is not the argmax, a batch
  // with a row missing and an over-long top-k list each fail.
  using Request = gee::shard::Router::Request;
  using gee::net::Opcode;
  const auto reply_row = [&](std::vector<double> r) {
    gee::serve::QueryReply out;
    out.predicted = ref::argmax_positive(r);
    out.row = std::move(r);
    return out;
  };
  const auto check = [&](const Request& req, const gee::net::DecodedReply& reply) {
    return ref::check_reply(req, reply, labels, p, tol);
  };
  Request lookup;
  lookup.kind = Request::Kind::kLookup;
  lookup.vertex = 1;
  gee::net::DecodedReply ok;
  ok.opcode = Opcode::kReply;
  ok.reply = reply_row({at(1, 0), at(1, 1)});
  must_pass(check(lookup, ok), "karate lookup reply");
  gee::net::DecodedReply wrong = ok;
  wrong.opcode = Opcode::kRanked;
  must_fail(check(lookup, wrong), "reply, wrong opcode");
  wrong = ok;
  wrong.reply.row.pop_back();
  must_fail(check(lookup, wrong), "reply, row of length K - 1");
  wrong = ok;
  wrong.reply.predicted = 1;
  must_fail(check(lookup, wrong), "reply, prediction not the argmax");

  Request query;
  query.kind = Request::Kind::kQuery;
  query.query = q;
  ok.reply = reply_row(row);
  must_pass(check(query, ok), "karate query reply");
  wrong = ok;
  wrong.reply.row[0] += 1e-6;
  wrong.reply.predicted = ref::argmax_positive(wrong.reply.row);
  must_fail(check(query, wrong), "reply, out-of-sample row + 1e-6");

  Request batch;
  batch.kind = Request::Kind::kLookupBatch;
  batch.vertices = {1, 32};
  ok.opcode = Opcode::kReplyBatch;
  ok.replies = {reply_row({at(1, 0), at(1, 1)}), reply_row({at(32, 0), at(32, 1)})};
  must_pass(check(batch, ok), "karate lookup_batch reply");
  wrong = ok;
  wrong.replies.pop_back();
  must_fail(check(batch, wrong), "reply, lookup_batch missing a row");

  Request topk;
  topk.kind = Request::Kind::kTopKVertices;
  topk.cls = 0;
  topk.k = 3;
  ok.opcode = Opcode::kRanked;
  ok.ranked = top;
  must_pass(check(topk, ok), "karate top-3 reply");
  wrong = ok;
  wrong.ranked.push_back({4, 1.0});
  must_fail(check(topk, wrong), "reply, top-k longer than k");
  return failures;
}

}  // namespace perfbench
