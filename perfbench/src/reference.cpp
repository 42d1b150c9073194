#include "reference.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench::ref {

Projection project(std::span<const std::int32_t> labels, int k) {
  Projection p;
  p.k = k;
  p.class_size.assign(static_cast<std::size_t>(k), 0);
  for (const std::int32_t y : labels) {
    if (y >= k) throw std::invalid_argument("reference: label >= k");
    if (y >= 0) ++p.class_size[static_cast<std::size_t>(y)];
  }
  p.vertex_weight.assign(labels.size(), 0.0);
  p.min_weight = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] < 0) continue;
    const double w =
        1.0 / static_cast<double>(p.class_size[static_cast<std::size_t>(labels[v])]);
    p.vertex_weight[v] = w;
    if (p.min_weight == 0 || w < p.min_weight) p.min_weight = w;
  }
  return p;
}

std::vector<double> embed(std::uint32_t n, std::span<const std::int32_t> labels,
                          const Projection& p, const Edges& edges) {
  const auto k = static_cast<std::size_t>(p.k);
  std::vector<double> z(static_cast<std::size_t>(n) * k, 0.0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t u = edges.src[i];
    const std::uint32_t v = edges.dst[i];
    const double w = edges.w(i);
    if (labels[v] >= 0) z[u * k + static_cast<std::size_t>(labels[v])] += p.vertex_weight[v] * w;
    if (labels[u] >= 0) z[v * k + static_cast<std::size_t>(labels[u])] += p.vertex_weight[u] * w;
  }
  return z;
}

namespace {

bool close(double got, double want, Tolerance tol) {
  return std::fabs(got - want) <= tol.abs + tol.rel * std::fabs(want);
}

/// Run fn(chunk, lo, hi) over `count` items split into `chunks` ranges on
/// that many threads. Checks of a 420 MB Z are otherwise slower than the
/// embed() call they check.
template <class F>
void parallel_chunks(std::size_t count, std::size_t chunks, F&& fn) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < chunks; ++t) {
    threads.emplace_back([&, t] {
      fn(t, count * t / chunks, count * (t + 1) / chunks);
    });
  }
  for (auto& th : threads) th.join();
}

std::size_t check_threads() {
  return static_cast<std::size_t>(hardware_threads());
}

}  // namespace

std::string check_matrix(const double* got, const std::vector<double>& want,
                         std::uint32_t n, int k, Tolerance tol) {
  const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  if (want.size() != cells) return "reference has the wrong shape";
  // First disagreement of each chunk; the lowest one is reported.
  const std::size_t chunks = check_threads();
  std::vector<std::size_t> first_bad(chunks, cells);
  parallel_chunks(cells, chunks, [&](std::size_t t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!close(got[i], want[i], tol)) {
        first_bad[t] = i;
        return;
      }
    }
  });
  for (const std::size_t i : first_bad) {
    if (i != cells) {
      std::ostringstream out;
      out.precision(17);
      out << "Z(" << i / static_cast<std::size_t>(k) << ","
          << i % static_cast<std::size_t>(k) << ") = " << got[i]
          << ", reference " << want[i];
      return out.str();
    }
  }
  return {};
}

std::vector<double> expected_column_sums(std::span<const std::int32_t> labels,
                                         const Projection& p, const Edges& edges) {
  const auto k = static_cast<std::size_t>(p.k);
  // Weighted degree of each labeled endpoint, summed per class.
  std::vector<long double> degree_mass(k, 0.0L);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const long double w = edges.w(i);
    if (labels[edges.src[i]] >= 0) degree_mass[static_cast<std::size_t>(labels[edges.src[i]])] += w;
    if (labels[edges.dst[i]] >= 0) degree_mass[static_cast<std::size_t>(labels[edges.dst[i]])] += w;
  }
  std::vector<double> want(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    if (p.class_size[c] != 0) {
      want[c] = static_cast<double>(degree_mass[c] /
                                    static_cast<long double>(p.class_size[c]));
    }
  }
  return want;
}

std::string check_column_sums(const double* got, std::uint32_t n,
                              const std::vector<double>& want, double rel_tol) {
  const std::size_t k = want.size();
  const std::size_t chunks = check_threads();
  std::vector<std::vector<double>> partial(chunks, std::vector<double>(k, 0.0));
  parallel_chunks(n, chunks, [&](std::size_t t, std::size_t lo, std::size_t hi) {
    std::vector<double>& sum = partial[t];
    for (std::size_t u = lo; u < hi; ++u) {
      for (std::size_t c = 0; c < k; ++c) sum[c] += got[u * k + c];
    }
  });
  std::vector<long double> column(k, 0.0L);
  for (const auto& sum : partial) {
    for (std::size_t c = 0; c < k; ++c) column[c] += sum[c];
  }
  for (std::size_t c = 0; c < k; ++c) {
    const long double diff = std::fabs(column[c] - want[c]);
    if (diff > rel_tol * (std::fabs(want[c]) + 1.0L)) {
      std::ostringstream out;
      out.precision(17);
      out << "column " << c << " sums to " << static_cast<double>(column[c])
          << ", invariant wants " << want[c];
      return out.str();
    }
  }
  return {};
}

std::vector<double> oos_row(const gee::serve::VertexQuery& q,
                            std::span<const std::int32_t> labels,
                            const Projection& p) {
  std::vector<double> row(static_cast<std::size_t>(p.k), 0.0);
  for (const auto& [v, w] : q.neighbors) {
    const std::int32_t y = labels[v];
    if (y >= 0) {
      row[static_cast<std::size_t>(y)] +=
          p.vertex_weight[v] * static_cast<double>(w);
    }
  }
  return row;
}

std::string check_row(std::span<const double> got, std::span<const double> want,
                      Tolerance tol) {
  if (got.size() != want.size()) return "row has the wrong length";
  for (std::size_t c = 0; c < got.size(); ++c) {
    if (!close(got[c], want[c], tol)) {
      std::ostringstream out;
      out.precision(17);
      out << "row[" << c << "] = " << got[c] << ", reference " << want[c];
      return out.str();
    }
  }
  return {};
}

std::string check_ranked_order(std::span<const gee::serve::VertexScore> ranked) {
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    if (!gee::serve::ranks_before(ranked[i - 1], ranked[i])) {
      return "top-k entries " + std::to_string(i - 1) + " and " +
             std::to_string(i) + " are out of ranks_before order";
    }
  }
  return {};
}

std::string check_ranked_scores(std::span<const gee::serve::VertexScore> ranked,
                                const std::vector<double>& z, std::uint32_t n,
                                int k, std::int32_t cls, std::size_t want_len,
                                Tolerance tol) {
  const auto kk = static_cast<std::size_t>(k);
  const auto c = static_cast<std::size_t>(cls);
  if (ranked.size() != want_len) {
    return "top-k returned " + std::to_string(ranked.size()) + " entries, want " +
           std::to_string(want_len);
  }
  std::vector<char> listed(n, 0);
  for (const auto& e : ranked) {
    if (e.vertex >= n) return "top-k vertex out of range";
    const double want = z[static_cast<std::size_t>(e.vertex) * kk + c];
    if (!close(e.score, want, tol)) {
      std::ostringstream out;
      out.precision(17);
      out << "top-k score of vertex " << e.vertex << " is " << e.score
          << ", its row holds " << want;
      return out.str();
    }
    listed[e.vertex] = 1;
  }
  if (ranked.empty()) return {};
  const double last = ranked.back().score;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (listed[v]) continue;
    const double s = z[static_cast<std::size_t>(v) * kk + c];
    if (s > last + tol.abs + tol.rel * std::fabs(last)) {
      return "vertex " + std::to_string(v) + " outranks the last top-k entry";
    }
  }
  return {};
}

std::int32_t argmax_positive(std::span<const double> row) {
  std::int32_t best = -1;
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (row[c] > 0 && (best < 0 || row[c] > row[static_cast<std::size_t>(best)])) {
      best = static_cast<std::int32_t>(c);
    }
  }
  return best;
}

std::string check_reply(const gee::shard::Router::Request& req,
                        const gee::net::DecodedReply& reply,
                        std::span<const std::int32_t> labels, const Projection& p,
                        Tolerance tol) {
  using gee::net::Opcode;
  using Kind = gee::shard::Router::Request::Kind;
  const auto row_ok = [&](const gee::serve::QueryReply& r) -> std::string {
    if (r.row.size() != static_cast<std::size_t>(p.k)) return "row has the wrong length";
    if (r.predicted != argmax_positive(r.row)) return "prediction is not its row's argmax";
    return {};
  };
  switch (req.kind) {
    case Kind::kLookup:
      if (reply.opcode != Opcode::kReply) return "lookup got the wrong opcode";
      if (auto e = row_ok(reply.reply); !e.empty()) return "lookup: " + e;
      return {};
    case Kind::kQuery:
      if (reply.opcode != Opcode::kReply) return "query got the wrong opcode";
      if (auto e = row_ok(reply.reply); !e.empty()) return "query: " + e;
      if (auto e = check_row(reply.reply.row, oos_row(req.query, labels, p), tol);
          !e.empty()) {
        return "query: " + e;
      }
      return {};
    case Kind::kLookupBatch:
      if (reply.opcode != Opcode::kReplyBatch) return "lookup_batch got the wrong opcode";
      if (reply.replies.size() != req.vertices.size()) {
        return "lookup_batch got the wrong number of rows";
      }
      for (const auto& r : reply.replies) {
        if (auto e = row_ok(r); !e.empty()) return "lookup_batch: " + e;
      }
      return {};
    case Kind::kQueryBatch:
      return "query_batch is not part of any workload";
    case Kind::kTopKVertices:
      if (reply.opcode != Opcode::kRanked) return "top_k got the wrong opcode";
      if (reply.ranked.size() > static_cast<std::size_t>(req.k)) {
        return "top_k returned more than k";
      }
      return check_ranked_order(reply.ranked);
  }
  return "unknown request kind";
}

}  // namespace perfbench::ref
