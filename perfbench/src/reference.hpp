// The benchmark's independent reference GEE and the checks built on it.
//
// Nothing here calls the library's embedding code: the reference is a
// plain serial loop over the benchmark's own edge list, with the
// projection W(v) = 1 / |class of v| counted by the benchmark itself.
// Every check returns an empty string when the output passes and a
// description of the first disagreement otherwise; selftest.cpp proves
// each one fails on a perturbed output.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "serve/request.hpp"
#include "shard/router.hpp"

namespace perfbench::ref {

/// An undirected edge list as the benchmark holds it. Without `weight`
/// every edge has weight 1 (every workload's seed graph is unweighted;
/// serve-mixed's writer adds weighted edges).
struct Edges {
  std::span<const std::uint32_t> src;
  std::span<const std::uint32_t> dst;
  std::span<const float> weight = {};

  [[nodiscard]] double w(std::size_t i) const {
    return weight.empty() ? 1.0 : static_cast<double>(weight[i]);
  }

  [[nodiscard]] std::size_t size() const { return src.size(); }
};

/// The projection, counted by the benchmark: per-vertex weight
/// 1 / |class|, or 0 for unlabeled vertices.
struct Projection {
  int k = 0;
  std::vector<std::uint64_t> class_size;
  std::vector<double> vertex_weight;
  double min_weight = 0;  ///< smallest nonzero vertex weight
};

Projection project(std::span<const std::int32_t> labels, int k);

/// Algorithm 1 verbatim: for each edge (u, v) of weight w,
///   Z(u, Y(v)) += W(v) w  and  Z(v, Y(u)) += W(u) w.
/// Returns Z row-major, n x k.
std::vector<double> embed(std::uint32_t n, std::span<const std::int32_t> labels,
                          const Projection& p, const Edges& edges);

/// Tolerance of a comparison: |got - want| <= abs + rel |want|.
struct Tolerance {
  double abs = 0;
  double rel = 0;
};

/// Entry-wise agreement of an n x k row-major matrix with the reference.
std::string check_matrix(const double* got, const std::vector<double>& want,
                         std::uint32_t n, int k, Tolerance tol);

/// The order-free invariant of every GEE output: for each class c,
///   sum_u Z(u, c) = (sum of weighted degrees of class-c vertices) / |c|.
/// expected_column_sums computes the right-hand side from the edge list;
/// check_column_sums compares an n x k output's column sums with it.
std::vector<double> expected_column_sums(std::span<const std::int32_t> labels,
                                         const Projection& p, const Edges& edges);
std::string check_column_sums(const double* got, std::uint32_t n,
                              const std::vector<double>& want, double rel_tol);

/// The reference row of an out-of-sample vertex: sum over its listed
/// neighbors of W(v) w in column Y(v). Depends on labels and the query
/// only, so it holds at any epoch.
std::vector<double> oos_row(const gee::serve::VertexQuery& q,
                            std::span<const std::int32_t> labels,
                            const Projection& p);

std::string check_row(std::span<const double> got,
                      std::span<const double> want, Tolerance tol);

/// A top-k reply: ordered by gee::serve::ranks_before, no vertex twice.
std::string check_ranked_order(std::span<const gee::serve::VertexScore> ranked);

/// A top-k reply against a reference Z: every score equals its vertex's
/// row entry, and no unlisted vertex outranks the last listed one.
std::string check_ranked_scores(std::span<const gee::serve::VertexScore> ranked,
                                const std::vector<double>& z, std::uint32_t n,
                                int k, std::int32_t cls, std::size_t want_len,
                                Tolerance tol);

/// Largest strictly positive entry, ties to the smaller class; -1 if none
/// (the library's argmax_class contract).
std::int32_t argmax_positive(std::span<const double> row);

/// What every answered serving reply must satisfy at any epoch: the opcode
/// its request asks for, one K-long row per requested vertex,
/// each prediction its row's argmax, every out-of-sample row equal to the
/// reference row, and a top-k list of at most `req.k` entries in
/// ranks_before order. Shed and error replies are the caller's to count.
std::string check_reply(const gee::shard::Router::Request& req,
                        const gee::net::DecodedReply& reply,
                        std::span<const std::int32_t> labels, const Projection& p,
                        Tolerance tol);

}  // namespace perfbench::ref
