// Seeded input generators of the benchmark. They are the benchmark's own
// (not the library's gen/ module), so a change to the library cannot
// change what the benchmark feeds it: the same seed gives the same graph,
// labels and requests on every commit.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace perfbench::inputs {

/// splitmix64: a small, fast, well-mixed generator for bulk draws.
struct SplitMix {
  std::uint64_t state;
  explicit SplitMix(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct EdgeArrays {
  std::uint32_t n = 0;
  std::vector<std::uint32_t> src;
  std::vector<std::uint32_t> dst;
};

/// Undirected R-MAT multigraph: 2^scale vertices, edge_factor * 2^scale
/// edges, Graph500 quadrant probabilities (0.57, 0.19, 0.19, 0.05), no
/// self-loops, vertex ids randomly permuted so degree is not correlated
/// with id.
EdgeArrays rmat(int scale, std::uint64_t edge_factor, std::uint64_t seed);

/// G(n, m) with uniform endpoints and no self-loops.
EdgeArrays erdos_renyi(std::uint32_t n, std::uint64_t m, std::uint64_t seed);

/// round(fraction * n) vertices, chosen uniformly, get a uniform class in
/// [0, k); every class gets at least one vertex; the rest are -1.
std::vector<std::int32_t> labels(std::uint32_t n, int k, double fraction,
                                 std::uint64_t seed);

}  // namespace perfbench::inputs
