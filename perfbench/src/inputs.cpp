#include "inputs.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace perfbench::inputs {

EdgeArrays rmat(int scale, std::uint64_t edge_factor, std::uint64_t seed) {
  EdgeArrays out;
  out.n = std::uint32_t{1} << scale;
  const std::uint64_t m = edge_factor * out.n;
  out.src.reserve(m);
  out.dst.reserve(m);
  // Quadrant thresholds on a 16-bit draw: a, a+b, a+b+c of 65536.
  constexpr std::uint32_t kA = 37355, kAB = 49807, kABC = 62259;
  SplitMix rng(seed * 0x2545f4914f6cdd1dull + 1);
  while (out.src.size() < m) {
    std::uint32_t u = 0, v = 0;
    std::uint64_t bits = 0;
    for (int level = 0; level < scale; ++level) {
      if (level % 4 == 0) bits = rng.next();
      const auto r = static_cast<std::uint32_t>(bits & 0xffff);
      bits >>= 16;
      const std::uint32_t half = std::uint32_t{1} << (scale - 1 - level);
      if (r >= kABC) {
        u += half;
        v += half;
      } else if (r >= kAB) {
        u += half;
      } else if (r >= kA) {
        v += half;
      }
    }
    if (u == v) continue;
    out.src.push_back(u);
    out.dst.push_back(v);
  }
  std::vector<std::uint32_t> perm(out.n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = out.n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(std::uint64_t{i} + 1)]);
  }
  for (std::uint64_t i = 0; i < m; ++i) {
    out.src[i] = perm[out.src[i]];
    out.dst[i] = perm[out.dst[i]];
  }
  return out;
}

EdgeArrays erdos_renyi(std::uint32_t n, std::uint64_t m, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("erdos_renyi: n < 2");
  EdgeArrays out;
  out.n = n;
  out.src.reserve(m);
  out.dst.reserve(m);
  SplitMix rng(seed * 0x9e3779b97f4a7c15ull + 7);
  while (out.src.size() < m) {
    const auto u = static_cast<std::uint32_t>(rng.below(n));
    const auto v = static_cast<std::uint32_t>(rng.below(n));
    if (u == v) continue;
    out.src.push_back(u);
    out.dst.push_back(v);
  }
  return out;
}

std::vector<std::int32_t> labels(std::uint32_t n, int k, double fraction,
                                 std::uint64_t seed) {
  const auto labeled = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(n)));
  if (labeled < static_cast<std::uint32_t>(k) || labeled > n) {
    throw std::invalid_argument("labels: fraction leaves a class empty");
  }
  SplitMix rng(seed * 0xd1342543de82ef95ull + 3);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::int32_t> y(n, -1);
  for (std::uint32_t i = 0; i < labeled; ++i) {
    std::swap(order[i], order[i + rng.below(n - i)]);
    // The first k picks cover every class once; the rest are uniform.
    y[order[i]] = i < static_cast<std::uint32_t>(k)
                      ? static_cast<std::int32_t>(i)
                      : static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return y;
}

}  // namespace perfbench::inputs
