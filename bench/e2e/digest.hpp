#pragma once
/// \file digest.hpp
/// Output digests: what every checked operation's result is reduced to, so
/// each repetition can be compared with the src/ref oracles (and with
/// golden.json) without holding or shipping full n-length arrays.
///
///   * `exact` — an order-independent sum of per-vertex hash terms over a
///     discrete output (labels, levels, bounds, membership).  Equal sums
///     mean equal outputs, whatever the partition or rank count.
///   * `approx` — floating-point outputs, compared within a tolerance.  For
///     PageRank these are linear sketches sum_v score(v) * w_k(v) with
///     weights in [0, 1), so a sketch moves by at most the L1 distance
///     between two score vectors: an L1 bound carries over unchanged.

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace hpcgraph::e2e {

struct Digest {
  std::uint64_t exact = 0;
  std::vector<double> approx;
  double abs_tol = 0;  ///< approx[i] may differ by abs_tol + rel_tol*|ref|
  double rel_tol = 0;
};

/// `got` against the reference `want` (whose tolerances apply).
inline bool matches(const Digest& got, const Digest& want) {
  if (got.exact != want.exact || got.approx.size() != want.approx.size())
    return false;
  for (std::size_t i = 0; i < want.approx.size(); ++i) {
    const double lim = want.abs_tol + want.rel_tol * std::fabs(want.approx[i]);
    if (!(std::fabs(got.approx[i] - want.approx[i]) <= lim)) return false;
  }
  return true;
}

/// Hash term of one (vertex, value) pair; digests sum these mod 2^64.
inline std::uint64_t vertex_term(gvid_t v, std::uint64_t value) {
  return splitmix64(splitmix64(v) ^ value);
}

inline constexpr unsigned kSketches = 4;

/// Sketch weight k of vertex v, uniform in [0, 1).
inline double sketch_weight(gvid_t v, unsigned k) {
  const std::uint64_t h =
      splitmix64(v ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{k} + 1)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Tolerances the benchmark checks analytics against the oracles with.
inline constexpr double kPageRankL1 = 1e-9;
inline constexpr double kHarmonicRel = 1e-12;

}  // namespace hpcgraph::e2e
