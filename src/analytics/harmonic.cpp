#include "analytics/harmonic.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

#include "analytics/bfs.hpp"
#include "util/bitmask64.hpp"
#include "util/rng.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

double harmonic_centrality(const DistGraph& g, Communicator& comm, gvid_t v,
                           const HarmonicOptions& opts) {
  BfsOptions bopts;
  bopts.dir = Dir::kOut;
  bopts.common = opts.common;
  const BfsResult b = bfs(g, comm, v, bopts);

  double sum_local = 0;
  for (lvid_t u = 0; u < g.n_loc(); ++u)
    if (b.level[u] > 0)  // level 0 is v itself
      sum_local += 1.0 / static_cast<double>(b.level[u]);
  return comm.allreduce_sum(sum_local);
}

namespace {

/// Batched scoring: ⌈k/64⌉ MS-BFS sweeps over the candidate roots, each
/// level's discovery masks contributing 1/level to their roots' sums.
/// One allgatherv folds all per-rank partial sums at the end.
std::vector<double> score_batched(const DistGraph& g, Communicator& comm,
                                  std::span<const gvid_t> roots,
                                  const HarmonicOptions& opts) {
  MsBfsOptions mo;
  mo.dir = Dir::kOut;
  mo.batch_size = opts.batch_size;
  mo.dense_threshold = opts.dense_threshold;
  mo.common = opts.common;

  std::vector<double> local(roots.size(), 0.0);
  msbfs_visit(g, comm, roots, mo,
              [&](std::int64_t level, std::span<const std::uint64_t> newly,
                  std::span<const gvid_t>, std::size_t batch_begin) {
                if (level == 0) return;  // the roots themselves
                const double inv = 1.0 / static_cast<double>(level);
                for (lvid_t v = 0; v < g.n_loc(); ++v)
                  bits::for_each_set_bit(newly[v], [&](std::size_t j) {
                    local[batch_begin + j] += inv;
                  });
              });

  const std::vector<double> all = comm.allgatherv<double>(local);
  std::vector<double> score(roots.size(), 0.0);
  for (int r = 0; r < comm.size(); ++r)
    for (std::size_t i = 0; i < score.size(); ++i)
      score[i] += all[static_cast<std::size_t>(r) * score.size() + i];
  return score;
}

}  // namespace

std::vector<ScoredVertex> harmonic_top_k(const DistGraph& g,
                                         Communicator& comm, std::size_t k,
                                         const HarmonicOptions& opts) {
  // ---- Distributed top-k by total degree: local top-k, then a global
  // merge over the (k * nranks)-candidate union. ----
  struct DegGid {
    std::uint64_t deg;
    gvid_t gid;
  };
  std::vector<DegGid> local(g.n_loc());
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    local[v] = {g.out_degree(v) + g.in_degree(v), g.global_id(v)};
  const auto by_degree = [](const DegGid& a, const DegGid& b) {
    if (a.deg != b.deg) return a.deg > b.deg;
    return a.gid < b.gid;
  };
  const std::size_t keep = std::min(k, local.size());
  std::partial_sort(local.begin(), local.begin() + keep, local.end(),
                    by_degree);
  local.resize(keep);

  std::vector<DegGid> candidates = comm.allgatherv<DegGid>(local);
  std::sort(candidates.begin(), candidates.end(), by_degree);
  if (candidates.size() > k) candidates.resize(k);

  // ---- Score the selected vertices. ----
  std::vector<ScoredVertex> out;
  out.reserve(candidates.size());
  if (opts.batched && !candidates.empty()) {
    std::vector<gvid_t> roots(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      roots[i] = candidates[i].gid;
    const std::vector<double> score = score_batched(g, comm, roots, opts);
    for (std::size_t i = 0; i < roots.size(); ++i)
      out.push_back({roots[i], score[i]});
  } else {
    // Per-source reference path: one BFS per selected vertex.
    for (const DegGid& c : candidates)
      out.push_back({c.gid, harmonic_centrality(g, comm, c.gid, opts)});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredVertex& a, const ScoredVertex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.gid < b.gid;
            });
  return out;
}

HarmonicApproxResult harmonic_approx(const DistGraph& g, Communicator& comm,
                                     const HarmonicApproxOptions& opts) {
  HG_CHECK_MSG(opts.n_samples >= 1, "harmonic_approx needs >= 1 sample");
  HarmonicApproxResult res;
  res.score.assign(g.n_loc(), 0.0);
  const gvid_t n = g.n_global();
  if (n == 0) return res;
  const gvid_t s = std::min<gvid_t>(opts.n_samples, n);

  // ---- Rank 0 draws s distinct targets; everyone gets the same list. ----
  std::vector<gvid_t> samples;
  if (comm.rank() == 0) {
    Rng rng(opts.seed);
    if (s >= n) {
      samples.resize(n);
      std::iota(samples.begin(), samples.end(), gvid_t{0});
    } else if (s * 2 >= n) {
      // Dense draw: partial Fisher-Yates over the full id range.
      std::vector<gvid_t> pool(n);
      std::iota(pool.begin(), pool.end(), gvid_t{0});
      for (gvid_t i = 0; i < s; ++i)
        std::swap(pool[i], pool[i + rng.below(n - i)]);
      samples.assign(pool.begin(), pool.begin() + s);
    } else {
      // Sparse draw: rejection sampling (expected < 2 draws per sample).
      std::unordered_set<gvid_t> taken;
      while (samples.size() < s) {
        const gvid_t c = rng.below(n);
        if (taken.insert(c).second) samples.push_back(c);
      }
    }
  }
  res.samples = comm.broadcast_vec<gvid_t>(samples, 0);

  // ---- Distances *toward* each target: reverse (in-edge) MS-BFS, so bit j
  // reaching v at level L means d(v, sample_j) = L along out-edges. ----
  MsBfsOptions mo;
  mo.dir = Dir::kIn;
  mo.batch_size = opts.batch_size;
  mo.dense_threshold = opts.dense_threshold;
  mo.common = opts.common;
  const MsBfsResult r = msbfs_visit(
      g, comm, res.samples, mo,
      [&](std::int64_t level, std::span<const std::uint64_t> newly,
          std::span<const gvid_t>, std::size_t) {
        if (level == 0) return;  // d(v, v) = 0 contributes nothing
        const double inv = 1.0 / static_cast<double>(level);
        for (lvid_t v = 0; v < g.n_loc(); ++v)
          if (newly[v] != 0)
            res.score[v] += inv * std::popcount(newly[v]);
      });
  res.num_levels = r.num_levels;

  // Unbiased estimator of sum over all u of 1/d(v, u): uniform targets,
  // scaled by n/s.  s == n degenerates to the exact sum (scale 1).
  const double scale = static_cast<double>(n) / static_cast<double>(s);
  for (double& x : res.score) x *= scale;
  return res;
}

}  // namespace hpcgraph::analytics
