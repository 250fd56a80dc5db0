#include "analytics/betweenness.hpp"

#include <algorithm>

#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/superstep.hpp"
#include "util/rng.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using dgraph::GhostExchange;
using parcomm::Communicator;

std::vector<gvid_t> betweenness_sources(gvid_t n, std::size_t k,
                                        std::uint64_t seed) {
  if (k == 0 || k >= n) {
    std::vector<gvid_t> all(n);
    for (gvid_t v = 0; v < n; ++v) all[v] = v;
    return all;
  }
  // Distinct draws by hashing an incrementing counter; collisions skipped.
  std::vector<gvid_t> out;
  out.reserve(k);
  std::uint64_t ctr = 0;
  while (out.size() < k) {
    const gvid_t v = splitmix64(seed ^ (0xbc5ULL + ctr++)) % n;
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

namespace {

constexpr std::int64_t kUnset = -1;

/// FrontierKernel: one level of Brandes's forward sigma sweep.  Remote path
/// counts route to the owners through engine::route_to_owners; the local
/// frontier of each level is recorded for the backward pass.
///
/// Order-independent: sigma values are integer shortest-path counts stored
/// in doubles, so contributions sum exactly in any order — the engine may
/// freely switch representation without perturbing scores.
struct BrandesForwardKernel {
  const DistGraph& g;
  std::vector<std::int64_t>& level;
  std::vector<double>& sigma;
  std::vector<double>& contrib;
  std::vector<std::vector<lvid_t>>& frontiers;  // per-level local frontiers
  std::size_t qsize;
  engine::DistFrontier cur, next;

  BrandesForwardKernel(const DistGraph& g_, std::vector<std::int64_t>& lv,
                       std::vector<double>& sg, std::vector<double>& cb,
                       std::vector<std::vector<lvid_t>>& fr, std::size_t qs)
      : g(g_), level(lv), sigma(sg), contrib(cb), frontiers(fr), qsize(qs),
        cur(g_.n_loc()), next(g_.n_loc()) {}

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  std::uint64_t degree_local() const {
    return cur.weight_sum([&](lvid_t v) { return g.out_degree(v); });
  }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();
    const std::int64_t depth = static_cast<std::int64_t>(ctx.superstep);

    struct PathMsg {
      gvid_t gid;
      double paths;
    };

    frontiers.emplace_back();
    std::vector<lvid_t>& saved = frontiers.back();
    saved.reserve(cur.size());

    std::vector<PathMsg> remote;
    std::vector<lvid_t> touched;  // locals that received contributions
    cur.for_each([&](lvid_t u) {
      saved.push_back(u);
      for (const lvid_t v : g.out_neighbors(u)) {
        if (g.is_ghost(v)) {
          remote.push_back({g.global_id(v), sigma[u]});
        } else if (level[v] == kUnset) {
          if (contrib[v] == 0.0) touched.push_back(v);
          contrib[v] += sigma[u];
        }
      }
    });

    const std::vector<PathMsg> recv = engine::route_to_owners<PathMsg>(
        ctx.comm, remote,
        [&](const PathMsg& m) { return g.owner_of_global(m.gid); }, qsize);
    for (const PathMsg& m : recv) {
      const lvid_t v = g.owned_local_checked(m.gid);
      if (level[v] == kUnset) {
        if (contrib[v] == 0.0) touched.push_back(v);
        contrib[v] += m.paths;
      }
    }

    next.clear();
    for (const lvid_t v : touched) {
      if (level[v] != kUnset || contrib[v] == 0.0) continue;
      level[v] = depth + 1;
      sigma[v] = contrib[v];
      contrib[v] = 0.0;
      next.push(v);
      ctx.degree_local += g.out_degree(v);
    }
    cur.swap(next);
  }
};

/// One Brandes source: forward sigma sweep + backward delta accumulation.
/// Adds each non-source vertex's dependency into `score`.
void accumulate_source(const DistGraph& g, Communicator& comm, gvid_t source,
                       GhostExchange& gx, std::vector<double>& score,
                       const CommonOptions& common) {
  const int me = comm.rank();

  std::vector<std::int64_t> level(g.n_loc(), kUnset);
  // sigma/delta cover ghosts: successors' values are read through out-edges.
  std::vector<double> sigma(g.n_total(), 0.0);
  std::vector<double> contrib(g.n_loc(), 0.0);

  std::vector<std::vector<lvid_t>> frontiers;  // per-level local frontiers
  BrandesForwardKernel kernel(g, level, sigma, contrib, frontiers,
                              common.qsize);
  if (g.owner_of_global(source) == me) {
    const lvid_t l = g.local_id_checked(source);
    level[l] = 0;
    sigma[l] = 1.0;
    kernel.cur.push(l);
  }

  // ---- Forward phase: level-synchronous shortest-path counting. ----
  engine::SuperstepEngine eng(g, comm, engine_config(common));
  eng.run_frontier(kernel);

  // Successor sigma for the backward pass.
  gx.exchange<double>(sigma, comm);

  // ---- Backward phase: dependency accumulation, deepest level first. ----
  // delta over locals + ghosts (ghost slots refreshed per level).
  std::vector<double> delta(g.n_total(), 0.0);
  // Ghost levels: the backward rule needs "is v exactly one level deeper";
  // encode via sigma>0 plus a ghost level array exchanged once.
  std::vector<std::int64_t> level_all(g.n_total(), kUnset);
  std::copy(level.begin(), level.end(), level_all.begin());
  gx.exchange<std::int64_t>(level_all, comm);

  for (std::size_t li = frontiers.size(); li-- > 0;) {
    const std::int64_t l = static_cast<std::int64_t>(li);
    for (const lvid_t u : frontiers[li]) {
      double acc = 0;
      for (const lvid_t v : g.out_neighbors(u)) {
        if (level_all[v] != l + 1 || sigma[v] <= 0.0) continue;
        acc += sigma[u] / sigma[v] * (1.0 + delta[v]);
      }
      delta[u] = acc;
    }
    // Publish this level's deltas so the next (shallower) level can read
    // its ghost successors.
    gx.exchange<double>(delta, comm);
  }

  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (level[v] > 0)  // exclude the source itself
      score[v] += delta[v];
}

}  // namespace

BetweennessResult betweenness(const DistGraph& g, Communicator& comm,
                              const BetweennessOptions& opts) {
  BetweennessResult res;
  res.sources = betweenness_sources(g.n_global(), opts.num_sources, opts.seed);
  res.score.assign(g.n_loc(), 0.0);

  // Ghost value flow is owner -> tasks reading the vertex through out-edge
  // lists, i.e. the kIn adjacency marking (same mapping as PageRank's kOut,
  // mirrored: here readers scan *out*-neighbours).
  GhostExchange gx(g, comm, Adjacency::kIn, opts.common.pool);

  for (const gvid_t s : res.sources)
    accumulate_source(g, comm, s, gx, res.score, opts.common);
  return res;
}

}  // namespace hpcgraph::analytics
