#include "analytics/wcc.hpp"

#include <unordered_map>

#include "analytics/bfs.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/superstep.hpp"
#include "engine/frontier.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

/// (degree, id) pair ordered by higher degree, then smaller id.
struct DegVertex {
  std::uint64_t deg = 0;
  gvid_t gid = kNullGvid;

  static DegVertex better(DegVertex a, DegVertex b) {
    if (a.deg != b.deg) return a.deg > b.deg ? a : b;
    return a.gid <= b.gid ? a : b;
  }
};

/// ValueKernel: HashMin coloring of the non-giant leftovers (step 2).  The
/// BFS-swept giant members start with the canonical label and are never
/// recolored.  No leftover is adjacent to a swept vertex (the sweep would
/// have reached it), so no leftover reads a giant ghost and the round-0
/// sweep needs no seed exchange: the ghost replicas' id-init values are
/// exactly the leftovers' starting colors.
struct WccColorKernel {
  using Value = gvid_t;

  const DistGraph& g;
  std::span<const std::int64_t> level;  // giant membership (BFS level >= 0)
  std::vector<gvid_t> color;

  WccColorKernel(const DistGraph& g_, std::span<const std::int64_t> lvl,
                 gvid_t giant_min)
      : g(g_), level(lvl), color(g_.n_total()) {
    for (lvid_t l = 0; l < g.n_total(); ++l) color[l] = g.global_id(l);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (level[v] >= 0) color[v] = giant_min;
  }

  Adjacency adjacency() const { return Adjacency::kBoth; }
  std::span<gvid_t> values() { return color; }

  void compute(engine::StepContext& ctx) {
    // Serial in-place min-sweep: the in-place updates are what make HashMin
    // converge fast; rank-level parallelism is the primary axis (see
    // CommonOptions).
    ctx.touched_local = g.n_loc();
    std::uint64_t changed = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (level[v] >= 0) continue;  // giant members are settled
      gvid_t m = color[v];
      for (const lvid_t u : g.out_neighbors(v)) m = std::min(m, color[u]);
      for (const lvid_t u : g.in_neighbors(v)) m = std::min(m, color[u]);
      if (m < color[v]) {
        color[v] = m;
        ++changed;
      }
    }
    ctx.active_local = changed;
  }

  bool converged(std::uint64_t active_global, double) const {
    return active_global == 0;
  }
};

/// Collective: the step-1 root, the vertex with the most edges to *other*
/// vertices (out- plus in-degree minus twice its self loops), ties to the
/// smaller id.  Unlike max_degree_vertex it cannot pick a page whose edges
/// are all self loops, a sweep that reaches nothing.  A row's raw degree
/// bounds its edges to other vertices, so only rows whose raw degree
/// reaches the best so far have their self loops counted.
gvid_t sweep_root(const DistGraph& g, Communicator& comm) {
  DegVertex best;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    const std::uint64_t raw = g.out_degree(v) + g.in_degree(v);
    if (raw < best.deg) continue;
    std::uint64_t loops = 0;  // each self loop sits in both lists
    for (const lvid_t u : g.out_neighbors(v)) loops += u == v;
    for (const lvid_t u : g.in_neighbors(v)) loops += u == v;
    best = DegVertex::better(best, DegVertex{raw - loops, g.global_id(v)});
  }
  return comm.allreduce(best, DegVertex::better).gid;
}

}  // namespace

gvid_t max_degree_vertex(const DistGraph& g, Communicator& comm) {
  DegVertex best;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    const DegVertex cand{g.out_degree(v) + g.in_degree(v), g.global_id(v)};
    best = DegVertex::better(best, cand);
  }
  return comm.allreduce(best, DegVertex::better).gid;
}

WccResult wcc(const DistGraph& g, Communicator& comm, const WccOptions& opts) {
  WccResult res;

  // ---- Step 1 (BFS-like): sweep the giant component, direction-
  // optimizing over the kBoth plan the coloring step shares. ----
  BfsOptions bopts;
  bopts.dir = Dir::kBoth;
  bopts.direction_optimizing = true;
  bopts.common = opts.common;
  const BfsResult b = bfs(g, comm, sweep_root(g, comm), bopts);
  res.bfs_levels = b.num_levels;
  res.swept = b.visited;

  // Canonical label of the giant = min global id among its members.
  gvid_t giant_min_local = kNullGvid;
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (b.level[v] >= 0)
      giant_min_local = std::min(giant_min_local, g.global_id(v));
  const gvid_t giant_min = comm.allreduce_min(giant_min_local);

  // ---- Step 2 (PageRank-like): HashMin coloring of the leftovers,
  // driven by the superstep engine (sweep to a fixpoint). ----
  WccColorKernel kernel(g, b.level, giant_min);
  engine::SuperstepEngine eng(g, comm, engine_config(opts.common));
  const engine::EngineResult er = eng.run_value(kernel);
  res.coloring_iters = static_cast<int>(er.supersteps);

  res.comp.assign(kernel.color.begin(), kernel.color.begin() + g.n_loc());

  // ---- Largest component: the giant's size is the sweep's count; the
  // leftovers' per-label counts meet at the label's owner, then a global
  // max-reduce. ----
  std::unordered_map<gvid_t, std::uint64_t> local_counts;
  local_counts.reserve(g.n_loc() / 4 + 8);
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (b.level[v] < 0) ++local_counts[res.comp[v]];

  struct LabelCount {
    gvid_t label;
    std::uint64_t count;
  };
  std::vector<LabelCount> mine;
  mine.reserve(local_counts.size());
  for (const auto& [label, cnt] : local_counts)
    mine.push_back(LabelCount{label, cnt});
  const std::vector<LabelCount> recv = engine::route_to_owners<LabelCount>(
      comm, mine,
      [&](const LabelCount& lc) { return g.owner_of_global(lc.label); },
      opts.common.qsize);

  std::unordered_map<gvid_t, std::uint64_t> owned_totals;
  for (const LabelCount& lc : recv) owned_totals[lc.label] += lc.count;

  DegVertex best{res.swept, giant_min};  // deg = component size, gid = label
  for (const auto& [label, total] : owned_totals)
    best = DegVertex::better(best, DegVertex{total, label});
  best = comm.allreduce(best, DegVertex::better);
  res.largest_label = best.gid;
  res.largest_size = best.deg;
  return res;
}

}  // namespace hpcgraph::analytics
