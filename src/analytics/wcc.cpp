#include "analytics/wcc.hpp"

#include <unordered_map>

#include "analytics/bfs.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/superstep.hpp"
#include "util/atomics.hpp"
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
/// init hook re-colors the BFS-swept giant members to the canonical label
/// and the engine pushes that seed through one exchange (kSeedExchange)
/// before round 0, because the ghost replicas still hold the id-init value.
struct WccColorKernel {
  using Value = gvid_t;
  static constexpr bool kSeedExchange = true;
  // Schedule-aware: HashMin converges to the unique per-component minimum
  // regardless of sweep order, so the non-static schedules switch to a
  // chunk-parallel Jacobi min-sweep over a snapshot — possibly different
  // iteration counts than the serial in-place sweep, same fixpoint.
  static constexpr bool kScheduleAware = true;

  const DistGraph& g;
  const WccOptions& opts;
  std::span<const std::int64_t> level;  // giant membership (BFS level >= 0)
  gvid_t giant_min;
  std::vector<gvid_t> color;
  std::vector<gvid_t> prev;  // pre-round snapshot (Jacobi variant reads it)
  ChunkGrid grid;            // degree-weighted (built lazily)

  WccColorKernel(const DistGraph& g_, const WccOptions& o,
                 std::span<const std::int64_t> lvl, gvid_t gmin)
      : g(g_), opts(o), level(lvl), giant_min(gmin), color(g_.n_total()) {
    for (lvid_t l = 0; l < g.n_total(); ++l) color[l] = g.global_id(l);
  }

  Adjacency adjacency() const { return Adjacency::kBoth; }
  dgraph::GhostMode ghost_mode() const { return opts.common.ghost_mode; }
  std::span<gvid_t> values() { return color; }

  void init(engine::StepContext& ctx) {
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (level[v] >= 0 && color[v] != giant_min) {
        color[v] = giant_min;
        ctx.gx->mark_changed(v);  // ghosts still hold the id-init value
      }
  }

  void compute(engine::StepContext& ctx) {
    ctx.touched_local = g.n_loc();
    if (ctx.schedule == Schedule::kStatic) {
      // Serial min-sweep: the in-place updates are what make HashMin
      // converge fast; rank-level parallelism is the primary axis (see
      // CommonOptions).
      std::uint64_t changed = 0;
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        if (level[v] >= 0) continue;  // giant members are settled
        gvid_t m = color[v];
        for (const lvid_t u : g.out_neighbors(v)) m = std::min(m, color[u]);
        for (const lvid_t u : g.in_neighbors(v)) m = std::min(m, color[u]);
        if (m < color[v]) {
          color[v] = m;
          ctx.gx->mark_changed(v);
          ++changed;
        }
      }
      ctx.active_local = changed;
      return;
    }

    // Non-static schedules: deterministic chunk-parallel Jacobi min-sweep.
    // Every vertex reads the pre-round snapshot, so chunks are independent
    // (no Gauss-Seidel propagation within a round — possibly more rounds to
    // the same fixpoint).
    prev.assign(color.begin(), color.end());
    if (grid.empty() && g.n_loc() > 0)
      grid = make_grid(ctx.schedule, g.n_loc(), both_degree_prefix(g),
                       ctx.pool.num_threads());
    RelaxedCounter changed;
    ctx.pool.for_ranges(grid, ctx.schedule,
                        [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
      std::uint64_t chg = 0;
      for (std::uint64_t vi = lo; vi < hi; ++vi) {
        const lvid_t v = static_cast<lvid_t>(vi);
        if (level[v] >= 0) continue;  // giant members are settled
        gvid_t m = prev[v];
        for (const lvid_t u : g.out_neighbors(v)) m = std::min(m, prev[u]);
        for (const lvid_t u : g.in_neighbors(v)) m = std::min(m, prev[u]);
        if (m < color[v]) {
          color[v] = m;
          ctx.gx->mark_changed(v);
          ++chg;
        }
      }
      if (chg) changed.add(chg);
    });
    ctx.active_local = changed.load();
  }

  bool converged(std::uint64_t active_global, double) const {
    return active_global == 0;
  }
};

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

  // ---- Step 1 (BFS-like): sweep the giant component. ----
  const gvid_t root = max_degree_vertex(g, comm);
  BfsOptions bopts;
  bopts.dir = Dir::kBoth;
  bopts.common = opts.common;
  const BfsResult b = bfs(g, comm, root, bopts);
  res.bfs_levels = b.num_levels;

  // Canonical label of the giant = min global id among its members.
  gvid_t giant_min_local = kNullGvid;
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (b.level[v] >= 0)
      giant_min_local = std::min(giant_min_local, g.global_id(v));
  const gvid_t giant_min = comm.allreduce_min(giant_min_local);

  // ---- Step 2 (PageRank-like): HashMin coloring of the leftovers,
  // driven by the superstep engine (seed exchange + sweep-to-fixpoint). ----
  WccColorKernel kernel(g, opts, b.level, giant_min);
  engine::SuperstepEngine eng(g, comm, engine_config(opts.common, "wcc"));
  const engine::EngineResult er = eng.run_value(kernel);
  res.coloring_iters = static_cast<int>(er.supersteps);

  res.comp.assign(kernel.color.begin(), kernel.color.begin() + g.n_loc());

  // ---- Largest component: aggregate per-label counts at the label's
  // owner, then a global max-reduce. ----
  std::unordered_map<gvid_t, std::uint64_t> local_counts;
  local_counts.reserve(g.n_loc() / 4 + 8);
  for (lvid_t v = 0; v < g.n_loc(); ++v) ++local_counts[res.comp[v]];

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

  DegVertex best;  // reuse: deg = component size, gid = label
  for (const auto& [label, total] : owned_totals)
    best = DegVertex::better(best, DegVertex{total, label});
  best = comm.allreduce(best, DegVertex::better);
  res.largest_label = best.gid;
  res.largest_size = best.deg;
  return res;
}

}  // namespace hpcgraph::analytics
