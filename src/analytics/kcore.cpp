#include "analytics/kcore.hpp"

#include "analytics/bfs.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/superstep.hpp"
#include "util/prefix_sum.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using dgraph::GhostExchange;
using parcomm::Communicator;

namespace {

/// Shared peeling state for the approximate and exact k-core loops.
///
/// Cross-rank degree maintenance uses alive-flag mirroring instead of
/// routing one message per remote decrement: each sweep removes local
/// vertices below the limit, then a ghost exchange pushes the updated alive
/// flags (a one-byte value per vertex, so the adaptive sparse format kicks
/// in as soon as deaths get rare — which is most sweeps of most stages).
/// Receivers translate each *newly dead* ghost into degree decrements of the
/// local vertices incident to it via a ghost->locals incidence CSR built
/// once at setup, one entry per edge occurrence — exactly the multiplicity
/// the per-event scheme transmitted.  The peeling fixpoint is
/// order-independent, so results are identical.
///
/// The per-stage sweep-to-fixpoint loop itself runs on the SuperstepEngine:
/// one PeelKernel per stage borrows this state, and every stage's run
/// exchanges over the graph's shared kBoth plan.
struct Peeler {
  const DistGraph& g;
  dgraph::GhostMode mode;
  std::vector<std::uint64_t> deg;       ///< remaining degree, locals only
  std::vector<std::uint8_t> alive;      ///< locals + ghost replicas
  std::vector<std::uint64_t> inc_offs;  ///< ghost -> incident locals (CSR)
  std::vector<lvid_t> inc_verts;
  std::vector<lvid_t> flipped;          ///< ghosts newly dead this sweep
  std::uint64_t alive_local;
  ChunkGrid scan_grid;                  ///< mark-scan grid (built lazily)

  Peeler(const DistGraph& g_, const CommonOptions& opts)
      : g(g_),
        mode(opts.ghost_mode),
        deg(g_.n_loc()),
        alive(g_.n_total(), 1),
        alive_local(g_.n_loc()) {
    const std::uint64_t n_loc = g.n_loc();
    const auto each_ghost = [&](lvid_t v, auto&& fn) {
      for (const lvid_t u : g.out_neighbors(v))
        if (g.is_ghost(u)) fn(u);
      for (const lvid_t u : g.in_neighbors(v))
        if (g.is_ghost(u)) fn(u);
    };
    std::vector<std::uint64_t> cnt(g.n_total() - n_loc, 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      deg[v] = g.out_degree(v) + g.in_degree(v);
      each_ghost(v, [&](lvid_t u) { ++cnt[u - n_loc]; });
    }
    inc_offs = csr_offsets(std::span<const std::uint64_t>(cnt));
    inc_verts.resize(inc_offs.back());
    std::vector<std::uint64_t> cur(inc_offs.begin(), inc_offs.end() - 1);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      each_ghost(v, [&](lvid_t u) { inc_verts[cur[u - n_loc]++] = v; });
  }

  /// Remove local vertices below the degree limit (marking them on the
  /// run's exchange); calls on_remove(v) per removal, returns the count.
  template <typename F>
  std::uint64_t remove_below(std::uint64_t limit, F&& on_remove,
                             GhostExchange& gx) {
    std::uint64_t removed = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (!alive[v] || deg[v] >= limit) continue;
      alive[v] = 0;
      gx.mark_changed(v);
      on_remove(v);
      ++removed;
      --alive_local;
      const auto drop = [&](lvid_t u) {
        if (!g.is_ghost(u) && alive[u] && deg[u] > 0) --deg[u];
      };
      for (const lvid_t u : g.out_neighbors(v)) drop(u);
      for (const lvid_t u : g.in_neighbors(v)) drop(u);
    }
    return removed;
  }

  /// Schedule-aware variant of remove_below: a parallel read-only mark scan
  /// collects per-chunk candidate lists (alive vertices below the limit),
  /// then a serial apply in chunk order performs the removals and degree
  /// decrements.  Candidates are judged against the sweep-start degree
  /// snapshot, so the in-sweep cascade of the serial path (a removal
  /// dragging a later vertex below the limit within the same sweep) is
  /// deferred to the next sweep — possibly more sweeps to the same
  /// order-independent fixpoint, and bit-identical deg/alive/bound outputs.
  template <typename F>
  std::uint64_t remove_below_scheduled(std::uint64_t limit, F&& on_remove,
                                       GhostExchange& gx, ThreadPool& tp,
                                       Schedule sched) {
    // The scan is O(1) per vertex (no adjacency walk), so the grid is
    // uniform-weight; chunk geometry is a pure function of n_loc.
    if (scan_grid.empty() && g.n_loc() > 0)
      scan_grid = make_grid(sched, g.n_loc(), {}, tp.num_threads());
    std::vector<std::vector<lvid_t>> cand(scan_grid.size());
    tp.for_chunks(scan_grid, sched,
                  [&](unsigned, std::uint64_t c, const Chunk& ck) {
                    for (std::uint64_t v = ck.begin; v < ck.end; ++v)
                      if (alive[v] && deg[v] < limit)
                        cand[c].push_back(static_cast<lvid_t>(v));
                  });
    std::uint64_t removed = 0;
    for (const std::vector<lvid_t>& list : cand) {
      for (const lvid_t v : list) {
        alive[v] = 0;
        gx.mark_changed(v);
        on_remove(v);
        ++removed;
        --alive_local;
        const auto drop = [&](lvid_t u) {
          if (!g.is_ghost(u) && alive[u] && deg[u] > 0) --deg[u];
        };
        for (const lvid_t u : g.out_neighbors(v)) drop(u);
        for (const lvid_t u : g.in_neighbors(v)) drop(u);
      }
    }
    return removed;
  }

  /// Apply each newly dead ghost's incident edge occurrences as local
  /// degree decrements (post-exchange half of a sweep).
  void apply_flipped() {
    const std::uint64_t n_loc = g.n_loc();
    for (const lvid_t gl : flipped) {
      const std::uint64_t gi = gl - n_loc;
      for (std::uint64_t e = inc_offs[gi]; e < inc_offs[gi + 1]; ++e) {
        const lvid_t u = inc_verts[e];
        if (alive[u] && deg[u] > 0) --deg[u];
      }
    }
  }

  /// Alive mask restricted to local vertices (the BFS option view).
  std::span<const std::uint8_t> local_alive() const {
    return {alive.data(), static_cast<std::size_t>(g.n_loc())};
  }
};

/// ValueKernel: peel one stage (fixed degree limit) to its fixpoint.  The
/// exchanged value is the alive flag; the engine's changed_ghosts output
/// (newly dead replicas) drives the incidence-CSR degree decrements in the
/// apply hook.  A stage converges on the first sweep that removes nothing
/// anywhere — the engine's fused allreduce of the removal count replaces
/// the old per-sweep allreduce_sum.
template <typename F>
struct PeelKernel {
  using Value = std::uint8_t;
  // Schedule-aware: non-static schedules run the two-phase mark/apply sweep
  // (parallel candidate scan, serial chunk-order apply).  The peeling
  // fixpoint is order-independent, so bound[]/core[] are bit-identical;
  // only the unpinned per-stage sweep count may differ.
  static constexpr bool kScheduleAware = true;

  Peeler& p;
  std::uint64_t limit;
  F on_remove;
  std::uint64_t removed_total = 0;  ///< global removals over the stage

  Adjacency adjacency() const { return Adjacency::kBoth; }
  dgraph::GhostMode ghost_mode() const { return p.mode; }
  std::span<std::uint8_t> values() { return {p.alive}; }
  std::vector<lvid_t>* changed_ghosts() { return &p.flipped; }

  void compute(engine::StepContext& ctx) {
    if (ctx.schedule == Schedule::kStatic)
      ctx.active_local = p.remove_below(limit, on_remove, *ctx.gx);
    else
      ctx.active_local = p.remove_below_scheduled(limit, on_remove, *ctx.gx,
                                                  ctx.pool, ctx.schedule);
    ctx.touched_local = p.g.n_loc();
  }

  void apply(engine::StepContext&) { p.apply_flipped(); }

  bool converged(std::uint64_t active_global, double) {
    removed_total += active_global;
    return active_global == 0;
  }
};

/// Run one peel stage on the engine; returns (sweeps, global removals).
template <typename F>
std::pair<std::uint64_t, std::uint64_t> peel_stage(
    Peeler& peel, Communicator& comm, const CommonOptions& opts,
    std::uint64_t limit, F&& on_remove) {
  PeelKernel<F> kernel{peel, limit, std::forward<F>(on_remove)};
  engine::SuperstepEngine eng(peel.g, comm, engine_config(opts));
  const engine::EngineResult er = eng.run_value(kernel);
  return {er.supersteps, kernel.removed_total};
}

}  // namespace

KCoreResult kcore_approx(const DistGraph& g, Communicator& comm,
                         const KCoreOptions& opts) {
  KCoreResult res;
  res.bound.assign(g.n_loc(), std::uint64_t{1} << opts.max_i);

  Peeler peel(g, opts.common);

  for (unsigned i = 1; i <= opts.max_i; ++i) {
    const std::uint64_t threshold = std::uint64_t{1} << i;
    KCoreStage stage;
    stage.i = i;
    stage.threshold = threshold;

    // ---- Peel to the 2^i-core fixpoint. ----
    const auto [sweeps, removed] = peel_stage(
        peel, comm, opts.common, threshold,
        [&](lvid_t v) { res.bound[v] = threshold; });
    stage.peel_sweeps = static_cast<int>(sweeps);
    stage.removed = removed;

    stage.alive_after = comm.allreduce_sum(peel.alive_local);

    // ---- Largest surviving component: one alive-masked BFS from the
    // highest-degree survivor (the paper's per-stage BFS). ----
    if (opts.track_components && stage.alive_after > 0) {
      struct Cand {
        std::uint64_t deg = 0;
        gvid_t gid = kNullGvid;
      };
      Cand best;
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        if (!peel.alive[v]) continue;
        if (peel.deg[v] > best.deg ||
            (peel.deg[v] == best.deg && g.global_id(v) < best.gid))
          best = {peel.deg[v], g.global_id(v)};
      }
      best = comm.allreduce(best, [](Cand a, Cand b) {
        if (a.deg != b.deg) return a.deg > b.deg ? a : b;
        return a.gid <= b.gid ? a : b;
      });
      BfsOptions bopts;
      bopts.dir = Dir::kBoth;
      bopts.alive = peel.local_alive();
      bopts.common = opts.common;
      const BfsResult cc = bfs(g, comm, best.gid, bopts);
      stage.largest_cc = cc.visited;
    }

    res.stages.push_back(stage);
    if (stage.alive_after == 0) break;
  }
  return res;
}

KCoreExactResult kcore_exact(const DistGraph& g, Communicator& comm,
                             const CommonOptions& opts) {
  KCoreExactResult res;
  res.core.assign(g.n_loc(), 0);

  Peeler peel(g, opts);

  std::uint64_t k = 0;
  while (comm.allreduce_sum(peel.alive_local) > 0) {
    ++k;
    ++res.stages;
    // Peel to the k-core fixpoint; every vertex removed here survived the
    // (k-1)-core, so its coreness is exactly k-1.
    peel_stage(peel, comm, opts, k, [&](lvid_t v) { res.core[v] = k - 1; });
  }

  std::uint64_t max_local = 0;
  for (const std::uint64_t c : res.core) max_local = std::max(max_local, c);
  res.max_core = comm.allreduce_max(max_local);
  return res;
}

}  // namespace hpcgraph::analytics
