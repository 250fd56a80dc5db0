#include "analytics/kcore.hpp"

#include <array>

#include "analytics/msbfs.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/superstep.hpp"
#include "obs/tracer.hpp"
#include "util/bitmask64.hpp"
#include "util/prefix_sum.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

/// Peeling state shared by the approximate and exact k-core (the worklist
/// peel of kcore.hpp).  A vertex joins the worklist at most once per stage:
/// when seeded, or when its degree crosses from the limit to one below it.
/// Ranks mirror a one-byte alive flag rather than send one message per remote
/// decrement: each round ships every boundary flag, and a receiver turns the
/// ghosts that flipped to dead into decrements through the incidence CSR,
/// which holds one entry per edge occurrence.
struct Peeler {
  const DistGraph& g;
  std::vector<std::uint64_t> deg;         ///< remaining degree, locals only
  std::vector<std::uint8_t> alive;        ///< locals + ghost replicas
  std::vector<std::uint64_t> removed_at;  ///< limit a removed local fell below
  std::vector<std::uint64_t> inc_offs;    ///< ghost -> incident locals (CSR)
  std::vector<lvid_t> inc_verts;
  std::vector<lvid_t> flipped;            ///< ghosts newly dead this round
  std::vector<lvid_t> work;               ///< alive locals below the limit
  std::uint64_t limit = 0;                ///< the stage's degree limit
  std::uint64_t alive_local;

  explicit Peeler(const DistGraph& g_)
      : g(g_),
        deg(g_.n_loc()),
        alive(g_.n_total(), 1),
        removed_at(g_.n_loc(), 0),
        alive_local(g_.n_loc()) {
    obs::Span span(obs::span_name::kKcoreSetup);
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

  /// Stage start: set the limit and queue every alive local below it.
  void seed(std::uint64_t lim) {
    limit = lim;
    work.clear();
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (alive[v] && deg[v] < limit) work.push_back(v);
  }

  /// One edge occurrence of local u lost its other endpoint: decrement u's
  /// degree if u is alive, queueing u when it falls below the limit.
  void drop(lvid_t u) {
    if (!alive[u] || deg[u] == 0) return;
    if (deg[u]-- == limit) work.push_back(u);
  }

  /// Remove every queued vertex and all it drags below the limit on this
  /// rank; returns the count.
  std::uint64_t drain() {
    std::uint64_t removed = 0;
    while (!work.empty()) {
      const lvid_t v = work.back();
      work.pop_back();
      alive[v] = 0;
      removed_at[v] = limit;
      ++removed;
      for (const lvid_t u : g.out_neighbors(v))
        if (!g.is_ghost(u)) drop(u);
      for (const lvid_t u : g.in_neighbors(v))
        if (!g.is_ghost(u)) drop(u);
    }
    alive_local -= removed;
    return removed;
  }

  /// Apply each newly dead ghost's incident edge occurrences as local
  /// degree decrements (post-exchange half of a round).
  void apply_flipped() {
    const std::uint64_t n_loc = g.n_loc();
    for (const lvid_t gl : flipped) {
      const std::uint64_t gi = gl - n_loc;
      for (std::uint64_t e = inc_offs[gi]; e < inc_offs[gi + 1]; ++e)
        drop(inc_verts[e]);
    }
  }
};

/// ValueKernel: peel one stage to its fixpoint.  A round drains the worklist
/// and exchanges alive flags; apply turns newly dead ghosts into decrements,
/// which may queue more work, and reports the queued count, so the stage ends
/// after the first round that leaves no rank with work pending.
struct PeelKernel {
  using Value = std::uint8_t;

  Peeler& p;

  dgraph::Adjacency adjacency() const { return dgraph::Adjacency::kBoth; }
  std::span<std::uint8_t> values() { return {p.alive}; }
  std::vector<lvid_t>* changed_ghosts() { return &p.flipped; }
  void compute(engine::StepContext& ctx) { ctx.touched_local = p.drain(); }
  void apply(engine::StepContext& ctx) {
    p.apply_flipped();
    ctx.active_local = p.work.size();
  }
  bool converged(std::uint64_t pending_global, double) {
    return pending_global == 0;
  }
};

/// Peel one stage to the fixpoint of `limit` on the engine; returns the
/// rounds it took.
std::uint64_t peel_stage(Peeler& peel, Communicator& comm,
                         const CommonOptions& opts, std::uint64_t limit) {
  peel.seed(limit);
  PeelKernel kernel{peel};
  engine::SuperstepEngine eng(peel.g, comm, engine_config(opts));
  return eng.run_value(kernel).supersteps;
}

/// A stage's closing allreduce: the survivor count, their smallest degree
/// (kcore_exact's next level) and the root of the stage's component — the
/// survivor of largest remaining degree, smallest gid on ties.
struct Survivors {
  std::uint64_t alive = 0;
  std::uint64_t min_deg = UINT64_MAX;
  std::uint64_t root_deg = 0;
  gvid_t root = kNullGvid;
};

Survivors survivors(const Peeler& peel, Communicator& comm) {
  Survivors s{.alive = peel.alive_local};
  for (lvid_t v = 0; v < peel.g.n_loc(); ++v) {
    if (!peel.alive[v]) continue;
    const std::uint64_t d = peel.deg[v];
    s.min_deg = std::min(s.min_deg, d);
    if (d > s.root_deg || (d == s.root_deg && peel.g.global_id(v) < s.root)) {
      s.root_deg = d;
      s.root = peel.g.global_id(v);
    }
  }
  return comm.allreduce(s, [](Survivors a, Survivors b) {
    const bool a_root =
        a.root_deg != b.root_deg ? a.root_deg > b.root_deg : a.root <= b.root;
    return Survivors{a.alive + b.alive, std::min(a.min_deg, b.min_deg),
                     a_root ? a.root_deg : b.root_deg, a_root ? a.root : b.root};
  });
}

/// Component phase: one masked MS-BFS from every stage's root.  A vertex
/// removed at stage s (removed_at 2^s) is alive in stages 1 .. s-1, the bit
/// prefix 2^(s-1) - 1; survivors of the last stage allow every root.
/// Returns root j's global visited count, folded in one collective.
std::vector<std::uint64_t> stage_components(const Peeler& peel,
                                            Communicator& comm,
                                            std::span<const gvid_t> roots,
                                            const CommonOptions& opts) {
  obs::Span span(obs::span_name::kKcoreComponents);
  const std::uint64_t every = bits::low_mask(roots.size());
  std::vector<std::uint64_t> allowed(peel.g.n_loc());
  for (lvid_t v = 0; v < peel.g.n_loc(); ++v)
    allowed[v] = peel.alive[v] ? every : (peel.removed_at[v] >> 1) - 1;

  const MsBfsOptions mo{.dir = Dir::kBoth, .allowed = allowed, .common = opts};
  using Counts = std::array<std::uint64_t, kMsBfsMaxBatch>;
  Counts reached{};
  msbfs_visit(peel.g, comm, roots, mo,
              [&](std::int64_t, std::span<const std::uint64_t> newly,
                  std::span<const gvid_t>, std::size_t) {
                for (const std::uint64_t m : newly)
                  bits::for_each_set_bit(m, [&](std::size_t j) { ++reached[j]; });
              });
  reached = comm.allreduce(reached, [](Counts a, const Counts& b) {
    for (std::size_t j = 0; j < a.size(); ++j) a[j] += b[j];
    return a;
  });
  return {reached.begin(), reached.begin() + roots.size()};
}

}  // namespace

KCoreResult kcore_approx(const DistGraph& g, Communicator& comm,
                         const KCoreOptions& opts) {
  HG_CHECK_MSG(opts.max_i <= kKCoreMaxStages,
               "KCoreOptions::max_i must be at most "
                   << kKCoreMaxStages << " (2^max_i thresholds and one root "
                   << "per mask bit), got " << opts.max_i);
  KCoreResult res;
  Peeler peel(g);

  // ---- Peel phase: every stage to its 2^i-core fixpoint, recording the
  // root of each stage that has survivors. ----
  std::vector<gvid_t> roots;
  std::uint64_t alive_before = g.n_global();
  for (unsigned i = 1; i <= opts.max_i; ++i) {
    KCoreStage stage;
    stage.i = i;
    stage.threshold = std::uint64_t{1} << i;
    stage.peel_sweeps = static_cast<int>(
        peel_stage(peel, comm, opts.common, stage.threshold));

    const Survivors all = survivors(peel, comm);
    stage.alive_after = all.alive;
    stage.removed = alive_before - all.alive;
    alive_before = all.alive;
    if (opts.track_components && all.alive > 0) roots.push_back(all.root);

    res.stages.push_back(stage);
    if (stage.alive_after == 0) break;
  }

  // ---- Component phase: each stage's surviving component of its root, in
  // one sweep (the paper's per-stage BFS). ----
  if (!roots.empty()) {
    const std::vector<std::uint64_t> cc =
        stage_components(peel, comm, roots, opts.common);
    for (std::size_t j = 0; j < cc.size(); ++j) res.stages[j].largest_cc = cc[j];
  }

  // Removed vertices are bounded by the threshold they fell below,
  // survivors of every stage by 2^max_i.
  res.bound = std::move(peel.removed_at);
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (peel.alive[v]) res.bound[v] = std::uint64_t{1} << opts.max_i;
  return res;
}

KCoreExactResult kcore_exact(const DistGraph& g, Communicator& comm,
                             const CommonOptions& opts) {
  KCoreExactResult res;
  Peeler peel(g);

  std::uint64_t k = 0;
  for (;;) {
    const Survivors all = survivors(peel, comm);
    if (all.alive == 0) break;
    // Levels up to the smallest survivor degree remove nothing: skip them.
    k = std::max(k + 1, all.min_deg + 1);
    ++res.stages;
    peel_stage(peel, comm, opts, k);
  }

  // Every vertex removed at level k survived the (k-1)-core, so its
  // coreness is exactly k-1.
  res.core = std::move(peel.removed_at);
  for (std::uint64_t& c : res.core) --c;
  std::uint64_t max_local = 0;
  for (const std::uint64_t c : res.core) max_local = std::max(max_local, c);
  res.max_core = comm.allreduce_max(max_local);
  return res;
}

}  // namespace hpcgraph::analytics
