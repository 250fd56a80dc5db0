#include "analytics/scc_decompose.hpp"

#include <unordered_map>

#include "analytics/bfs.hpp"
#include "analytics/scc.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/superstep.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using dgraph::GhostExchange;
using parcomm::Communicator;

namespace {

/// Canonicalize per-vertex labels so each class is named by its minimum
/// member gid, and compute class statistics.  Labels are vertex gids, so
/// the vertex partition shards the label space; each rank reduces the
/// classes it owns and answers every requester in place (the reply reuses
/// the request layout, so no requester bookkeeping is needed).
void canonicalize_and_count(const DistGraph& g, Communicator& comm,
                            std::vector<gvid_t>& comp,
                            SccDecomposeResult& res, std::size_t qsize) {
  struct Partial {
    gvid_t label;
    gvid_t min_member;
    std::uint64_t count;
  };

  // Local partials per label.
  std::unordered_map<gvid_t, Partial> partials;
  partials.reserve(g.n_loc() / 4 + 8);
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    auto [it, fresh] = partials.try_emplace(
        comp[v], Partial{comp[v], g.global_id(v), 0});
    it->second.min_member = std::min(it->second.min_member, g.global_id(v));
    ++it->second.count;
  }

  // Route to owner(label).
  std::vector<Partial> mine;
  mine.reserve(partials.size());
  for (const auto& [label, pr] : partials) mine.push_back(pr);
  std::vector<std::uint64_t> rcounts;
  const std::vector<Partial> recv = engine::route_to_owners<Partial>(
      comm, mine,
      [&](const Partial& pr) { return g.owner_of_global(pr.label); }, qsize,
      &rcounts);

  // Owner-side reduction.
  std::unordered_map<gvid_t, Partial> owned;
  owned.reserve(recv.size());
  for (const Partial& r : recv) {
    auto [it, fresh] = owned.try_emplace(r.label, r);
    if (!fresh) {
      it->second.min_member = std::min(it->second.min_member, r.min_member);
      it->second.count += r.count;
    }
  }

  // Global statistics.
  res.num_sccs = comm.allreduce_sum<std::uint64_t>(owned.size());
  struct Best {
    std::uint64_t size = 0;
    gvid_t label = kNullGvid;
  };
  Best best;
  for (const auto& [label, pr] : owned)
    if (pr.count > best.size ||
        (pr.count == best.size && pr.min_member < best.label))
      best = {pr.count, pr.min_member};
  best = comm.allreduce(best, [](Best a, Best b) {
    if (a.size != b.size) return a.size > b.size ? a : b;
    return a.label <= b.label ? a : b;
  });
  res.largest_size = best.size;
  res.largest_label = best.label;

  // Reply with the reduced min per request record, reusing the layout.
  std::vector<Partial> reply(recv.size());
  for (std::size_t i = 0; i < recv.size(); ++i)
    reply[i] = owned.at(recv[i].label);
  const std::vector<Partial> answers =
      comm.alltoallv<Partial>(reply, rcounts);

  std::unordered_map<gvid_t, gvid_t> canon;
  canon.reserve(answers.size());
  for (const Partial& a : answers) canon[a.label] = a.min_member;
  for (lvid_t v = 0; v < g.n_loc(); ++v) comp[v] = canon.at(comp[v]);
}

/// FrontierKernel: one backward-collection sweep of Orzan coloring.  From
/// each color root, in-edges are followed within the color class; every
/// vertex reached joins the root's SCC.  Remote visits carry (gid, color)
/// and route through engine::route_to_owners.  Assignments are
/// order-independent (each alive vertex has exactly one color per round),
/// so the engine may freely switch representation.
struct CollectKernel {
  const DistGraph& g;
  std::span<const gvid_t> color;
  std::vector<std::uint8_t>& alive;
  std::vector<gvid_t>& comp;
  std::uint64_t& assigned_local;
  std::size_t qsize;
  engine::DistFrontier cur, next;

  CollectKernel(const DistGraph& g_, std::span<const gvid_t> c,
                std::vector<std::uint8_t>& a, std::vector<gvid_t>& cp,
                std::uint64_t& asg, std::size_t qs)
      : g(g_), color(c), alive(a), comp(cp), assigned_local(asg), qsize(qs),
        cur(g_.n_loc()), next(g_.n_loc()) {}

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();

    struct Visit {
      gvid_t gid;
      gvid_t color;
    };
    std::vector<Visit> remote;
    next.clear();
    const auto collect = [&](lvid_t u, gvid_t c) {
      comp[u] = c - 1;
      alive[u] = 0;
      ++assigned_local;
      next.push(u);
      ctx.degree_local += g.in_degree(u);
    };
    cur.for_each([&](lvid_t v) {
      const gvid_t my_color = color[v];
      for (const lvid_t u : g.in_neighbors(v)) {
        if (g.is_ghost(u)) {
          if (color[u] == my_color)  // cheap filter; owner re-checks
            remote.push_back({g.global_id(u), my_color});
        } else if (alive[u] && color[u] == my_color) {
          collect(u, my_color);
        }
      }
    });
    const std::vector<Visit> recv = engine::route_to_owners<Visit>(
        ctx.comm, remote,
        [&](const Visit& m) { return g.owner_of_global(m.gid); }, qsize);
    for (const Visit& m : recv) {
      const lvid_t l = g.owned_local_checked(m.gid);
      if (alive[l] && color[l] == m.color) collect(l, m.color);
    }
    cur.swap(next);
  }
};

}  // namespace

SccDecomposeResult scc_decompose(const DistGraph& g, Communicator& comm,
                                 const SccDecomposeOptions& opts) {
  SccDecomposeResult res;
  res.comp.assign(g.n_loc(), kNullGvid);
  std::vector<std::uint8_t> alive(g.n_loc(), 1);

  // ---- Phase 1: trim singleton SCCs. ----
  const std::uint64_t trimmed_local =
      detail::trim_trivial_sccs(g, comm, alive, opts.common.qsize, nullptr);
  res.trimmed = comm.allreduce_sum(trimmed_local);
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    if (!alive[v]) res.comp[v] = g.global_id(v);

  // ---- Phase 2: FW-BW peels the giant SCC of the remainder. ----
  std::uint64_t alive_global =
      comm.allreduce_sum<std::uint64_t>(g.n_loc() - trimmed_local);
  if (alive_global > 0) {
    struct Pivot {
      std::uint64_t score = 0;
      gvid_t gid = kNullGvid;
    };
    Pivot best;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (!alive[v]) continue;
      const Pivot cand{(g.out_degree(v) + 1) * (g.in_degree(v) + 1),
                       g.global_id(v)};
      if (cand.score > best.score ||
          (cand.score == best.score && cand.gid < best.gid))
        best = cand;
    }
    best = comm.allreduce(best, [](Pivot a, Pivot b) {
      if (a.score != b.score) return a.score > b.score ? a : b;
      return a.gid <= b.gid ? a : b;
    });

    BfsOptions fw_opts;
    fw_opts.dir = Dir::kOut;
    fw_opts.alive = alive;
    fw_opts.common = opts.common;
    const BfsResult fw = bfs(g, comm, best.gid, fw_opts);
    BfsOptions bw_opts = fw_opts;
    bw_opts.dir = Dir::kIn;
    const BfsResult bw = bfs(g, comm, best.gid, bw_opts);

    gvid_t label_local = kNullGvid;
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (fw.level[v] >= 0 && bw.level[v] >= 0)
        label_local = std::min(label_local, g.global_id(v));
    const gvid_t giant_label = comm.allreduce_min(label_local);
    std::uint64_t removed = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (fw.level[v] >= 0 && bw.level[v] >= 0) {
        res.comp[v] = giant_label;
        alive[v] = 0;
        ++removed;
      }
    alive_global -= comm.allreduce_sum(removed);
  }

  // ---- Phase 3: Orzan coloring rounds on the leftovers. ----
  // Colors are shifted gids (gid+1); dead vertices hold 0, so forward max
  // propagation ignores them without needing ghost aliveness flags.
  GhostExchange gx(g, comm, Adjacency::kBoth, opts.common.pool);
  std::vector<gvid_t> color(g.n_total(), 0);

  while (alive_global > 0) {
    ++res.coloring_rounds;

    // (a) Forward max coloring to a fixpoint.
    for (lvid_t l = 0; l < g.n_total(); ++l) color[l] = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (alive[v]) color[v] = g.global_id(v) + 1;
    gx.exchange<gvid_t>(color, comm);
    bool changed = true;
    while (changed) {
      bool changed_local = false;
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        if (!alive[v]) continue;
        gvid_t m = color[v];
        for (const lvid_t u : g.in_neighbors(v)) m = std::max(m, color[u]);
        if (m > color[v]) {
          color[v] = m;
          changed_local = true;
        }
      }
      gx.exchange<gvid_t>(color, comm);
      changed = comm.allreduce_lor(changed_local);
    }

    // (b) Backward collection: from each color root, sweep in-edges within
    // the color class; every vertex reached is in the root's SCC.  One
    // engine run per coloring round — the frontier layer owns the
    // queue -> Alltoallv -> scatter cycle.
    std::uint64_t assigned_local = 0;
    CollectKernel kernel(g, color, alive, res.comp, assigned_local,
                         opts.common.qsize);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (alive[v] && color[v] == g.global_id(v) + 1) {
        res.comp[v] = g.global_id(v);  // root labels its class (max member)
        alive[v] = 0;
        ++assigned_local;
        kernel.cur.push(v);
      }
    }
    engine::SuperstepEngine eng(g, comm, engine_config(opts.common));
    eng.run_frontier(kernel);

    alive_global -= comm.allreduce_sum(assigned_local);
  }

  // ---- Canonicalize labels (min member per SCC) + statistics. ----
  canonicalize_and_count(g, comm, res.comp, res, opts.common.qsize);
  return res;
}

}  // namespace hpcgraph::analytics
