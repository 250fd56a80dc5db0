#include "analytics/sssp.hpp"

#include "engine/frontier.hpp"
#include "engine/superstep.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

/// FrontierKernel: one Bellman-Ford relaxation round.  The active set is a
/// DistFrontier plus a dense re-activation flag (vertices can re-activate,
/// unlike BFS, so the kQueued claim trick does not apply); remote
/// relaxations route to the owners through engine::route_to_owners.
///
/// Order-sensitive: the distance fixpoint is order-independent (exact
/// integer minima), but the *round count* depends on the relax order within
/// a round, so the policy pins the queue representation to keep runs
/// bit-identical with the pre-frontier-layer loop.
struct SsspKernel {
  const DistGraph& g;
  const SsspOptions& opts;
  std::vector<std::uint64_t>& dist;   // result array, locals only
  std::vector<std::uint8_t> active;
  engine::DistFrontier cur, next;

  SsspKernel(const DistGraph& g_, const SsspOptions& o,
             std::vector<std::uint64_t>& d)
      : g(g_), opts(o), dist(d), active(g_.n_loc(), 0),
        cur(g_.n_loc()), next(g_.n_loc()) {}

  engine::FrontierPolicy frontier_policy() const {
    engine::FrontierPolicy p;
    p.order_sensitive = true;  // round count depends on relax order
    return p;
  }

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();

    struct Relax {
      gvid_t gid;
      std::uint64_t dist;
    };

    // ---- Relax out-edges of the frontier. ----
    std::vector<Relax> remote;
    next.clear();
    const auto relax_local = [&](lvid_t u, std::uint64_t cand) {
      if (cand < dist[u]) {
        dist[u] = cand;
        if (!active[u]) {
          active[u] = 1;
          next.push(u);
        }
      }
    };
    cur.for_each([&](lvid_t v) {
      active[v] = 0;
      const gvid_t vg = g.global_id(v);
      const std::uint64_t base = dist[v];
      for (const lvid_t u : g.out_neighbors(v)) {
        const gvid_t ug = g.global_id(u);
        const std::uint64_t cand = base + edge_weight(vg, ug, opts.max_weight);
        if (g.is_ghost(u)) {
          remote.push_back({ug, cand});
        } else {
          relax_local(u, cand);
        }
      }
    });
    // Frontier vertices may also appear in `next` (re-improved by a
    // same-round local relaxation) — handled by the active flag.

    // ---- Ship remote relaxations to the owners. ----
    const std::vector<Relax> recv = engine::route_to_owners<Relax>(
        ctx.comm, remote,
        [&](const Relax& r) { return g.owner_of_global(r.gid); },
        opts.common.qsize);
    for (const Relax& r : recv)
      relax_local(g.owned_local_checked(r.gid), r.dist);

    cur.swap(next);
  }
};

}  // namespace

SsspResult sssp(const DistGraph& g, Communicator& comm, gvid_t root,
                const SsspOptions& opts) {
  HG_CHECK(root < g.n_global());

  SsspResult res;
  res.dist.assign(g.n_loc(), kInfDistance);

  SsspKernel kernel(g, opts, res.dist);
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    res.dist[l] = 0;
    kernel.active[l] = 1;
    kernel.cur.push(l);
  }

  engine::SuperstepEngine eng(g, comm, engine_config(opts.common));
  const engine::EngineResult er = eng.run_frontier(kernel);
  res.rounds = static_cast<int>(er.supersteps);

  std::uint64_t reached_local = 0;
  for (const std::uint64_t d : res.dist)
    if (d != kInfDistance) ++reached_local;
  res.reached = comm.allreduce_sum(reached_local);
  return res;
}

}  // namespace hpcgraph::analytics
