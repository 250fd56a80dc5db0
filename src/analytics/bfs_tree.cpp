#include "analytics/bfs_tree.hpp"

#include "engine/frontier.hpp"
#include "engine/superstep.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

/// FrontierKernel: one parent-claiming BFS level.  Remote discoveries carry
/// the (child, parent) pair and route to the child's owner through
/// engine::route_to_owners; the first claimer wins in rank order.
///
/// Order-sensitive: the parent array is first-claimer-wins in frontier
/// iteration order, so the policy pins the queue representation to keep
/// runs bit-identical with the pre-frontier-layer loop.
struct BfsTreeKernel {
  const DistGraph& g;
  const BfsOptions& opts;
  BfsTreeResult& res;
  // Ghost dedup flags: each task claims/sends a ghost at most once.
  std::vector<std::uint8_t> ghost_claimed;
  engine::DistFrontier cur, next;

  BfsTreeKernel(const DistGraph& g_, const BfsOptions& o, BfsTreeResult& r)
      : g(g_), opts(o), res(r), ghost_claimed(g_.n_gst(), 0),
        cur(g_.n_loc()), next(g_.n_loc()) {}

  bool alive(lvid_t u) const {
    return opts.alive.empty() || opts.alive[u] != 0;
  }

  engine::FrontierPolicy frontier_policy() const {
    engine::FrontierPolicy p;
    p.order_sensitive = true;  // parent ties: first claimer wins
    return p;
  }

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();
    const std::int64_t level = static_cast<std::int64_t>(ctx.superstep);

    struct Discovery {
      gvid_t child;
      gvid_t parent;
    };

    next.clear();
    std::vector<Discovery> remote;
    cur.for_each([&](lvid_t v) {
      const gvid_t vg = g.global_id(v);
      const auto explore = [&](lvid_t u) {
        if (g.is_ghost(u)) {
          std::uint8_t& claimed = ghost_claimed[u - g.n_loc()];
          if (!claimed) {
            claimed = 1;
            remote.push_back({g.global_id(u), vg});
          }
        } else if (alive(u) && res.level[u] == kUnvisited) {
          res.level[u] = level + 1;
          res.parent[u] = vg;
          next.push(u);
        }
      };
      if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
        for (const lvid_t u : g.out_neighbors(v)) explore(u);
      if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
        for (const lvid_t u : g.in_neighbors(v)) explore(u);
    });

    const std::vector<Discovery> recv = engine::route_to_owners<Discovery>(
        ctx.comm, remote,
        [&](const Discovery& d) { return g.owner_of_global(d.child); },
        opts.common.qsize);
    for (const Discovery& d : recv) {
      const lvid_t l = g.owned_local_checked(d.child);
      if (alive(l) && res.level[l] == kUnvisited) {
        res.level[l] = level + 1;
        res.parent[l] = d.parent;  // first claimer wins (rank order)
        next.push(l);
      }
    }

    cur.swap(next);
  }
};

}  // namespace

BfsTreeResult bfs_tree(const DistGraph& g, Communicator& comm, gvid_t root,
                       const BfsOptions& opts) {
  HG_CHECK(root < g.n_global());

  BfsTreeResult res;
  res.level.assign(g.n_loc(), kUnvisited);
  res.parent.assign(g.n_loc(), kNullGvid);

  BfsTreeKernel kernel(g, opts, res);
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    if (kernel.alive(l)) {
      res.level[l] = 0;
      res.parent[l] = root;  // Graph500 convention: the root parents itself
      kernel.cur.push(l);
    }
  }

  engine::SuperstepEngine eng(g, comm, engine_config(opts.common));
  const engine::EngineResult er = eng.run_frontier(kernel);
  res.num_levels = static_cast<int>(er.supersteps);

  std::uint64_t visited_local = 0;
  for (const auto l : res.level)
    if (l >= 0) ++visited_local;
  res.visited = comm.allreduce_sum(visited_local);
  return res;
}

}  // namespace hpcgraph::analytics
