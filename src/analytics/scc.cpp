#include "analytics/scc.hpp"

#include "analytics/bfs.hpp"
#include "engine/frontier.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

struct Pivot {
  std::uint64_t score = 0;
  gvid_t gid = kNullGvid;

  static Pivot better(Pivot a, Pivot b) {
    if (a.score != b.score) return a.score > b.score ? a : b;
    return a.gid <= b.gid ? a : b;
  }
};

}  // namespace

namespace detail {

std::uint64_t trim_trivial_sccs(const DistGraph& g, Communicator& comm,
                                std::vector<std::uint8_t>& alive,
                                std::size_t qsize, int* sweeps) {
  std::vector<std::uint64_t> in_deg(g.n_loc()), out_deg(g.n_loc());
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    in_deg[v] = g.in_degree(v);
    out_deg[v] = g.out_degree(v);
  }

  struct Dec {
    gvid_t gid;
    std::uint8_t which;  // 0: decrement in-degree, 1: decrement out-degree
  };

  std::uint64_t trimmed_local = 0;
  for (;;) {
    if (sweeps) ++(*sweeps);
    std::uint64_t removed_sweep = 0;
    std::vector<Dec> remote;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (!alive[v] || (in_deg[v] > 0 && out_deg[v] > 0)) continue;
      alive[v] = 0;
      ++removed_sweep;
      ++trimmed_local;
      for (const lvid_t u : g.out_neighbors(v)) {
        if (g.is_ghost(u))
          remote.push_back({g.global_id(u), 0});
        else if (alive[u] && in_deg[u] > 0)
          --in_deg[u];
      }
      for (const lvid_t u : g.in_neighbors(v)) {
        if (g.is_ghost(u))
          remote.push_back({g.global_id(u), 1});
        else if (alive[u] && out_deg[u] > 0)
          --out_deg[u];
      }
    }

    const std::vector<Dec> recv = engine::route_to_owners<Dec>(
        comm, remote,
        [&](const Dec& d) { return g.owner_of_global(d.gid); }, qsize);
    for (const Dec& d : recv) {
      const lvid_t l = g.owned_local_checked(d.gid);
      if (!alive[l]) continue;
      auto& counter = d.which == 0 ? in_deg[l] : out_deg[l];
      if (counter > 0) --counter;
    }

    if (comm.allreduce_sum(removed_sweep) == 0) break;
  }
  return trimmed_local;
}

}  // namespace detail

SccResult largest_scc(const DistGraph& g, Communicator& comm,
                      const SccOptions& opts) {
  SccResult res;

  // ---- Optional trim of trivial SCCs. ----
  std::vector<std::uint8_t> alive;
  std::uint64_t alive_global = g.n_global();
  if (opts.trim) {
    alive.assign(g.n_loc(), 1);
    const std::uint64_t trimmed_local = detail::trim_trivial_sccs(
        g, comm, alive, opts.common.qsize, &res.trim_sweeps);
    res.trimmed = comm.allreduce_sum(trimmed_local);
    alive_global = g.n_global() - res.trimmed;
  }

  // ---- Pivot selection: max (out_deg+1)*(in_deg+1) among survivors. ----
  if (opts.pivot != kNullGvid) {
    res.pivot = opts.pivot;
  } else {
    Pivot best;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      if (!alive.empty() && !alive[v]) continue;
      const Pivot cand{(g.out_degree(v) + 1) * (g.in_degree(v) + 1),
                       g.global_id(v)};
      best = Pivot::better(best, cand);
    }
    best = comm.allreduce(best, Pivot::better);
    if (best.gid == kNullGvid || alive_global == 0) {
      // Everything trimmed: the graph is a DAG, every SCC is a singleton.
      // Report the global max-degree vertex as a representative size-1 SCC.
      Pivot any;
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        const Pivot cand{(g.out_degree(v) + 1) * (g.in_degree(v) + 1),
                         g.global_id(v)};
        any = Pivot::better(any, cand);
      }
      res.pivot = comm.allreduce(any, Pivot::better).gid;
      res.label = res.pivot;
      res.size = 1;
      res.member.assign(g.n_loc(), 0);
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        if (g.global_id(v) == res.pivot) res.member[v] = 1;
      return res;
    }
    res.pivot = best.gid;
  }

  // ---- Forward and backward sweeps. ----
  BfsOptions fw_opts;
  fw_opts.dir = Dir::kOut;
  fw_opts.alive = alive;
  fw_opts.common = opts.common;
  const BfsResult fw = bfs(g, comm, res.pivot, fw_opts);

  BfsOptions bw_opts;
  bw_opts.dir = Dir::kIn;
  bw_opts.alive = alive;
  bw_opts.common = opts.common;
  const BfsResult bw = bfs(g, comm, res.pivot, bw_opts);

  res.fw_reached = fw.visited;
  res.bw_reached = bw.visited;
  res.fw_levels = fw.num_levels;
  res.bw_levels = bw.num_levels;

  // ---- Intersection = the pivot's SCC. ----
  res.member.assign(g.n_loc(), 0);
  std::uint64_t size_local = 0;
  gvid_t label_local = kNullGvid;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    if (fw.level[v] >= 0 && bw.level[v] >= 0) {
      res.member[v] = 1;
      ++size_local;
      label_local = std::min(label_local, g.global_id(v));
    }
  }
  res.size = comm.allreduce_sum(size_local);
  res.label = comm.allreduce_min(label_local);
  return res;
}

}  // namespace hpcgraph::analytics
