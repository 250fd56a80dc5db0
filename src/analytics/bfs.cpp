#include "analytics/bfs.hpp"

#include <atomic>

#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/superstep.hpp"
#include "obs/tracer.hpp"

namespace hpcgraph::analytics {

using dgraph::DistGraph;
using parcomm::Communicator;

namespace {

/// Status-array policy: plain stores for the single-thread fast path,
/// compare-exchange when several threads expand the frontier concurrently.
/// Claiming a vertex once per task is the paper's dedup device ("this first
/// update is done to signify that the vertex has either been added to the
/// local queue ... or the send queue ... so the exploration of subsequent
/// edges incident on the vertex don't end up re-queuing that vertex").
class PlainStatus {
 public:
  explicit PlainStatus(std::size_t n) : s_(n, kUnvisited) {}

  std::int64_t load(std::size_t i) const { return s_[i]; }
  void store(std::size_t i, std::int64_t v) { s_[i] = v; }

  bool claim(std::size_t i) {
    if (s_[i] != kUnvisited) return false;
    s_[i] = kQueued;
    return true;
  }

  bool pop_claim(std::size_t i, std::int64_t level) {
    if (s_[i] != kQueued) return false;
    s_[i] = level;
    return true;
  }

 private:
  std::vector<std::int64_t> s_;
};

class AtomicStatus {
 public:
  explicit AtomicStatus(std::size_t n) : s_(n) {
    for (auto& x : s_) x.store(kUnvisited, std::memory_order_relaxed);
  }

  std::int64_t load(std::size_t i) const {
    return s_[i].load(std::memory_order_relaxed);
  }
  void store(std::size_t i, std::int64_t v) {
    s_[i].store(v, std::memory_order_relaxed);
  }

  bool claim(std::size_t i) {
    std::int64_t expect = kUnvisited;
    return s_[i].compare_exchange_strong(expect, kQueued,
                                         std::memory_order_relaxed);
  }

  bool pop_claim(std::size_t i, std::int64_t level) {
    std::int64_t expect = kQueued;
    return s_[i].compare_exchange_strong(expect, level,
                                         std::memory_order_relaxed);
  }

 private:
  // Per-vertex CAS claims cannot hide behind a fold-style util helper; the
  // container itself must be atomic.  Reviewed: rank-private, pool-only.
  std::vector<std::atomic<std::int64_t>> s_;  // lint:allow(raw-sync: intra-rank frontier claims)
};

/// Traversal-direction degree of v (the frontier-degree sum behind the
/// engine's representation and direction decisions).
std::uint64_t dir_degree(const DistGraph& g, Dir dir, lvid_t v) {
  switch (dir) {
    case Dir::kOut: return g.out_degree(v);
    case Dir::kIn: return g.in_degree(v);
    case Dir::kBoth: return g.out_degree(v) + g.in_degree(v);
  }
  return 0;
}

/// FrontierKernel: one level of the paper's Algorithm-2 traversal.  Threads
/// expand disjoint frontier spans, claiming neighbours through the status
/// array; ghost claims route to the owners through the frontier layer's
/// sharded Algorithm-3 producer.  Level stamps and frontier membership are
/// claim-order independent, so any pool width — and either frontier
/// representation — produces identical level[] outputs.
template <typename Status>
struct BfsLevelKernel {
  const DistGraph& g;
  const BfsOptions& opts;
  Status status;
  engine::DistFrontier cur, next;
  // Per-thread scratch, reused across levels.
  std::vector<std::vector<lvid_t>> nexts, sends;

  BfsLevelKernel(const DistGraph& g_, const BfsOptions& o, ThreadPool& tp)
      : g(g_), opts(o), status(g_.n_total()), cur(g_.n_loc()),
        next(g_.n_loc()), nexts(tp.num_threads()), sends(tp.num_threads()) {}

  bool alive(lvid_t u) const {
    return opts.alive.empty() || opts.alive[u] != 0;
  }

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  std::uint64_t degree_local() const {
    return cur.weight_sum([&](lvid_t v) { return dir_degree(g, opts.dir, v); });
  }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();
    const std::int64_t level = static_cast<std::int64_t>(ctx.superstep);
    const std::span<const lvid_t> q = cur.as_list();

    // ---- Expansion: pop the frontier, stamp levels, claim neighbours;
    // one equal-count frontier span per thread. ----
    {
      obs::Span sp(obs::span_name::kFrontierExpand);
      ctx.pool.for_range(0, q.size(), [&](unsigned tid, std::uint64_t lo,
                                          std::uint64_t hi) {
        std::vector<lvid_t>& my_next = nexts[tid];
        std::vector<lvid_t>& my_send = sends[tid];
        for (std::uint64_t i = lo; i < hi; ++i) {
          const lvid_t v = q[i];
          // Claim the pop (duplicates can reach the queue via receives).
          if (!status.pop_claim(v, level)) continue;

          const auto explore = [&](lvid_t u) {
            if (g.is_ghost(u)) {
              if (status.claim(u)) my_send.push_back(u);
            } else if (alive(u) && status.claim(u)) {
              my_next.push_back(u);
            }
          };
          if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.out_neighbors(v)) explore(u);
          if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.in_neighbors(v)) explore(u);
        }
      });
    }

    // ---- Ship claimed ghosts to their owners (Algorithm 2 lines 26-31):
    // concurrent per-thread Sinks; receivers are claim-based, so segment
    // permutation is immaterial. ----
    const std::vector<gvid_t> recv =
        engine::route_to_owners_sharded<gvid_t, lvid_t>(
            ctx.comm, ctx.pool, sends,
            [&](lvid_t u) { return g.owner_of(u); },
            [&](lvid_t u) { return g.global_id(u); }, opts.common.qsize);
    for (std::vector<lvid_t>& s : sends) s.clear();

    // ---- Assemble next frontier: local claims + received vertices. ----
    next.clear();
    for (std::vector<lvid_t>& t : nexts) {
      for (const lvid_t v : t) {
        next.push(v);
        ctx.degree_local += dir_degree(g, opts.dir, v);
      }
      t.clear();
    }
    for (const gvid_t gid : recv) {
      const lvid_t l = g.owned_local_checked(gid);
      if (alive(l) && status.claim(l)) {
        next.push(l);
        ctx.degree_local += dir_degree(g, opts.dir, l);
      }
    }
    cur.swap(next);
  }
};

/// FrontierKernel: direction-optimizing traversal (hybrid top-down /
/// bottom-up).  The engine's frontier_decide replays the Beamer heuristics
/// on the fused-allreduce degree sum; a pull round publishes the dense
/// frontier over the ghost-exchange wire and scans for flagged parents.
/// Statuses are stamped with the level at frontier *insertion* time (both
/// directions), so the two interleave freely and produce levels
/// identical to the reference traversal.
struct BfsDiroptKernel {
  const DistGraph& g;
  const BfsOptions& opts;
  dgraph::GhostExchange gx;
  PlainStatus status;
  std::vector<std::uint8_t> flags;
  engine::DistFrontier cur, next;

  BfsDiroptKernel(const DistGraph& g_, const BfsOptions& o,
                  Communicator& comm)
      // Frontier-flag propagation for bottom-up levels reuses the retained-
      // queue machinery; the adjacency mode mirrors the traversal direction
      // (a vertex's flag must reach every rank scanning it as a parent).
      : g(g_), opts(o),
        gx(g_, comm,
           o.dir == Dir::kOut  ? dgraph::Adjacency::kOut
           : o.dir == Dir::kIn ? dgraph::Adjacency::kIn
                               : dgraph::Adjacency::kBoth,
           o.common.pool),
        status(g_.n_total()), flags(g_.n_total(), 0), cur(g_.n_loc()),
        next(g_.n_loc()) {}

  bool alive(lvid_t u) const {
    return opts.alive.empty() || opts.alive[u] != 0;
  }

  engine::FrontierPolicy frontier_policy() const {
    engine::FrontierPolicy p;
    p.allow_pull = true;
    p.alpha = opts.alpha;
    p.beta = opts.beta;
    return p;
  }

  engine::DistFrontier* frontier() { return &cur; }

  std::uint64_t active_local() const { return cur.size(); }

  std::uint64_t degree_local() const {
    return cur.weight_sum([&](lvid_t v) { return dir_degree(g, opts.dir, v); });
  }

  void step(engine::FrontierStepContext& ctx) {
    ctx.touched_local = cur.size();
    const std::int64_t level = static_cast<std::int64_t>(ctx.superstep);
    const std::span<const lvid_t> q = cur.as_list();
    ThreadPool& tp = ctx.pool;

    next.clear();
    const auto accept = [&](lvid_t v) {
      next.push(v);
      ctx.degree_local += dir_degree(g, opts.dir, v);
    };
    if (ctx.dir == engine::FrontierDir::kPull) {
      // ---- Bottom-up: publish frontier flags, unvisited vertices look
      // for a flagged parent. ----
      tp.for_ranges(0, flags.size(),
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      std::fill(flags.begin() + static_cast<std::ptrdiff_t>(lo),
                                flags.begin() + static_cast<std::ptrdiff_t>(hi),
                                std::uint8_t{0});
                    });
      tp.for_ranges(0, q.size(),  // frontier is distinct: no races
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i) flags[q[i]] = 1;
                    });
      gx.exchange<std::uint8_t>(flags, ctx.comm);

      // Serial parent scan in ascending vertex order: the next frontier is
      // the ascending list of newly reached vertices.
      const auto scan_one = [&](lvid_t v) {
        if (status.load(v) != kUnvisited || !alive(v)) return false;
        // Parents sit in the *reverse* adjacency of the traversal.
        if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth) {
          for (const lvid_t u : g.in_neighbors(v))
            if (flags[u]) return true;
        }
        if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth) {
          for (const lvid_t u : g.out_neighbors(v))
            if (flags[u]) return true;
        }
        return false;
      };
      obs::Span sp(obs::span_name::kFrontierScan);
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        if (scan_one(v)) {
          status.store(v, level + 1);
          accept(v);
        }
      }
    } else {
      // ---- Top-down: as Algorithm 2, stamping at insertion. ----
      std::vector<lvid_t> send;
      {
        obs::Span sp(obs::span_name::kFrontierExpand);
        for (const lvid_t v : q) {
          const auto explore = [&](lvid_t u) {
            if (g.is_ghost(u)) {
              if (status.claim(u))  // each ghost sent at most once per task
                send.push_back(u);
            } else if (alive(u) && status.load(u) == kUnvisited) {
              status.store(u, level + 1);
              accept(u);
            }
          };
          if (opts.dir == Dir::kOut || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.out_neighbors(v)) explore(u);
          if (opts.dir == Dir::kIn || opts.dir == Dir::kBoth)
            for (const lvid_t u : g.in_neighbors(v)) explore(u);
        }
      }

      const std::vector<gvid_t> recv = engine::route_to_owners<lvid_t>(
          ctx.comm, std::span<const lvid_t>(send),
          [&](lvid_t u) { return g.owner_of(u); },
          [&](lvid_t u) { return g.global_id(u); }, opts.common.qsize);
      for (const gvid_t gid : recv) {
        const lvid_t l = g.owned_local_checked(gid);
        if (alive(l) && status.load(l) == kUnvisited) {
          status.store(l, level + 1);
          accept(l);
        }
      }
    }
    cur.swap(next);
  }
};

template <typename Kernel>
BfsResult run_bfs_kernel(const DistGraph& g, Communicator& comm,
                         Kernel& kernel, const BfsOptions& opts) {
  engine::SuperstepEngine eng(g, comm, engine_config(opts.common));
  const engine::EngineResult er = eng.run_frontier(kernel);

  BfsResult res;
  res.num_levels = static_cast<int>(er.supersteps);
  res.level.resize(g.n_loc());
  std::uint64_t visited_local = 0;
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    res.level[v] = kernel.status.load(v);
    if (res.level[v] >= 0) ++visited_local;
  }
  res.visited = comm.allreduce_sum<std::uint64_t>(visited_local);
  return res;
}

template <typename Status>
BfsResult bfs_impl(const DistGraph& g, Communicator& comm, gvid_t root,
                   const BfsOptions& opts, ThreadPool& tp) {
  BfsLevelKernel<Status> kernel(g, opts, tp);
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    if (kernel.alive(l)) {
      kernel.status.store(l, kQueued);
      kernel.cur.push(l);
    }
  }
  return run_bfs_kernel(g, comm, kernel, opts);
}

BfsResult bfs_diropt_impl(const DistGraph& g, Communicator& comm, gvid_t root,
                          const BfsOptions& opts) {
  BfsDiroptKernel kernel(g, opts, comm);
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    if (kernel.alive(l)) {
      kernel.status.store(l, 0);
      kernel.cur.push(l);
    }
  }
  return run_bfs_kernel(g, comm, kernel, opts);
}

}  // namespace

BfsResult bfs(const DistGraph& g, Communicator& comm, gvid_t root,
              const BfsOptions& opts) {
  HG_CHECK(root < g.n_global());
  HG_CHECK(opts.alive.empty() || opts.alive.size() >= g.n_loc());

  ScopedPool pf(opts.common);
  ThreadPool& tp = pf.get();
  if (opts.direction_optimizing) {
    // The hybrid traversal expands top-down frontiers and scans bottom-up
    // parents sequentially within a rank; its pooled loops (the flag fills)
    // each touch disjoint slots, so the plain status policy suffices.
    return bfs_diropt_impl(g, comm, root, opts);
  }
  if (tp.num_threads() == 1)
    return bfs_impl<PlainStatus>(g, comm, root, opts, tp);
  return bfs_impl<AtomicStatus>(g, comm, root, opts, tp);
}

}  // namespace hpcgraph::analytics
