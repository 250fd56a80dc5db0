#pragma once
/// \file common.hpp
/// Shared pieces of the analytics layer: traversal direction, result
/// gathering helpers, and the per-analytic option baseline.

#include <cstdint>
#include <span>
#include <vector>

#include "dgraph/dist_graph.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "engine/frontier.hpp"
#include "engine/superstep.hpp"
#include "parcomm/comm.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph::analytics {

/// Which adjacency lists a traversal follows.
enum class Dir {
  kOut,   ///< out-edges (directed forward)
  kIn,    ///< in-edges (directed backward)
  kBoth,  ///< undirected view
};

/// Options common to every analytic.
struct CommonOptions {
  /// Intra-rank worker pool (null = pool of HPCGRAPH_POOL_THREADS, default
  /// 1 thread).  Honoured by the loops with data-parallel structure: BFS,
  /// MS-BFS, PageRank, Label Propagation and the ghost exchange's pack and
  /// scatter.  WCC coloring keeps its in-place serial sweep, which is what
  /// makes HashMin converge fast, and k-core peels from a serial worklist:
  /// rank-level parallelism is the paper's primary axis.
  ThreadPool* pool = nullptr;
  std::size_t qsize = kDefaultQSize;  ///< Algorithm-3 thread-queue capacity
};

/// Engine knobs shared by the ported analytics: the pool from the common
/// options, and an optional iteration cutoff.
inline engine::EngineConfig engine_config(
    const CommonOptions& o, std::uint64_t max_supersteps = UINT64_MAX) {
  engine::EngineConfig cfg;
  cfg.pool = o.pool;
  cfg.max_supersteps = max_supersteps;
  return cfg;
}

/// The pool-or-inline fallback every analytic needs: resolves the options'
/// pool pointer to a usable ThreadPool reference.
class ScopedPool : public PoolFallback {
 public:
  explicit ScopedPool(const CommonOptions& o) : PoolFallback(o.pool) {}
};

/// Collective: gather a per-local-vertex array into a full n_global-length
/// array, replicated on every rank (test/report helper — not for use at
/// paper scale, where no single task can hold an n_global array).
template <typename T>
std::vector<T> gather_global(const dgraph::DistGraph& g,
                             parcomm::Communicator& comm,
                             std::span<const T> local_vals) {
  HG_CHECK(local_vals.size() == g.n_loc());
  struct Pair {
    gvid_t gid;
    T val;
  };
  std::vector<Pair> mine(g.n_loc());
  for (lvid_t v = 0; v < g.n_loc(); ++v)
    mine[v] = {g.global_id(v), local_vals[v]};
  const std::vector<Pair> all = comm.allgatherv<Pair>(mine);
  std::vector<T> out(g.n_global());
  for (const Pair& p : all) out[p.gid] = p.val;
  return out;
}

}  // namespace hpcgraph::analytics
