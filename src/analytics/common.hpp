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
#include "engine/trace.hpp"
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
  /// PageRank, Label Propagation, and the ghost-exchange setup.  Of the
  /// sweep-to-fixpoint analytics, WCC coloring and k-core peeling switch to
  /// deterministic chunk-parallel sweep variants under a non-static
  /// `schedule`; their default in-place serial sweeps are what make them
  /// converge fast, and rank-level parallelism is the paper's primary axis.
  ThreadPool* pool = nullptr;
  std::size_t qsize = kDefaultQSize;  ///< Algorithm-3 thread-queue capacity
  /// Ghost-exchange wire format for the convergent analytics (Label
  /// Propagation, WCC coloring, k-core peeling).  kAdaptive switches to the
  /// sparse (slot, value) format once few boundary vertices still change
  /// per round; PageRank ignores this (every rank value changes every
  /// iteration, so dense is always cheapest).
  dgraph::GhostMode ghost_mode = dgraph::GhostMode::kAdaptive;
  /// Per-superstep telemetry sink, or null for no tracing.  Shared by all
  /// ranks; the engine pushes records from rank 0 only.  Engine-ported
  /// analytics emit one SuperstepRecord per round; BFS emits one per level
  /// through the same sink.
  engine::SuperstepTrace* trace = nullptr;
  /// Intra-rank loop schedule for schedule-aware sweeps (see Schedule and
  /// DESIGN.md §10): kStatic keeps the legacy equal-count split, kDynamic
  /// work-steals over a uniform chunk grid, kEdgeBalanced places chunk
  /// boundaries along the CSR degree prefix.  Analytics outputs are
  /// bit-identical across all three; must be set the same on every rank.
  Schedule schedule = Schedule::kStatic;
  /// Frontier representation for the BFS-like analytics (see
  /// engine/frontier.hpp and DESIGN.md §11): kQueue/kBitmap force the
  /// sparse or dense representation, kHybrid (default) crosses over on the
  /// global frontier-degree sum.  Order-sensitive analytics (BFS parent
  /// trees, SSSP) pin the hybrid default to the queue so default runs
  /// reproduce the pre-frontier-layer outputs bit-for-bit; forcing kBitmap
  /// re-breaks their order-derived ties (documented per analytic).  Must be
  /// set the same on every rank.
  engine::FrontierMode frontier = engine::FrontierMode::kHybrid;
};

/// Engine knobs shared by the ported analytics: pool + trace from the
/// common options, a per-analytic label, and an optional iteration cutoff.
inline engine::EngineConfig engine_config(
    const CommonOptions& o, const char* name,
    std::uint64_t max_supersteps = UINT64_MAX) {
  engine::EngineConfig cfg;
  cfg.pool = o.pool;
  cfg.max_supersteps = max_supersteps;
  cfg.trace = o.trace;
  cfg.name = name;
  cfg.schedule = o.schedule;
  cfg.frontier = o.frontier;
  return cfg;
}

/// Elementwise sum of the out- and in-CSR prefix arrays: a weight prefix
/// over combined degree for edge-balanced grids on kBoth sweeps (the sum of
/// two prefix arrays is the prefix array of the summed degrees).
inline std::vector<std::uint64_t> both_degree_prefix(
    const dgraph::DistGraph& g) {
  const auto out = g.out_index();
  const auto in = g.in_index();
  std::vector<std::uint64_t> p(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) p[i] = out[i] + in[i];
  return p;
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
