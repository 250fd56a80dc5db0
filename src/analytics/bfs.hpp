#pragma once
/// \file bfs.hpp
/// Distributed level-synchronous BFS — Algorithm 2 of the paper, the engine
/// behind the "BFS-like" analytics class (SCC, WCC step 1, Harmonic
/// Centrality, approximate k-core connectivity).
///
/// Per level: pop the task-local queue, stamp levels, explore adjacencies in
/// the requested direction; unvisited local targets go to the next local
/// queue, unvisited ghosts are marked (so they are sent at most once per
/// task) and routed to their owner through Algorithm-3 thread-local queues +
/// one Alltoallv; an Allreduce of the global frontier size decides
/// termination.  "We omit BFS-specific optimizations [direction-optimizing
/// etc.] ... and focus on those generalizable to all of the algorithms."

#include <cstdint>
#include <vector>

#include "analytics/common.hpp"

namespace hpcgraph::analytics {

/// Status array encoding, as in Algorithm 2: kUnvisited, then kQueued when
/// first touched, then the BFS level once popped.
inline constexpr std::int64_t kUnvisited = -2;
inline constexpr std::int64_t kQueued = -1;

struct BfsOptions {
  Dir dir = Dir::kOut;
  /// Optional aliveness mask over local vertices (k-core's pruned-graph
  /// connectivity checks); null = all alive.
  std::span<const std::uint8_t> alive = {};

  /// Direction-optimizing traversal (Beamer-style top-down/bottom-up
  /// switching) — a BFS-specific optimization the paper deliberately omits
  /// ("we omit BFS-specific optimizations in our current work"), provided
  /// here as the extension it points at.  Levels are identical to the
  /// default traversal; only the work/communication schedule changes.
  /// Bottom-up levels exchange one frontier flag per boundary vertex
  /// through the graph's retained plan instead of per-discovery vertex
  /// messages.  Kept because it wins once that plan is shared across calls:
  /// 8 roots at 4 ranks take 0.44–0.77× the push-only time on R-MAT and
  /// webgraph (EXPERIMENTS.md, "one ghost plan per graph").  Inside the
  /// library only WCC's giant-component sweep sets it, over the `kBoth`
  /// plan its coloring step ships over too; SCC's sweeps stay push-only.
  /// bench/e2e's `bfs_diropt` stage and the ablation bench set it from
  /// outside.
  bool direction_optimizing = false;
  double alpha = 15.0;  ///< go bottom-up when frontier edges > m/alpha
  double beta = 20.0;   ///< return top-down when frontier < n/beta

  CommonOptions common;
};

struct BfsResult {
  /// Per local vertex: BFS level, or kUnvisited/kQueued if never reached.
  std::vector<std::int64_t> level;
  std::uint64_t visited = 0;  ///< global number of vertices reached
  int num_levels = 0;         ///< number of frontier expansions executed
};

/// Collective.  BFS from the (globally agreed) root vertex.
BfsResult bfs(const dgraph::DistGraph& g, parcomm::Communicator& comm,
              gvid_t root, const BfsOptions& opts = {});

}  // namespace hpcgraph::analytics
