#pragma once
/// \file msbfs.hpp
/// Bit-parallel multi-source BFS (MS-BFS) — the batching engine for the
/// BFS-like analytics class (harmonic centrality, WCC/SCC sweeps,
/// reachability probes).
///
/// The paper's BFS-like analytics pay one full distributed traversal per
/// root: `harmonic_top_k` with k = 64 runs 64 CSR sweeps and 64 sets of
/// per-level collectives.  MS-BFS packs up to 64 roots into one machine
/// word per vertex — `seen[v]` / `frontier[v]` are 64-bit visit masks, bit j
/// belonging to root j of the batch — so a single sweep serves the whole
/// batch:
///
///     next[u] |= frontier[v]        (push, per edge v->u)
///     newly    = next & ~seen       (per vertex, whole batch at once)
///
/// With `MsBfsOptions::allowed` set, each vertex also carries a mask of the
/// roots allowed to visit it, and `newly = next & ~seen & allowed`: one
/// batch then runs 64 traversals over 64 different vertex subsets (k-core's
/// nested cores).
///
/// This is the multi-source lever of Buluç & Madduri's distributed BFS work
/// and GBBS's batched traversals: memory traffic over the CSR and the
/// per-level latency of the collectives are both amortized 64-ways.
///
/// ## Distributed schedule
///
/// Each level picks one of two schedules, globally (the decision is a pure
/// function of an allreduced frontier count, so ranks stay in lockstep):
///
///   * **sparse (push)** — scan only the active-vertex list; scatter
///     frontier masks into neighbour slots (atomic OR under threads).  Bits
///     destined to remote vertices accumulate on the local ghost replicas
///     and are merged into the owners' masks by one OR-`reduce` through the
///     retained-queue GhostExchange (the reverse, combining flow).
///   * **dense (pull)** — one forward ghost exchange publishes the frontier
///     masks, then every not-yet-saturated local vertex gathers
///     `OR frontier[parent]` over its reverse adjacency.  No atomics, no
///     per-edge scatter; wins once the frontier covers a sizable fraction
///     of the graph (Beamer's direction-optimizing insight, generalized to
///     64 simultaneous traversals).
///
/// The crossover is `MsBfsOptions::dense_threshold` (fraction of n_global
/// active).  Levels produced are identical to per-source `bfs()` for every
/// root in every schedule mix.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analytics/bfs.hpp"
#include "analytics/common.hpp"

namespace hpcgraph::analytics {

/// Width of one visit mask = maximum roots per batch.
inline constexpr std::size_t kMsBfsMaxBatch = 64;

struct MsBfsOptions {
  Dir dir = Dir::kOut;
  /// Roots traversed per batch, in [1, kMsBfsMaxBatch].  More roots than
  /// this are processed in consecutive batches.
  std::size_t batch_size = kMsBfsMaxBatch;
  /// Dense/sparse frontier crossover: a level runs the dense (pull)
  /// schedule when the global count of frontier-active vertices exceeds
  /// dense_threshold * n_global; 1.0 forces pure push, 0.0 pure pull.
  double dense_threshold = 0.04;
  /// Per-root visit restriction, one mask per local vertex (length n_loc):
  /// bit j set means root j of the batch may visit the vertex.  A vertex
  /// whose bit j is clear is never reached by root j, nor traversed through
  /// by it, and a root whose own bit is clear visits nothing.  The masks
  /// index the batch, so a masked call takes at most batch_size roots.
  /// Empty (the default) restricts nothing.  k-core sweeps every stage's
  /// core at once with it: root j is stage j's root, and a vertex's mask is
  /// the prefix of the stages it survived.
  std::span<const std::uint64_t> allowed;
  CommonOptions common;
};

struct MsBfsResult {
  /// Level stamps, one row per root: level[j * n_loc + v] is the BFS level
  /// of local vertex v from roots[j], or kUnvisited if unreached — bitwise
  /// identical to bfs(g, comm, roots[j]).level[v].
  std::vector<std::int64_t> level;
  std::size_t n_roots = 0;
  int num_levels = 0;         ///< max frontier expansions over all batches
  std::uint64_t visited = 0;  ///< sum over roots of global vertices reached
};

/// Per-level callback of the visitor-style driver.  `newly[v]` has bit j set
/// iff local vertex v was first reached at `level` by batch_roots[j];
/// `batch_begin` is the index of batch_roots[0] within the full root span.
/// Level 0 delivers the root masks themselves.
using MsBfsLevelVisitor =
    std::function<void(std::int64_t level, std::span<const std::uint64_t> newly,
                       std::span<const gvid_t> batch_roots,
                       std::size_t batch_begin)>;

/// Collective.  Batched traversal of all `roots` (any count; batched
/// internally by opts.batch_size), delivering per-level discovery masks to
/// `visit` instead of materializing stamp arrays — the streaming form the
/// analytics build on (harmonic accumulates 1/level on the fly).
/// Returns {max levels over batches, total visited} as a MsBfsResult with
/// an empty `level` array.
MsBfsResult msbfs_visit(const dgraph::DistGraph& g,
                        parcomm::Communicator& comm,
                        std::span<const gvid_t> roots,
                        const MsBfsOptions& opts,
                        const MsBfsLevelVisitor& visit);

/// Collective.  Full level stamps for every root (testing / tree-less
/// consumers); one batch of CSR sweeps per kMsBfsMaxBatch roots.
MsBfsResult msbfs(const dgraph::DistGraph& g, parcomm::Communicator& comm,
                  std::span<const gvid_t> roots, const MsBfsOptions& opts = {});

}  // namespace hpcgraph::analytics
