#pragma once
/// \file wcc.hpp
/// Weakly connected components via the distributed Multistep algorithm
/// (Slota, Rajamanickam, Madduri, IPDPS'14 — the paper's [31]), the source
/// of the paper's WCC speedups over single-stage approaches:
///
///   1. **BFS step** (BFS-like class): one undirected BFS sweeps up the
///      giant component in a few synchronous levels.  Its root is the
///      vertex with the most edges to *other* vertices (out- plus in-degree
///      minus twice its self loops, ties to the smaller id): on webgraph
///      the raw-degree maximum is often a page whose edges are all self
///      loops, whose sweep reaches nothing.  The sweep is
///      direction-optimizing (BfsOptions::direction_optimizing): its
///      bottom-up levels publish frontier flags over the graph's `kBoth`
///      plan, the one the coloring step ships over too.
///   2. **Coloring step** (PageRank-like class): HashMin label propagation
///      over the leftover vertices until no color changes globally.  The
///      swept vertices start with the giant's label and no exchange
///      precedes round 0: no leftover is adjacent to a swept vertex, so no
///      leftover ever reads a giant ghost.
///
/// Labels are canonical: every component is named by the smallest global
/// vertex id it contains (the giant's BFS-root label is remapped at the
/// end), so results are directly comparable to the sequential reference.

#include <cstdint>
#include <vector>

#include "analytics/common.hpp"

namespace hpcgraph::analytics {

struct WccOptions {
  CommonOptions common;
};

struct WccResult {
  /// Per local vertex: component label = min global id in the component.
  std::vector<gvid_t> comp;
  gvid_t largest_label = kNullGvid;
  std::uint64_t largest_size = 0;
  std::uint64_t swept = 0;  ///< global count of vertices step 1 reached
  int bfs_levels = 0;       ///< step-1 frontier expansions
  int coloring_iters = 0;   ///< step-2 iterations to convergence
};

/// Collective.
WccResult wcc(const dgraph::DistGraph& g, parcomm::Communicator& comm,
              const WccOptions& opts = {});

/// Collective helper: the global vertex with the maximum total degree,
/// self loops counted (ties to the smallest id) — the paper's
/// harmonic-centrality pivot family.  WCC's sweep root discounts self
/// loops instead (see above).
gvid_t max_degree_vertex(const dgraph::DistGraph& g,
                         parcomm::Communicator& comm);

}  // namespace hpcgraph::analytics
