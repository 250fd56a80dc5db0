#pragma once
/// \file ref_analytics.hpp
/// Sequential golden implementations of all six analytics.
///
/// These are the oracles the test suite compares the distributed codes
/// against (exact equality for discrete results, tolerance for floating
/// point).  They are deliberately simple and obviously-correct rather than
/// fast; use the distributed implementations (src/analytics) for any real
/// workload.

#include <cstdint>
#include <vector>

#include "ref/seq_graph.hpp"
#include "util/types.hpp"

namespace hpcgraph::ref {

/// Power-iteration PageRank with uniform teleport and dangling-mass
/// redistribution; synchronous updates.  Returns per-vertex scores summing
/// to ~1.
std::vector<double> pagerank(const SeqGraph& g, int iterations,
                             double damping = 0.85);

/// BFS levels from `root`; unreachable vertices get kUnreachableLevel.
/// \param directed  true: follow out-edges only; false: both directions.
inline constexpr std::int64_t kUnreachableLevel = -1;
std::vector<std::int64_t> bfs_levels(const SeqGraph& g, gvid_t root,
                                     bool directed = true);

/// Weakly connected components: comp[v] = smallest vertex id in v's
/// component (canonical labels).
std::vector<gvid_t> wcc(const SeqGraph& g);

/// Strongly connected components: comp[v] = smallest vertex id in v's SCC
/// (canonical labels).  Iterative Tarjan.
std::vector<gvid_t> scc(const SeqGraph& g);

/// Vertices of the largest SCC (by size; ties to the one whose canonical
/// label is smallest).
std::vector<gvid_t> largest_scc(const SeqGraph& g);

/// Harmonic centrality of one vertex: sum over u != v of 1/d(v, u), with
/// d measured along out-edges (Boldi-Vigna axioms; the paper's [1]).
double harmonic_centrality(const SeqGraph& g, gvid_t v);

/// The paper's *approximate* k-core: for i = 1..max_i, iteratively remove
/// vertices of total degree < 2^i; vertices removed at stage i get coreness
/// upper bound 2^i.  Returns per-vertex bounds (vertices surviving all
/// stages get 2^max_i... capped by the loop limit, matching the distributed
/// code).
std::vector<std::uint64_t> kcore_approx(const SeqGraph& g,
                                        unsigned max_i = 27);

/// One stage of the approximate k-core, as kcore_stages reports it.
struct KCoreStage {
  unsigned i = 0;                ///< threshold = 2^i
  std::uint64_t threshold = 0;
  std::uint64_t removed = 0;     ///< vertices peeled at this stage
  std::uint64_t alive_after = 0;
  /// The survivor of largest remaining degree (smallest id on ties), or
  /// kNullGvid when nothing survives.
  gvid_t root = kNullGvid;
  /// Vertices of root's component among the survivors (undirected view).
  std::uint64_t largest_cc = 0;
};

/// The stage record of kcore_approx(g, max_i): the same peel, stopping after
/// the first stage that leaves nothing alive, with each stage's root and
/// its component found by an undirected BFS over the survivors.
std::vector<KCoreStage> kcore_stages(const SeqGraph& g, unsigned max_i = 27);

/// Exact coreness via standard peeling (extension beyond the paper's
/// approximation; used to validate that approx bounds really are bounds).
std::vector<std::uint64_t> kcore_exact(const SeqGraph& g);

/// Synchronous Label Propagation over the undirected view; labels start as
/// vertex ids, ties broken by splitmix64(label ^ tie_seed).  Matches the
/// distributed implementation bit-for-bit for a given seed.
std::vector<std::uint64_t> label_propagation(const SeqGraph& g,
                                             int iterations,
                                             std::uint64_t tie_seed = 0);

/// Dijkstra shortest paths from `root` along out-edges, with the same
/// deterministic synthetic weights as analytics::sssp (weights in
/// [1, max_weight] derived from endpoint ids).  Unreachable vertices get
/// kInfDistance.
inline constexpr std::uint64_t kInfDistance = ~std::uint64_t{0};
std::vector<std::uint64_t> sssp_dijkstra(const SeqGraph& g, gvid_t root,
                                         std::uint64_t max_weight = 64);

/// Brandes betweenness dependencies accumulated over `sources` (directed,
/// unweighted, endpoints excluded; parallel edges count as distinct paths)
/// — oracle for analytics::betweenness.
std::vector<double> betweenness_brandes(const SeqGraph& g,
                                        std::span<const gvid_t> sources);

/// Distinct-triple triangle count over the undirected, deduplicated view
/// (direction, parallel edges and self loops ignored) — oracle for
/// analytics::triangle_count.
std::uint64_t triangle_count(const SeqGraph& g);

/// Canonicalize component/community labels: relabel so every class is named
/// by its smallest member vertex id.  Makes partitions comparable across
/// implementations that choose different representatives.
std::vector<std::uint64_t> normalize_labels(
    const std::vector<std::uint64_t>& labels);

}  // namespace hpcgraph::ref
