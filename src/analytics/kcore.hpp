#pragma once
/// \file kcore.hpp
/// Approximate k-core decomposition — the paper's fifth analytic:
///
///   "we iteratively remove vertices that have degree less than 2^i, i
///    ranging from 1 to 27, and determine the largest connected component in
///    the pruned graph. The value 2^i thus gives a coreness upper bound for
///    all vertices in the component."
///
/// The analytic runs in two phases.
///
/// **Peel.** Stage i peels to the 2^i-core fixpoint (removal order cannot
/// change the fixpoint, so distributed and sequential results agree
/// exactly).  Each rank peels from a local worklist: the stage seeds it with
/// the alive locals below the threshold, and a round drains the rank's whole
/// local cascade — each removal decrements its local neighbours and queues
/// those that fall below the threshold — before one exchange mirrors the
/// alive flags of the removed vertices to their ghost replicas.  Receivers
/// turn each newly dead ghost into decrements of the local vertices incident
/// to it (a ghost->locals incidence CSR built once per call), which may queue
/// more work; the stage ends after the first round that leaves no rank with
/// work pending.  A stage costs 1 + (cross-rank cascade depth) rounds.
///
/// **Components.** `largest_cc` is the size of the component, in the
/// stage's surviving core, of the survivor with the largest remaining degree
/// (smallest global id on ties) — the paper's "27 iterations of BFS" for
/// Table IV's k-core row.  It is that vertex's component, which need not be
/// the largest one.  All stages share one undirected MS-BFS batch, with
/// stage j's root as root j: the cores are nested, so a vertex removed at
/// stage s is alive in stages 1 .. s-1 exactly, and a per-vertex bit-prefix
/// mask (`MsBfsOptions::allowed`) confines root j to core j.
///
/// Figure 6 plots the CDF of the returned per-vertex bounds.

#include <cstdint>
#include <vector>

#include "analytics/common.hpp"

namespace hpcgraph::analytics {

/// Largest KCoreOptions::max_i: thresholds up to 2^63 fit 64 bits, and one
/// 64-bit mask holds every stage's component root.
inline constexpr unsigned kKCoreMaxStages = 63;

struct KCoreOptions {
  unsigned max_i = 27;           ///< thresholds 2^1 .. 2^max_i, max_i <= 63
  bool track_components = true;  ///< per-stage largest_cc (paper mode)
  CommonOptions common;
};

/// One peeling stage's global summary.
struct KCoreStage {
  unsigned i = 0;                ///< stage index (threshold = 2^i)
  std::uint64_t threshold = 0;
  std::uint64_t removed = 0;     ///< vertices peeled this stage
  std::uint64_t alive_after = 0; ///< survivors
  /// Size of the surviving component of the stage's root: the survivor of
  /// largest remaining degree, smallest global id on ties (0 when nothing
  /// survives or components are not tracked).
  std::uint64_t largest_cc = 0;
  int peel_sweeps = 0;           ///< rounds to reach the stage fixpoint
};

struct KCoreResult {
  /// Per local vertex coreness upper bound: 2^i of the stage that removed
  /// it, or 2^max_i for survivors of every stage.
  std::vector<std::uint64_t> bound;
  std::vector<KCoreStage> stages;
};

/// Collective.  A max_i above kKCoreMaxStages is a CheckError.
KCoreResult kcore_approx(const dgraph::DistGraph& g,
                         parcomm::Communicator& comm,
                         const KCoreOptions& opts = {});

struct KCoreExactResult {
  /// Per local vertex: exact coreness (total-degree convention: in + out
  /// edge instances, self loops counting twice).
  std::vector<std::uint64_t> core;
  std::uint64_t max_core = 0;  ///< degeneracy of the graph (global)
  int stages = 0;              ///< peel levels that ran
};

/// Collective.  Exact coreness by distributed incremental peeling — the
/// refinement the paper points at: "The coreness upper bounds can be
/// refined, if required, to compute exact coreness values for each vertex."
/// Peels at unit levels k instead of the approximate 2^i thresholds, with
/// the same worklist peel; a vertex removed while peeling at level k has
/// coreness k-1.  Levels that would remove nothing are skipped: each level
/// is one above the smallest survivor degree (k = max(k + 1, min_deg + 1)),
/// found in the same allreduce as the survivor count.
KCoreExactResult kcore_exact(const dgraph::DistGraph& g,
                             parcomm::Communicator& comm,
                             const CommonOptions& opts = {});

}  // namespace hpcgraph::analytics
