#pragma once
/// \file oracle.hpp
/// Reference digests from the sequential src/ref oracles, computed once per
/// run on the generated edge list (the same graph the library ingests from
/// the file).

#include <vector>

#include "digest.hpp"
#include "gen/edge_list.hpp"
#include "pipeline.hpp"

namespace hpcgraph::e2e {

struct Reference {
  Digest ingest;  ///< also the expected digest of a reloaded snapshot
  std::vector<std::vector<Digest>> stages;  ///< parallel to Workload::stages
  std::vector<double> pagerank;  ///< full scores, for the L1 check
};

/// `pr_iterations` is the iteration count the checked PageRank ran (a
/// tolerance-stopped run is compared with the oracle at the same count).
/// Label Propagation uses a degree-sized counter (oracle.cpp); `ref_lp`
/// also runs the src/ref one at any size and requires equal labels.
Reference reference(const Workload& w, const gen::EdgeList& el,
                    const Inputs& in, int pr_iterations, bool ref_lp);

}  // namespace hpcgraph::e2e
