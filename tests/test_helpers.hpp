#pragma once
// Shared helpers for the distributed test suites: standard sweep of
// (rank count x partition strategy) configurations and small test graphs.

#include <string>
#include <vector>

#include "dgraph/builder.hpp"
#include "gen/edge_list.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "ref/seq_graph.hpp"

namespace hpcgraph::testing {

struct DistConfig {
  int nranks;
  dgraph::PartitionKind kind;

  std::string label() const {
    return std::to_string(nranks) + "x" + dgraph::partition_label(kind);
  }
};

/// The standard configuration sweep used by the distributed suites.
inline std::vector<DistConfig> standard_configs() {
  using dgraph::PartitionKind;
  std::vector<DistConfig> out;
  for (const int p : {1, 2, 3, 4, 8})
    for (const auto k : {PartitionKind::kVertexBlock,
                         PartitionKind::kEdgeBlock, PartitionKind::kRandom})
      out.push_back({p, k});
  return out;
}

/// A reduced sweep for expensive tests.
inline std::vector<DistConfig> small_configs() {
  using dgraph::PartitionKind;
  return {{1, PartitionKind::kVertexBlock},
          {2, PartitionKind::kVertexBlock},
          {4, PartitionKind::kRandom},
          {3, PartitionKind::kEdgeBlock}};
}

/// Run `body(graph, comm)` on a fresh world with the edge list distributed
/// per `cfg`.  The body runs on every rank.
template <typename F>
void with_dist_graph(const gen::EdgeList& el, const DistConfig& cfg, F&& body) {
  parcomm::CommWorld world(cfg.nranks);
  world.run([&](parcomm::Communicator& comm) {
    const dgraph::DistGraph g =
        dgraph::Builder::from_edge_list(comm, el, cfg.kind);
    body(g, comm);
  });
}

/// Number of spans called `name` recorded on `rank`'s lanes.
inline std::size_t span_count(const obs::Tracer& tracer, int rank,
                              const char* name) {
  std::size_t n = 0;
  for (const obs::Event& e : tracer.rank_events(rank))
    n += e.kind == obs::EventKind::kSpan && std::string(e.name) == name;
  return n;
}

/// Tiny deterministic directed test graph with interesting structure:
/// two weak components, a 3-cycle SCC, a dangling vertex, a self loop,
/// and a duplicate edge.
inline gen::EdgeList tiny_graph() {
  gen::EdgeList g;
  g.n = 10;
  g.name = "tiny";
  g.edges = {
      {0, 1}, {1, 2}, {2, 0},          // 3-cycle SCC {0,1,2}
      {2, 3}, {3, 4},                  // tail to dangling 4
      {5, 6}, {6, 5},                  // 2-cycle SCC {5,6} (2nd component)
      {6, 7},                          // pendant
      {8, 8},                          // self loop, isolated-ish
      {0, 1},                          // duplicate edge
  };
  // vertex 9: fully isolated (no edges at all)
  return g;
}

}  // namespace hpcgraph::testing
