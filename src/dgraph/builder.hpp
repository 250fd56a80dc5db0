#pragma once
/// \file builder.hpp
/// Distributed graph construction — §III-A of the paper.
///
/// Every edge travels as one 8-byte io::EdgeRecord {u32 src, dst}, the
/// paper's on-disk form, from the read to the CSR.  So the vertex-id space
/// is at most 2^32: an n_global above it is a named CheckError on every
/// rank at each entry point, before any per-vertex allocation.  gen::Edge
/// appears only at the boundaries: from_edge_list and kU64 files narrow
/// their ids to records once they are range-checked.
///
/// Three stages, individually timed (Table III) and traced as the
/// dgraph.build.read / .exchange / .lconv spans:
///   * **Read**: every rank reads a contiguous ~m/p chunk of the binary edge
///     file; a kU32 file's bytes land in the chunk as they are
///     (io::read_edge_records).  Every endpoint is checked against n_global
///     before any partition lookup sees it.
///   * **Exchange**: edges are redistributed with Alltoallv so each rank
///     holds all out-edges of its owned vertices, then again keyed by
///     destination for in-edges.  One pass counts both directions; each
///     direction is packed by a stable counting sort into one reused send
///     buffer, so input order survives within each destination, and the
///     chunk is freed before the in-edge receive buffer is allocated.
///   * **LConv**: per-rank conversion to the CSR representation of Table II
///     with ghost relabeling, straight from the received records.  A count
///     pass translates each record's owned endpoint to its local row in
///     place (arithmetic on block partitions, one map probe otherwise); a
///     scatter pass writes each other endpoint into its row, translated
///     once: an owned id the same way, a remote id by one
///     LpHashMap::find_or_insert that hands out provisional ghost ids in
///     first-seen order.  Only the distinct ghosts
///     are then sorted into their final increasing-global-id numbering, and
///     the provisional ids in both CSRs are renamed in place.
///
/// No preprocessing: vertex ids are used as given, duplicate edges and
/// self-loops are preserved.

#include <string>

#include "dgraph/dist_graph.hpp"
#include "gen/edge_list.hpp"
#include "io/binary_edge_io.hpp"
#include "parcomm/comm.hpp"

namespace hpcgraph::dgraph {

/// Per-stage wall times of one rank's construction (seconds).
struct BuildTiming {
  double read = 0;
  double exchange = 0;
  double lconv = 0;
  double total() const { return read + exchange + lconv; }
};

/// Builds DistGraph instances; all methods are collective (every rank of the
/// communicator must call with consistent arguments).
class Builder {
 public:
  /// End-to-end pipeline from a binary edge file.
  /// \param n_global  Vertex-id space, at most 2^32; pass 0 to derive
  ///                  max_id+1 globally.
  static DistGraph from_file(parcomm::Communicator& comm,
                             const std::string& path, io::EdgeFormat format,
                             PartitionKind kind, gvid_t n_global = 0,
                             BuildTiming* timing = nullptr,
                             std::uint64_t part_seed = 0);

  /// Test/bench convenience: every rank slices its chunk from a shared
  /// in-memory edge list (skips the Read stage).
  static DistGraph from_edge_list(parcomm::Communicator& comm,
                                  const gen::EdgeList& graph,
                                  PartitionKind kind,
                                  BuildTiming* timing = nullptr,
                                  std::uint64_t part_seed = 0);

  /// Same, with a caller-supplied partition (e.g. an explicit PuLP map).
  static DistGraph from_edge_list(parcomm::Communicator& comm,
                                  const gen::EdgeList& graph,
                                  const Partition& part,
                                  BuildTiming* timing = nullptr);

 private:
  /// Core pipeline given this rank's edge chunk and a ready partition.
  /// Every endpoint must be below n_global (the entry points above check).
  static DistGraph from_chunk(parcomm::Communicator& comm, gvid_t n_global,
                              std::vector<io::EdgeRecord> chunk,
                              const Partition& part,
                              BuildTiming* timing = nullptr);
};

}  // namespace hpcgraph::dgraph
