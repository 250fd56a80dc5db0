#pragma once
/// \file binary_edge_io.hpp
/// The paper's on-disk input format: a single binary file of directed edges,
/// "each directed edge ... represented using two 32-bit unsigned integers",
/// no header, no sorting.  A 64-bit variant (kU64) holds the same edges at
/// 16 bytes each; dgraph::Builder reads it with read_edge_chunk, then checks
/// every id against its n_global (at most 2^32) and narrows the chunk to
/// EdgeRecords.
///
/// Reading is parallel and chunked exactly as in §III-A: every task reads a
/// contiguous byte range covering approximately the same number of edges
/// (via pread, so concurrent ranks never share file-descriptor state).

#include <cstdint>
#include <string>
#include <vector>

#include "gen/edge_list.hpp"

namespace hpcgraph::io {

enum class EdgeFormat {
  kU32,  ///< 8 bytes/edge — the paper's WC input format
  kU64,  ///< 16 bytes/edge
};

inline std::size_t bytes_per_edge(EdgeFormat f) {
  return f == EdgeFormat::kU32 ? 8 : 16;
}

/// One edge exactly as a kU32 file stores it: the paper's "two 32-bit
/// unsigned integers".  dgraph::Builder carries every edge in this form from
/// the read to the CSR.
struct EdgeRecord {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};
static_assert(sizeof(EdgeRecord) == 8);

/// Write `graph.edges` to `path` in the given format.  Throws CheckError on
/// I/O failure or (for kU32) on vertex ids >= 2^32.
void write_edge_file(const std::string& path, const gen::EdgeList& graph,
                     EdgeFormat format = EdgeFormat::kU32);

/// Number of edges in the file (from its size). Throws if the size is not a
/// whole number of edges.
std::uint64_t edge_count(const std::string& path,
                         EdgeFormat format = EdgeFormat::kU32);

/// Read edges [first, first + count) from the file, widened to gen::Edge.
std::vector<gen::Edge> read_edge_chunk(const std::string& path,
                                       EdgeFormat format, std::uint64_t first,
                                       std::uint64_t count);

/// Read edges [first, first + count) of a kU32 file as its own 8-byte
/// records: the file's bytes land in the returned vector as they are.
std::vector<EdgeRecord> read_edge_records(const std::string& path,
                                          std::uint64_t first,
                                          std::uint64_t count);

/// The contiguous chunk assigned to `rank` of `nranks` when the file is
/// split as evenly as possible (the paper's ingestion decomposition).
/// Returns {first, count}.
std::pair<std::uint64_t, std::uint64_t> chunk_for_rank(std::uint64_t num_edges,
                                                       int rank, int nranks);

}  // namespace hpcgraph::io
