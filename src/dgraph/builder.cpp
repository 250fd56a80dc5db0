#include "dgraph/builder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/tracer.hpp"
#include "util/bitmask64.hpp"
#include "util/prefix_sum.hpp"
#include "util/timer.hpp"

namespace hpcgraph::dgraph {

using gen::Edge;
using io::EdgeRecord;
using parcomm::Communicator;

namespace {

/// Element-wise allreduce-sum of equal-length vectors (degree histograms).
std::vector<std::uint64_t> allreduce_sum_vec(Communicator& comm,
                                             std::span<const std::uint64_t> v) {
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> all = comm.allgatherv(v, &counts);
  std::vector<std::uint64_t> out(v.size(), 0);
  for (int r = 0; r < comm.size(); ++r)
    for (std::size_t i = 0; i < v.size(); ++i)
      out[i] += all[static_cast<std::size_t>(r) * v.size() + i];
  return out;
}

/// Frees a vector's storage now rather than at the end of its scope.
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// Edges travel as 32-bit ids, so no vertex-id space beyond 2^32 can be
/// built.  n_global is the same on every rank, so every rank throws here,
/// before any per-vertex allocation.
void check_n_global(gvid_t n_global) {
  constexpr gvid_t kMax = gvid_t{1} << 32;
  HG_CHECK_MSG(n_global <= kMax, "Builder: n_global "
                                     << n_global << " exceeds 2^32 = " << kMax
                                     << ": edges are built as 32-bit ids");
}

/// Every endpoint must lie in [0, n_global): a larger id would index past
/// the partition's bounds, its owner map or the edge-block degree
/// histogram, or lose its high bits as a record.  Called once per chunk,
/// before make_partition or owner().
void check_endpoints(std::size_t m, gvid_t max_id, gvid_t n_global,
                     int rank) {
  HG_CHECK_MSG(m == 0 || max_id < n_global,
               "Builder: vertex id " << max_id << " >= n_global " << n_global
                                     << " in the edge chunk of rank "
                                     << rank);
}

/// Largest endpoint id of a chunk (0 when it is empty).
template <typename E>
gvid_t max_endpoint(std::span<const E> edges) {
  gvid_t max_id = 0;
  for (const E& e : edges) max_id = std::max<gvid_t>({max_id, e.src, e.dst});
  return max_id;
}

/// Wide edges as records; check_endpoints must have passed them against a
/// checked n_global.
std::vector<EdgeRecord> narrow(std::span<const Edge> edges) {
  std::vector<EdgeRecord> out(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    out[i] = {static_cast<std::uint32_t>(edges[i].src),
              static_cast<std::uint32_t>(edges[i].dst)};
  return out;
}

/// This rank's contiguous ~m/p slice of an in-memory edge list, its
/// endpoints checked against graph.n, as records.
std::vector<EdgeRecord> rank_slice(Communicator& comm,
                                   const gen::EdgeList& graph) {
  const auto [first, count] =
      io::chunk_for_rank(graph.edges.size(), comm.rank(), comm.size());
  const auto slice = std::span(graph.edges).subspan(first, count);
  check_endpoints(slice.size(), max_endpoint(slice), graph.n, comm.rank());
  return narrow(slice);
}

/// Collective partition construction (edge-block needs a globally reduced
/// degree histogram of the chunks).
Partition make_partition(Communicator& comm, PartitionKind kind,
                         gvid_t n_global, std::span<const EdgeRecord> chunk,
                         std::uint64_t seed) {
  switch (kind) {
    case PartitionKind::kVertexBlock:
      return Partition::vertex_block(n_global, comm.size());
    case PartitionKind::kRandom:
      return Partition::random(n_global, comm.size(), seed);
    case PartitionKind::kExplicit:
      detail::check_failed(
          "kind != kExplicit", __FILE__, __LINE__,
          "explicit partitions carry an owner map; build one with "
          "Partition::explicit_map and use the Partition overload");
    case PartitionKind::kEdgeBlock: {
      // Bucketed out-degree histogram, globally reduced; 64 buckets per rank
      // gives the cut enough resolution without shipping an n-length array.
      const std::size_t buckets =
          std::min<std::size_t>(static_cast<std::size_t>(comm.size()) * 64,
                                static_cast<std::size_t>(n_global));
      std::vector<std::uint64_t> local = degree_buckets(chunk, n_global, buckets);
      std::vector<std::uint64_t> global = allreduce_sum_vec(comm, local);
      return Partition::edge_block(n_global, comm.size(), global);
    }
  }
  HG_CHECK_MSG(false, "unreachable partition kind");
}

/// Stable counting sort of `edges` into `send` (one slot per edge) by
/// part.owner(key(e)): input order is kept within each destination segment,
/// and that order fixes the per-vertex order of the CSR.
template <typename KeyFn>
void pack_by_owner(const Partition& part, std::span<const EdgeRecord> edges,
                   std::span<const std::uint64_t> counts, KeyFn key,
                   std::span<EdgeRecord> send) {
  std::vector<std::uint64_t> at(counts.size());
  exclusive_prefix_sum(counts, std::span<std::uint64_t>(at));
  for (const EdgeRecord& e : edges) send[at[part.owner(key(e))]++] = e;
}

/// A set of global ids as a bitmap over [0, n_global) that carries one
/// 32-bit count of the members below each 64-bit word, so that once
/// count_words() has filled the counts, a member's rank among the members
/// (its position in increasing-id order) is one popcount.  Costs
/// n_global/8 bytes of bits plus n_global/16 of counts.
class RankBitmap {
 public:
  explicit RankBitmap(gvid_t n_global) : words_((n_global + 63) / 64, 0) {}

  void set(gvid_t v) { words_[v >> 6] |= std::uint64_t{1} << (v & 63); }
  bool test(gvid_t v) const { return (words_[v >> 6] >> (v & 63)) & 1; }

  /// Fills the per-word counts; returns the number of members.
  lvid_t count_words() {
    below_.resize(words_.size());
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      below_[i] = run;
      run += static_cast<std::uint32_t>(std::popcount(words_[i]));
    }
    return run;
  }

  /// The number of members below v: v's rank when it is a member.
  lvid_t rank(gvid_t v) const {
    const std::uint64_t lower = (std::uint64_t{1} << (v & 63)) - 1;
    return below_[v >> 6] +
           static_cast<lvid_t>(std::popcount(words_[v >> 6] & lower));
  }

  /// fn(v) for every member v, in increasing order.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      bits::for_each_set_bit(words_[i], [&](std::size_t j) {
        fn(static_cast<gvid_t>(i * 64 + j));
      });
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> below_;
};

/// Global-to-local id translation during LConv.  Owned vertices map to
/// [0, n_loc): v - lo on block partitions, their rank in a bitmap of the
/// owned ids otherwise.  The count passes mark every remote endpoint in a
/// ghost bitmap; once count_ghosts() has counted it, a ghost's id is n_loc
/// plus its rank among the ghosts, so ghosts are numbered in increasing
/// global-id order without a sort.
class LocalIds {
 public:
  LocalIds(const Partition& part, int rank, gvid_t n_global,
           std::span<const gvid_t> owned)
      : n_loc_(static_cast<lvid_t>(owned.size())), block_(part.is_block()),
        lo_(block_ ? part.block_range(rank).first : 0),
        owned_(block_ ? 0 : n_global), ghosts_(n_global) {
    if (block_) return;
    for (const gvid_t v : owned) owned_.set(v);
    owned_.count_words();
  }

  lvid_t n_loc() const { return n_loc_; }
  bool owns(gvid_t v) const {
    return block_ ? v - lo_ < n_loc_ : owned_.test(v);
  }

  /// Local row of an owned vertex.
  lvid_t row(gvid_t v) const {
    HG_DCHECK(owns(v));
    return static_cast<lvid_t>(block_ ? v - lo_ : owned_.rank(v));
  }

  /// Count pass: marks `v`, the other endpoint of an edge, when remote.
  void note(gvid_t v) {
    if (!owns(v)) ghosts_.set(v);
  }

  /// Numbers the marked ghosts; returns how many there are.
  lvid_t count_ghosts() { return ghosts_.count_words(); }

  /// Scatter pass: the final local id of an endpoint, owned or ghost.
  lvid_t operator()(gvid_t v) const {
    return owns(v) ? row(v) : n_loc_ + ghosts_.rank(v);
  }

  const RankBitmap& ghosts() const { return ghosts_; }

 private:
  lvid_t n_loc_;
  bool block_;
  gvid_t lo_;
  RankBitmap owned_;  // random and explicit partitions only
  RankBitmap ghosts_;
};

/// Count pass over one direction's received records; `kOut`: rows are
/// sources, else destinations.  Overwrites each record's row endpoint with
/// its local row, counts the row's entries into index[row + 1] of a zeroed
/// n_loc + 1 array, and marks the other endpoint when it is a ghost.
template <bool kOut>
void count_rows(std::span<EdgeRecord> recv, LocalIds& local,
                std::vector<ecnt_t>& index) {
  index.assign(static_cast<std::size_t>(local.n_loc()) + 1, 0);
  for (EdgeRecord& e : recv) {
    std::uint32_t& row = kOut ? e.src : e.dst;
    row = local.row(row);
    ++index[row + 1];
    local.note(kOut ? e.dst : e.src);
  }
}

/// Scatter pass: fills the CSR over rows [0, n_loc) from the counted
/// records (consumed), each row's entries in received order and every other
/// endpoint written as its final local id.  index[row + 1] serves as the
/// row's cursor: it starts at the row's offset and ends at the next row's,
/// which leaves `index` the CSR's offsets.
template <bool kOut>
void scatter_rows(std::vector<EdgeRecord>& recv, const LocalIds& local,
                  std::vector<ecnt_t>& index, std::vector<lvid_t>& adj) {
  const std::span<ecnt_t> cursor = std::span<ecnt_t>(index).subspan(1);
  exclusive_prefix_sum(std::span<const ecnt_t>(cursor), cursor);
  adj.resize(recv.size());
  for (const EdgeRecord& e : recv)
    adj[cursor[kOut ? e.src : e.dst]++] = local(kOut ? e.dst : e.src);
  release(recv);
}

}  // namespace

DistGraph Builder::from_chunk(Communicator& comm, gvid_t n_global,
                              std::vector<EdgeRecord> chunk,
                              const Partition& part, BuildTiming* timing) {
  Timer stage;

  // ---- Exchange stage: out-edges to owner(src), in-edges to owner(dst). --
  // One pass counts both directions; each is then packed into the same send
  // buffer, and the chunk is freed before the in-edge receive allocates.
  // The count pass with the out-edge pack, and the in-edge pack, are each
  // one dgraph.build.pack span.
  obs::Span exchange_span(obs::span_name::kBuildExchange);
  const auto p = static_cast<std::size_t>(comm.size());
  std::vector<std::uint64_t> out_counts(p, 0), in_counts(p, 0);
  obs::Span out_pack_span(obs::span_name::kBuildPack);
  for (const EdgeRecord& e : chunk) {
    ++out_counts[part.owner(e.src)];
    ++in_counts[part.owner(e.dst)];
  }
  std::vector<EdgeRecord> send(chunk.size());
  pack_by_owner(part, chunk, out_counts,
                [](const EdgeRecord& e) { return e.src; }, send);
  out_pack_span.close();
  std::vector<EdgeRecord> out_recv =
      comm.alltoallv<EdgeRecord>(send, out_counts);
  obs::Span in_pack_span(obs::span_name::kBuildPack);
  pack_by_owner(part, chunk, in_counts,
                [](const EdgeRecord& e) { return e.dst; }, send);
  in_pack_span.close();
  release(chunk);
  std::vector<EdgeRecord> in_recv = comm.alltoallv<EdgeRecord>(send, in_counts);
  release(send);
  comm.barrier();
  exchange_span.close();
  const double t_exchange = stage.restart();

  // ---- LConv stage: CSR + ghost relabeling (Table II). ----
  obs::Span lconv_span(obs::span_name::kBuildLconv);
  DistGraph g(part, comm.rank());
  g.n_global_ = n_global;
  g.m_global_ = comm.allreduce_sum<ecnt_t>(out_recv.size());

  std::vector<gvid_t> owned = part.owned_vertices(comm.rank());
  g.n_loc_ = static_cast<lvid_t>(owned.size());

  // Both count passes run first, so every ghost is known and numbered
  // before either scatter writes an id; each endpoint is translated once.
  {
    LocalIds local(part, comm.rank(), n_global, owned);
    count_rows<true>(out_recv, local, g.out_index_);
    count_rows<false>(in_recv, local, g.in_index_);
    g.n_gst_ = local.count_ghosts();
    scatter_rows<true>(out_recv, local, g.out_index_, g.out_edges_);
    scatter_rows<false>(in_recv, local, g.in_index_, g.in_edges_);

    g.unmap_ = std::move(owned);
    g.unmap_.reserve(g.n_total());
    g.ghost_task_.reserve(g.n_gst_);
    local.ghosts().for_each([&](gvid_t v) {
      g.unmap_.push_back(v);
      g.ghost_task_.push_back(part.owner(v));
    });
  }  // the bitmaps are freed here

  g.map_.reserve(g.n_total());
  for (lvid_t l = 0; l < g.n_total(); ++l) g.map_.insert(g.unmap_[l], l);

  g.build_boundary_locals();

  comm.barrier();
  lconv_span.close();
  const double t_lconv = stage.restart();

  if (timing) {
    timing->exchange = t_exchange;
    timing->lconv = t_lconv;
  }
  return g;
}

DistGraph Builder::from_file(Communicator& comm, const std::string& path,
                             io::EdgeFormat format, PartitionKind kind,
                             gvid_t n_global, BuildTiming* timing,
                             std::uint64_t part_seed) {
  check_n_global(n_global);
  Timer stage;
  obs::Span read_span(obs::span_name::kBuildRead);
  const std::uint64_t m = io::edge_count(path, format);
  const auto [first, count] = io::chunk_for_rank(m, comm.rank(), comm.size());
  // A kU64 chunk stays wide until its ids are checked, then is narrowed.
  std::vector<EdgeRecord> chunk;
  std::vector<Edge> wide;
  if (format == io::EdgeFormat::kU32)
    chunk = io::read_edge_records(path, first, count);
  else
    wide = io::read_edge_chunk(path, format, first, count);
  comm.barrier();
  read_span.close();
  const double t_read = stage.restart();

  const gvid_t max_id =
      format == io::EdgeFormat::kU32
          ? max_endpoint(std::span<const EdgeRecord>(chunk))
          : max_endpoint(std::span<const Edge>(wide));
  if (n_global == 0) {
    n_global = comm.allreduce_max(max_id) + 1;
    check_n_global(n_global);
  }
  check_endpoints(count, max_id, n_global, comm.rank());
  if (format != io::EdgeFormat::kU32) {
    chunk = narrow(wide);
    release(wide);
  }

  const Partition part =
      make_partition(comm, kind, n_global, chunk, part_seed);
  DistGraph g = from_chunk(comm, n_global, std::move(chunk), part, timing);
  if (timing) timing->read = t_read;
  return g;
}

DistGraph Builder::from_edge_list(Communicator& comm,
                                  const gen::EdgeList& graph,
                                  PartitionKind kind, BuildTiming* timing,
                                  std::uint64_t part_seed) {
  check_n_global(graph.n);
  std::vector<EdgeRecord> chunk = rank_slice(comm, graph);
  const Partition part =
      make_partition(comm, kind, graph.n, chunk, part_seed);
  return from_chunk(comm, graph.n, std::move(chunk), part, timing);
}

DistGraph Builder::from_edge_list(Communicator& comm,
                                  const gen::EdgeList& graph,
                                  const Partition& part,
                                  BuildTiming* timing) {
  check_n_global(graph.n);
  HG_CHECK(part.n_global() == graph.n);
  HG_CHECK(part.nranks() == comm.size());
  return from_chunk(comm, graph.n, rank_slice(comm, graph), part, timing);
}

}  // namespace hpcgraph::dgraph
