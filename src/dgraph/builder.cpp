#include "dgraph/builder.hpp"

#include <algorithm>
#include <utility>

#include "obs/tracer.hpp"
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

/// Global-to-local id translation during LConv, one call per endpoint.
/// Owned vertices map to [0, n_loc): by arithmetic on block partitions, by
/// one probe of the map (pre-filled with them) otherwise.  A remote vertex
/// gets a provisional ghost id n_loc + k from the same single probe
/// (LpHashMap::find_or_insert), k counting distinct ghosts in first-seen
/// order.
class LocalIds {
 public:
  LocalIds(const Partition& part, int rank, lvid_t n_loc, LpHashMap& map)
      : map_(map), n_loc_(n_loc), block_(part.is_block()),
        lo_(block_ ? part.block_range(rank).first : 0) {}

  lvid_t operator()(gvid_t v) {
    if (block_ && v - lo_ < n_loc_) return static_cast<lvid_t>(v - lo_);
    const auto next = static_cast<std::uint32_t>(n_loc_ + seen_.size());
    const std::uint32_t l = map_.find_or_insert(v, next);
    if (l == next) seen_.push_back(v);
    return static_cast<lvid_t>(l);
  }

  lvid_t n_loc() const { return n_loc_; }

  /// The distinct ghosts as (global id, provisional id - n_loc) pairs in
  /// increasing global-id order, the order of their final ids.  Sorts each
  /// ghost once, not each occurrence.
  std::vector<std::pair<gvid_t, lvid_t>> sorted_ghosts() {
    std::vector<std::pair<gvid_t, lvid_t>> out(seen_.size());
    for (std::size_t k = 0; k < out.size(); ++k)
      out[k] = {seen_[k], static_cast<lvid_t>(k)};
    release(seen_);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  LpHashMap& map_;
  lvid_t n_loc_;
  bool block_;
  gvid_t lo_;
  std::vector<gvid_t> seen_;
};

/// CSR over rows [0, n_loc) of one direction's received records (consumed),
/// each row's entries in received order; `kOut`: rows are sources, else
/// destinations.  The count pass overwrites each record's row endpoint with
/// its local row; the scatter pass writes the other endpoint, translated
/// once, into the row: a provisional ghost id when remote, which
/// rename_ghosts replaces once every ghost is known.
template <bool kOut>
void fill_csr(std::vector<EdgeRecord>& recv, LocalIds& local,
              std::vector<ecnt_t>& index, std::vector<lvid_t>& adj) {
  const auto row = [](EdgeRecord& e) -> std::uint32_t& {
    return kOut ? e.src : e.dst;
  };
  std::vector<ecnt_t> cursor(local.n_loc(), 0);
  for (EdgeRecord& e : recv) {
    row(e) = local(row(e));
    HG_DCHECK(row(e) < local.n_loc());
    ++cursor[row(e)];
  }
  index = csr_offsets(std::span<const ecnt_t>(cursor));
  std::copy(index.begin(), index.end() - 1, cursor.begin());
  adj.resize(recv.size());
  for (EdgeRecord& e : recv)
    adj[cursor[row(e)]++] = local(kOut ? e.dst : e.src);
  release(recv);
}

/// Renames a filled CSR's provisional ghost ids to their final ones.
void rename_ghosts(std::vector<lvid_t>& adj, lvid_t n_loc,
                   std::span<const lvid_t> ghost_id) {
  for (lvid_t& c : adj)
    if (c >= n_loc) c = ghost_id[c - n_loc];
}

}  // namespace

DistGraph Builder::from_chunk(Communicator& comm, gvid_t n_global,
                              std::vector<EdgeRecord> chunk,
                              const Partition& part, BuildTiming* timing) {
  Timer stage;

  // ---- Exchange stage: out-edges to owner(src), in-edges to owner(dst). --
  // One pass counts both directions; each is then packed into the same send
  // buffer, and the chunk is freed before the in-edge receive allocates.
  obs::Span exchange_span(obs::span_name::kBuildExchange);
  const auto p = static_cast<std::size_t>(comm.size());
  std::vector<std::uint64_t> out_counts(p, 0), in_counts(p, 0);
  for (const EdgeRecord& e : chunk) {
    ++out_counts[part.owner(e.src)];
    ++in_counts[part.owner(e.dst)];
  }
  std::vector<EdgeRecord> send(chunk.size());
  pack_by_owner(part, chunk, out_counts,
                [](const EdgeRecord& e) { return e.src; }, send);
  std::vector<EdgeRecord> out_recv =
      comm.alltoallv<EdgeRecord>(send, out_counts);
  pack_by_owner(part, chunk, in_counts,
                [](const EdgeRecord& e) { return e.dst; }, send);
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

  g.map_.reserve(owned.size() * 2);
  for (lvid_t i = 0; i < g.n_loc_; ++i)
    g.map_.insert(owned[i], i);

  // Each received endpoint is translated once; the map is probed only for
  // endpoints a block range cannot place.
  LocalIds local(part, comm.rank(), g.n_loc_, g.map_);
  fill_csr<true>(out_recv, local, g.out_index_, g.out_edges_);
  fill_csr<false>(in_recv, local, g.in_index_, g.in_edges_);

  // Ghosts take their final ids in increasing global-id order
  // (determinism); provisional ids are renamed through `ghost_id`, and the
  // ghosts' map values are overwritten with the final ids.
  std::vector<std::pair<gvid_t, lvid_t>> ghosts = local.sorted_ghosts();
  g.n_gst_ = static_cast<lvid_t>(ghosts.size());

  std::vector<lvid_t> ghost_id(g.n_gst_);
  g.unmap_ = std::move(owned);
  g.unmap_.resize(g.n_total());
  g.ghost_task_.resize(g.n_gst_);
  for (lvid_t j = 0; j < g.n_gst_; ++j) {
    const auto [v, k] = ghosts[j];
    const lvid_t l = g.n_loc_ + j;
    ghost_id[k] = l;
    g.unmap_[l] = v;
    g.ghost_task_[j] = part.owner(v);
    g.map_.insert(v, l);
  }
  release(ghosts);

  rename_ghosts(g.out_edges_, g.n_loc_, ghost_id);
  rename_ghosts(g.in_edges_, g.n_loc_, ghost_id);

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
