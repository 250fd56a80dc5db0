#include "dgraph/builder.hpp"

#include <algorithm>

#include "util/prefix_sum.hpp"
#include "util/thread_queue.hpp"
#include "util/timer.hpp"

namespace hpcgraph::dgraph {

using gen::Edge;
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

/// Redistribute `edges` so each lands on part.owner(key(e)).
/// Returned edges are grouped by source rank (deterministic order).
template <typename KeyFn>
std::vector<Edge> exchange_edges(Communicator& comm, const Partition& part,
                                 std::span<const Edge> edges, KeyFn key) {
  const int p = comm.size();
  std::vector<std::uint64_t> counts(p, 0);
  for (const Edge& e : edges) ++counts[part.owner(key(e))];

  MultiQueue<Edge> q(counts);
  {
    MultiQueue<Edge>::Sink sink(q);
    for (const Edge& e : edges)
      sink.push(static_cast<std::uint32_t>(part.owner(key(e))), e);
  }
  HG_DCHECK(q.complete());
  return comm.alltoallv<Edge>(q.buffer(), counts);
}

}  // namespace

Partition Builder::make_partition(Communicator& comm, PartitionKind kind,
                                  gvid_t n_global,
                                  std::span<const Edge> chunk,
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

DistGraph Builder::from_chunk(Communicator& comm, gvid_t n_global,
                              std::vector<Edge> chunk, const Partition& part,
                              BuildTiming* timing) {
  Timer stage;

  // ---- Exchange stage: out-edges to owner(src), in-edges to owner(dst). --
  std::vector<Edge> out_recv =
      exchange_edges(comm, part, chunk, [](const Edge& e) { return e.src; });
  std::vector<Edge> in_recv =
      exchange_edges(comm, part, chunk, [](const Edge& e) { return e.dst; });
  chunk.clear();
  chunk.shrink_to_fit();
  comm.barrier();
  const double t_exchange = stage.restart();

  // ---- LConv stage: CSR + ghost relabeling (Table II). ----
  DistGraph g(part, comm.rank());
  g.n_global_ = n_global;
  g.m_global_ = comm.allreduce_sum<ecnt_t>(out_recv.size());

  const std::vector<gvid_t> owned = part.owned_vertices(comm.rank());
  g.n_loc_ = static_cast<lvid_t>(owned.size());

  g.map_.reserve(owned.size() * 2);
  for (lvid_t i = 0; i < g.n_loc_; ++i)
    g.map_.insert(owned[i], i);

  // Ghosts: remote endpoints of local edges, deduplicated, relabeled in
  // increasing global-id order (determinism).
  std::vector<gvid_t> ghosts;
  ghosts.reserve(out_recv.size() / 4 + 16);
  const auto note_ghost = [&](gvid_t u) {
    if (g.map_.find(u) == LpHashMap::kNotFound) ghosts.push_back(u);
  };
  for (const Edge& e : out_recv) note_ghost(e.dst);
  for (const Edge& e : in_recv) note_ghost(e.src);
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  g.n_gst_ = static_cast<lvid_t>(ghosts.size());

  g.unmap_.reserve(owned.size() + ghosts.size());
  g.unmap_ = owned;
  g.unmap_.insert(g.unmap_.end(), ghosts.begin(), ghosts.end());
  g.ghost_task_.resize(ghosts.size());
  for (lvid_t k = 0; k < g.n_gst_; ++k) {
    g.map_.insert(ghosts[k], g.n_loc_ + k);
    g.ghost_task_[k] = part.owner(ghosts[k]);
  }

  // Out-CSR: count, prefix, fill (received order preserved per vertex).
  {
    std::vector<ecnt_t> deg(g.n_loc_, 0);
    for (const Edge& e : out_recv) ++deg[g.map_.at(e.src)];
    g.out_index_ = csr_offsets(std::span<const ecnt_t>(deg));
    g.out_edges_.resize(out_recv.size());
    std::vector<ecnt_t> cursor(g.out_index_.begin(), g.out_index_.end() - 1);
    for (const Edge& e : out_recv) {
      const lvid_t s = static_cast<lvid_t>(g.map_.at(e.src));
      g.out_edges_[cursor[s]++] = static_cast<lvid_t>(g.map_.at(e.dst));
    }
  }
  out_recv.clear();
  out_recv.shrink_to_fit();

  // In-CSR.
  {
    std::vector<ecnt_t> deg(g.n_loc_, 0);
    for (const Edge& e : in_recv) ++deg[g.map_.at(e.dst)];
    g.in_index_ = csr_offsets(std::span<const ecnt_t>(deg));
    g.in_edges_.resize(in_recv.size());
    std::vector<ecnt_t> cursor(g.in_index_.begin(), g.in_index_.end() - 1);
    for (const Edge& e : in_recv) {
      const lvid_t d = static_cast<lvid_t>(g.map_.at(e.dst));
      g.in_edges_[cursor[d]++] = static_cast<lvid_t>(g.map_.at(e.src));
    }
  }

  g.build_boundary_locals();

  comm.barrier();
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
  Timer stage;
  const std::uint64_t m = io::edge_count(path, format);
  const auto [first, count] = io::chunk_for_rank(m, comm.rank(), comm.size());
  std::vector<Edge> chunk = io::read_edge_chunk(path, format, first, count);
  comm.barrier();
  const double t_read = stage.restart();

  if (n_global == 0) {
    gvid_t local_max = 0;
    for (const Edge& e : chunk)
      local_max = std::max({local_max, e.src, e.dst});
    n_global = comm.allreduce_max(local_max) + 1;
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
  const auto [first, count] =
      io::chunk_for_rank(graph.edges.size(), comm.rank(), comm.size());
  std::vector<Edge> chunk(graph.edges.begin() + first,
                          graph.edges.begin() + first + count);
  const Partition part =
      make_partition(comm, kind, graph.n, chunk, part_seed);
  return from_chunk(comm, graph.n, std::move(chunk), part, timing);
}

DistGraph Builder::from_edge_list(Communicator& comm,
                                  const gen::EdgeList& graph,
                                  const Partition& part,
                                  BuildTiming* timing) {
  HG_CHECK(part.n_global() == graph.n);
  HG_CHECK(part.nranks() == comm.size());
  const auto [first, count] =
      io::chunk_for_rank(graph.edges.size(), comm.rank(), comm.size());
  std::vector<Edge> chunk(graph.edges.begin() + first,
                          graph.edges.begin() + first + count);
  return from_chunk(comm, graph.n, std::move(chunk), part, timing);
}

}  // namespace hpcgraph::dgraph
