#pragma once
/// \file dist_graph.hpp
/// The distributed graph representation — Table II of the paper, verbatim:
///
///   n_global, m_global, n_loc, n_gst, m_out, m_in,
///   out_edges / out_indexes (CSR), in_edges / in_indexes (CSR),
///   map   (global -> local id, linear-probing hash),
///   unmap (local -> global id array),
///   tasks (owner of each ghost vertex).
///
/// Locally owned vertices are relabeled to [0, n_loc); ghost vertices
/// (remote vertices adjacent to a local one) to [n_loc, n_loc + n_gst).
/// All per-vertex analytic state is then stored in flat
/// (n_loc + n_gst)-length arrays — the paper's key representation decision
/// ("To avoid accessing a slow hash map and using arrays instead, we relabel
/// all locally owned and ghost vertices").
///
/// Local ids are deterministic: owned vertices in increasing global-id
/// order, then ghosts in increasing global-id order.  Determinism makes
/// distributed results reproducible and directly comparable with the
/// sequential reference implementations in tests.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dgraph/partition.hpp"
#include "util/error.hpp"
#include "util/lp_hash_map.hpp"
#include "util/types.hpp"

namespace hpcgraph::parcomm {
class Communicator;
}  // namespace hpcgraph::parcomm

namespace hpcgraph::dgraph {

class GhostPlan;       // dgraph/ghost_exchange.hpp
enum class Adjacency;  // dgraph/ghost_exchange.hpp

/// One rank's share of the distributed graph.  Built by builder.hpp.
class DistGraph {
 public:
  // ---- Global / local counts (Table II scalars). ----
  gvid_t n_global() const { return n_global_; }
  ecnt_t m_global() const { return m_global_; }
  lvid_t n_loc() const { return n_loc_; }
  lvid_t n_gst() const { return n_gst_; }
  lvid_t n_total() const { return n_loc_ + n_gst_; }
  ecnt_t m_out() const { return out_edges_.size(); }
  ecnt_t m_in() const { return in_edges_.size(); }

  int rank() const { return rank_; }
  int nranks() const { return part_.nranks(); }
  const Partition& partition() const { return part_; }

  // ---- Adjacency (local ids; valid vertex arg: [0, n_loc)). ----
  std::span<const lvid_t> out_neighbors(lvid_t v) const {
    HG_DCHECK(v < n_loc_);
    return {out_edges_.data() + out_index_[v],
            out_index_[v + 1] - out_index_[v]};
  }

  std::span<const lvid_t> in_neighbors(lvid_t v) const {
    HG_DCHECK(v < n_loc_);
    return {in_edges_.data() + in_index_[v], in_index_[v + 1] - in_index_[v]};
  }

  std::uint64_t out_degree(lvid_t v) const {
    HG_DCHECK(v < n_loc_);
    return out_index_[v + 1] - out_index_[v];
  }

  std::uint64_t in_degree(lvid_t v) const {
    HG_DCHECK(v < n_loc_);
    return in_index_[v + 1] - in_index_[v];
  }

  // ---- Id translation. ----
  /// Local id of a global id (local vertex or ghost); kNullLvid if this rank
  /// has never seen the vertex.
  lvid_t local_id(gvid_t g) const {
    const std::uint32_t v = map_.find(g);
    return v == LpHashMap::kNotFound ? kNullLvid : static_cast<lvid_t>(v);
  }

  /// Local id that must exist (checked).
  lvid_t local_id_checked(gvid_t g) const {
    return static_cast<lvid_t>(map_.at(g));
  }

  /// Local id of a vertex this rank holds as a local; kNullLvid if it does
  /// not.  Block partitions place locals at v - lo (the Builder's layout,
  /// which load_snapshot checks), so only other partitions probe the map.
  lvid_t owned_local(gvid_t g) const {
    const gvid_t l = part_.is_block() ? g - part_.block_range(rank_).first
                                      : local_id(g);
    return l < n_loc_ ? static_cast<lvid_t>(l) : kNullLvid;
  }

  /// owned_local of an id routed to this rank as its owner (checked: a
  /// ghost or foreign id is an error).
  lvid_t owned_local_checked(gvid_t g) const {
    const lvid_t l = owned_local(g);
    HG_CHECK_MSG(l != kNullLvid,
                 "vertex " << g << " is not a local of rank " << rank_);
    return l;
  }

  /// Global id of a local id (local vertex or ghost).
  gvid_t global_id(lvid_t l) const {
    HG_DCHECK(l < n_total());
    return unmap_[l];
  }

  bool is_ghost(lvid_t l) const { return l >= n_loc_; }

  /// Owning task of a local-or-ghost id.  O(1): ghosts have their owner
  /// cached in the `tasks` array (Table II), locals are this rank.
  int owner_of(lvid_t l) const {
    HG_DCHECK(l < n_total());
    return l < n_loc_ ? rank_ : ghost_task_[l - n_loc_];
  }

  /// Owning task of a *global* id (partition lookup; works for any vertex).
  int owner_of_global(gvid_t g) const { return part_.owner(g); }

  /// Global ids of all ghosts, indexed by (local id - n_loc).
  std::span<const gvid_t> ghost_globals() const {
    return {unmap_.data() + n_loc_, n_gst_};
  }

  /// Local ids with at least one ghost out- or in-neighbor (ascending): the
  /// vertices some other rank holds as a ghost replica.  Computed once by
  /// the builder and the snapshot loader.
  std::span<const lvid_t> boundary_locals() const { return boundary_; }

  // ---- Retained ghost-exchange plans (defined in ghost_exchange.cpp). ----
  /// The graph's ghost-exchange plan for `adj`.  Collective on the first
  /// request per adjacency, which builds it (GhostPlan::build); later
  /// requests return the same plan without communicating.  Every rank must
  /// request it at the same point of the collective sequence, which holds
  /// as long as every rank runs the same analytics on its graph.  A copy of
  /// the graph shares the plans built before the copy; a snapshot-reloaded
  /// graph builds its own.
  std::shared_ptr<const GhostPlan> ghost_plan(parcomm::Communicator& comm,
                                              Adjacency adj) const;
  /// Resident bytes of the plans this graph holds.
  std::uint64_t ghost_plan_bytes() const;

  // ---- Raw CSR views (compression, serialization, custom kernels). ----
  std::span<const ecnt_t> out_index() const { return out_index_; }
  std::span<const lvid_t> out_edges_raw() const { return out_edges_; }
  std::span<const ecnt_t> in_index() const { return in_index_; }
  std::span<const lvid_t> in_edges_raw() const { return in_edges_; }

  /// Approximate resident bytes of the structure (compactness reporting).
  std::uint64_t memory_bytes() const {
    return out_edges_.size() * sizeof(lvid_t) +
           in_edges_.size() * sizeof(lvid_t) +
           out_index_.size() * sizeof(ecnt_t) +
           in_index_.size() * sizeof(ecnt_t) +
           unmap_.size() * sizeof(gvid_t) +
           ghost_task_.size() * sizeof(std::int32_t) +
           map_.capacity() * (sizeof(gvid_t) + sizeof(std::uint32_t));
  }

 private:
  friend class Builder;
  friend void save_snapshot(const DistGraph&, parcomm::Communicator&,
                            const std::string&);
  friend DistGraph load_snapshot(parcomm::Communicator&, const std::string&);

  DistGraph(const Partition& part, int rank) : part_(part), rank_(rank) {}

  /// Fill boundary_ from the finished CSR.
  void build_boundary_locals() {
    boundary_.clear();
    for (lvid_t v = 0; v < n_loc_; ++v) {
      bool bnd = false;
      for (ecnt_t e = out_index_[v]; e < out_index_[v + 1] && !bnd; ++e)
        bnd = out_edges_[e] >= n_loc_;
      for (ecnt_t e = in_index_[v]; e < in_index_[v + 1] && !bnd; ++e)
        bnd = in_edges_[e] >= n_loc_;
      if (bnd) boundary_.push_back(v);
    }
  }

  Partition part_;
  int rank_;

  gvid_t n_global_ = 0;
  ecnt_t m_global_ = 0;
  lvid_t n_loc_ = 0;
  lvid_t n_gst_ = 0;

  std::vector<ecnt_t> out_index_;       // n_loc + 1
  std::vector<lvid_t> out_edges_;       // m_out, local ids
  std::vector<ecnt_t> in_index_;        // n_loc + 1
  std::vector<lvid_t> in_edges_;        // m_in, local ids
  LpHashMap map_;                       // global -> local
  std::vector<gvid_t> unmap_;           // local -> global, n_loc + n_gst
  std::vector<std::int32_t> ghost_task_;  // owner of each ghost, n_gst
  std::vector<lvid_t> boundary_;        // locals with a ghost neighbor
  // One lazily built plan per Adjacency value; a cache of a pure function
  // of the members above, hence mutable.
  mutable std::array<std::shared_ptr<const GhostPlan>, 3> ghost_plans_;
};

}  // namespace hpcgraph::dgraph
