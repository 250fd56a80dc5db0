#include "dgraph/ghost_exchange.hpp"

#include <limits>

#include "util/prefix_sum.hpp"

namespace hpcgraph::dgraph {

using parcomm::Communicator;

std::shared_ptr<const GhostPlan> GhostPlan::build(const DistGraph& g,
                                                  Communicator& comm,
                                                  Adjacency adj) {
  obs::Span plan_span(obs::span_name::kGhostPlan);
  const int p = comm.size();
  const int me = comm.rank();
  HG_CHECK_MSG(p == g.nranks() && me == g.rank(),
               "ghost plan: communicator rank " << me << "/" << p
                   << " does not match the graph's " << g.rank() << "/"
                   << g.nranks());
  const lvid_t n_loc = g.n_loc();
  std::shared_ptr<GhostPlan> plan(new GhostPlan);

  // ---- The ghosts this rank reads under `adj` (one byte per id). ----
  // The Builder stores every edge (u, v) at both owners, so "u has an
  // out-neighbour owned by r" holds exactly when u appears in r's in-edges:
  // a kOut reader reads the ghosts of its in-CSR, a kIn reader those of its
  // out-CSR, a kBoth reader every ghost.
  std::vector<std::uint8_t> read(g.n_total(), adj == Adjacency::kBoth);
  if (adj != Adjacency::kBoth)
    for (const lvid_t u : adj == Adjacency::kOut ? g.in_edges_raw()
                                                 : g.out_edges_raw())
      read[u] = 1;

  // ---- Receive side: the read ghosts grouped by owner by a stable
  // counting sort, so each segment is in ghost-id (increasing global-id)
  // order; on block partitions the ghosts are already grouped. ----
  std::vector<std::uint64_t>& recv_counts = plan->recv_counts_;
  recv_counts.assign(p, 0);
  for (lvid_t l = n_loc; l < g.n_total(); ++l)
    recv_counts[g.owner_of(l)] += read[l];
  plan->recv_displs_ = csr_offsets(std::span<const std::uint64_t>(recv_counts));
  std::vector<std::uint64_t> cursor(plan->recv_displs_.begin(),
                                    plan->recv_displs_.end() - 1);
  plan->recv_local_.resize(plan->recv_displs_.back());
  std::vector<gvid_t> want(plan->recv_local_.size());
  for (lvid_t l = n_loc; l < g.n_total(); ++l) {
    if (!read[l]) continue;
    const std::uint64_t at = cursor[g.owner_of(l)]++;
    plan->recv_local_[at] = l;
    want[at] = g.global_id(l);
  }

  // ---- Ask the owners: the ids each rank receives are its send queue. ----
  std::vector<std::uint64_t>& send_counts = plan->send_counts_;
  const std::vector<gvid_t> asked =
      comm.alltoallv<gvid_t>(want, recv_counts, &send_counts);
  plan->send_displs_ = csr_offsets(std::span<const std::uint64_t>(send_counts));
  plan->send_local_.resize(asked.size());
  for (int r = 0; r < p; ++r) {
    // Sparse rounds address slots with a uint32; a segment lists distinct
    // local ids, so it cannot be larger, but keep the invariant explicit.
    HG_CHECK(send_counts[r] <= std::numeric_limits<std::uint32_t>::max());
    for (std::uint64_t i = plan->send_displs_[r];
         i < plan->send_displs_[r + 1]; ++i) {
      const lvid_t l = g.owned_local(asked[i]);
      HG_CHECK_MSG(l != kNullLvid,
                   "ghost plan: rank " << r << " asked rank " << me
                                       << " for vertex " << asked[i]
                                       << ", which rank " << me
                                       << " does not own as a local");
      plan->send_local_[i] = l;
    }
  }

  // Fixed chunk grid over the retained slots: the sparse count/pack passes
  // key their cursors by chunk id, so the wire payload is independent of
  // the pool width (see exchange_sparse).
  plan->slot_grid_ = ChunkGrid::items(plan->send_local_.size());
  plan->entries_global_ = comm.allreduce_sum(
      static_cast<std::uint64_t>(plan->send_local_.size()));
  plan->n_loc_ = n_loc;
  plan->n_total_ = g.n_total();
  return plan;
}

std::uint64_t GhostPlan::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(send_local_) + bytes(send_counts_) + bytes(send_displs_) +
         bytes(recv_local_) + bytes(recv_displs_) + bytes(recv_counts_) +
         slot_grid_.size() * sizeof(Chunk);
}

GhostExchange::GhostExchange(const DistGraph& g, Communicator& comm,
                             Adjacency adj, ThreadPool* pool)
    : GhostExchange(g.ghost_plan(comm, adj), pool) {}

GhostExchange::GhostExchange(std::shared_ptr<const GhostPlan> plan,
                             ThreadPool* pool)
    : plan_(std::move(plan)),
      dirty_(plan_->n_loc_, 0),
      chg_counts_(plan_->send_counts_.size(), 0),
      pool_(pool),
      pf_(pool) {}

std::shared_ptr<const GhostPlan> DistGraph::ghost_plan(Communicator& comm,
                                                       Adjacency adj) const {
  static_assert(static_cast<std::size_t>(Adjacency::kBoth) + 1 ==
                std::tuple_size_v<decltype(ghost_plans_)>);
  std::shared_ptr<const GhostPlan>& slot =
      ghost_plans_[static_cast<std::size_t>(adj)];
  // Every rank holds the same cache state at the same point of the
  // collective sequence, so the first request builds on all ranks at once.
  if (!slot) slot = GhostPlan::build(*this, comm, adj);
  return slot;
}

std::uint64_t DistGraph::ghost_plan_bytes() const {
  std::uint64_t n = 0;
  for (const auto& plan : ghost_plans_)
    if (plan) n += plan->memory_bytes();
  return n;
}

std::uint64_t GhostExchange::count_changed(ThreadPool& tp) {
  const std::size_t p = plan_->send_counts_.size();
  const std::size_t nc = plan_->slot_grid_.size();
  chg_chunk_counts_.resize(nc * p);
  chg_chunk_base_.resize(nc * p);
  // Pass 1 of the count/fill scheme: per-chunk per-destination dirty counts
  // over the fixed slot grid.  Each chunk writes only its own row, so any
  // thread may run any chunk.
  tp.for_chunks(plan_->slot_grid_,
                [&](unsigned, std::uint64_t c, const Chunk& ck) {
                  std::uint64_t* counts = &chg_chunk_counts_[c * p];
                  std::fill(counts, counts + p, 0);
                  std::size_t d = dest_of_slot(ck.begin);
                  for (std::uint64_t i = ck.begin; i < ck.end; ++i) {
                    while (i >= plan_->send_displs_[d + 1]) ++d;
                    counts[d] += dirty_[plan_->send_local_[i]];
                  }
                });
  // Serial fold in chunk order: per-destination totals, then each chunk's
  // pack cursor base (sdispl[d] + all lower chunks' counts in d).
  std::uint64_t total = 0;
  std::fill(chg_counts_.begin(), chg_counts_.end(), 0);
  for (std::size_t c = 0; c < nc; ++c)
    for (std::size_t d = 0; d < p; ++d) {
      chg_chunk_base_[c * p + d] = chg_counts_[d];
      chg_counts_[d] += chg_chunk_counts_[c * p + d];
      total += chg_chunk_counts_[c * p + d];
    }
  const std::vector<std::uint64_t> sdispl =
      csr_offsets(std::span<const std::uint64_t>(chg_counts_));
  for (std::size_t c = 0; c < nc; ++c)
    for (std::size_t d = 0; d < p; ++d) chg_chunk_base_[c * p + d] += sdispl[d];
  return total;
}

void GhostExchange::clear_dirty(ThreadPool& tp) {
  tp.for_ranges(0, dirty_.size(),
                [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                  std::fill(dirty_.begin() + static_cast<std::ptrdiff_t>(lo),
                            dirty_.begin() + static_cast<std::ptrdiff_t>(hi),
                            std::uint8_t{0});
                });
}

}  // namespace hpcgraph::dgraph
