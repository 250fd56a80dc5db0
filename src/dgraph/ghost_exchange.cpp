#include "dgraph/ghost_exchange.hpp"

#include <limits>

#include "util/prefix_sum.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph::dgraph {

using parcomm::Communicator;

std::shared_ptr<const GhostPlan> GhostPlan::build(const DistGraph& g,
                                                  Communicator& comm,
                                                  Adjacency adj,
                                                  ThreadPool* pool) {
  obs::Span plan_span(obs::span_name::kGhostPlan);
  const int p = comm.size();
  const int me = comm.rank();
  HG_CHECK_MSG(p == g.nranks() && me == g.rank(),
               "ghost plan: communicator rank " << me << "/" << p
                   << " does not match the graph's " << g.rank() << "/"
                   << g.nranks());
  PoolFallback pf(pool);
  ThreadPool& tp = pf.get();
  const unsigned nt = tp.num_threads();
  std::shared_ptr<GhostPlan> plan(new GhostPlan);
  std::vector<std::uint64_t>& send_counts = plan->send_counts_;
  std::vector<lvid_t>& send_local = plan->send_local_;

  // Whether u (a local-or-ghost id adjacent to v) marks v as needed by u's
  // owner, per the requested direction.
  const auto scan_vertex = [&](lvid_t v, auto&& mark) {
    if (adj == Adjacency::kOut || adj == Adjacency::kBoth)
      for (const lvid_t u : g.out_neighbors(v))
        if (g.is_ghost(u)) mark(g.owner_of(u));
    if (adj == Adjacency::kIn || adj == Adjacency::kBoth)
      for (const lvid_t u : g.in_neighbors(v))
        if (g.is_ghost(u)) mark(g.owner_of(u));
  };

  // ---- Pass 1: count (v, task) pairs (Algorithm 1 lines 4-11). ----
  std::vector<std::vector<std::uint64_t>> tcounts(
      nt, std::vector<std::uint64_t>(p, 0));
  std::vector<std::vector<std::uint32_t>> tmarked(
      nt, std::vector<std::uint32_t>(p, 0));
  tp.for_range(0, g.n_loc(), [&](unsigned tid, std::uint64_t lo,
                                 std::uint64_t hi) {
    auto& counts = tcounts[tid];
    auto& marked = tmarked[tid];
    for (std::uint64_t v = lo; v < hi; ++v) {
      const std::uint32_t epoch = static_cast<std::uint32_t>(v) + 1;
      scan_vertex(static_cast<lvid_t>(v), [&](int t) {
        if (t == me || marked[t] == epoch) return;
        marked[t] = epoch;
        ++counts[t];
      });
    }
  });

  send_counts.assign(p, 0);
  for (unsigned t = 0; t < nt; ++t)
    for (int r = 0; r < p; ++r) send_counts[r] += tcounts[t][r];

  // ---- Pass 2: fill the retained queue (Algorithm 3 thread queuing). ----
  struct Slot {
    gvid_t gid;
    lvid_t lid;
  };
  MultiQueue<Slot> q(send_counts);
  tp.for_range(0, g.n_loc(), [&](unsigned tid, std::uint64_t lo,
                                 std::uint64_t hi) {
    MultiQueue<Slot>::Sink sink(q);
    auto& marked = tmarked[tid];
    std::fill(marked.begin(), marked.end(), 0);
    for (std::uint64_t v = lo; v < hi; ++v) {
      const std::uint32_t epoch = static_cast<std::uint32_t>(v) + 1;
      const lvid_t lv = static_cast<lvid_t>(v);
      scan_vertex(lv, [&](int t) {
        if (t == me || marked[t] == epoch) return;
        marked[t] = epoch;
        sink.push(static_cast<std::uint32_t>(t),
                  Slot{g.global_id(lv), lv});
      });
    }
  });
  HG_CHECK(q.complete());

  // Split the queue into the retained local-id array and the one-shot
  // global-id payload for the initial exchange.
  send_local.resize(q.total());
  std::vector<gvid_t> send_gids(q.total());
  {
    const auto& buf = q.buffer();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      send_local[i] = buf[i].lid;
      send_gids[i] = buf[i].gid;
    }
  }
  plan->send_displs_ =
      csr_offsets(std::span<const std::uint64_t>(send_counts));
  HG_CHECK_MSG(send_counts[me] == 0, "retained queue must skip self");

  // Sparse rounds address slots with a uint32; a per-destination segment
  // larger than that cannot happen with lvid_t local ids, but keep the
  // invariant explicit.
  for (int r = 0; r < p; ++r)
    HG_CHECK(send_counts[r] <= std::numeric_limits<std::uint32_t>::max());

  // ---- Initial id exchange; receivers decode to ghost ids once. ----
  std::vector<std::uint64_t> rcounts;
  const std::vector<gvid_t> recv_gids =
      comm.alltoallv<gvid_t>(send_gids, send_counts, &rcounts);
  plan->recv_displs_ = csr_offsets(std::span<const std::uint64_t>(rcounts));
  plan->recv_counts_ = std::move(rcounts);
  plan->recv_local_.resize(recv_gids.size());
  for (std::size_t i = 0; i < recv_gids.size(); ++i) {
    const lvid_t l = g.local_id_checked(recv_gids[i]);
    HG_CHECK_MSG(g.is_ghost(l), "ghost exchange received a non-ghost vertex");
    plan->recv_local_[i] = l;
  }

  // Fixed chunk grid over the retained slots: the sparse count/pack passes
  // key their cursors by chunk id, so the wire payload is independent of
  // schedule and thread count (see exchange_sparse).
  plan->slot_grid_ = ChunkGrid::items(send_local.size());
  plan->entries_global_ =
      comm.allreduce_sum(static_cast<std::uint64_t>(send_local.size()));
  plan->n_loc_ = g.n_loc();
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
    : GhostExchange(g.ghost_plan(comm, adj, pool), pool) {}

GhostExchange::GhostExchange(std::shared_ptr<const GhostPlan> plan,
                             ThreadPool* pool)
    : plan_(std::move(plan)),
      dirty_(plan_->n_loc_, 0),
      chg_counts_(plan_->send_counts_.size(), 0),
      pool_(pool),
      pf_(pool) {}

std::shared_ptr<const GhostPlan> DistGraph::ghost_plan(Communicator& comm,
                                                       Adjacency adj,
                                                       ThreadPool* pool) const {
  static_assert(static_cast<std::size_t>(Adjacency::kBoth) + 1 ==
                std::tuple_size_v<decltype(ghost_plans_)>);
  std::shared_ptr<const GhostPlan>& slot =
      ghost_plans_[static_cast<std::size_t>(adj)];
  // Every rank holds the same cache state at the same point of the
  // collective sequence, so the first request builds on all ranks at once.
  if (!slot) slot = GhostPlan::build(*this, comm, adj, pool);
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
  tp.for_chunks(plan_->slot_grid_, sched_,
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
  tp.for_range(0, dirty_.size(), sched_,
               [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                 std::fill(dirty_.begin() + static_cast<std::ptrdiff_t>(lo),
                           dirty_.begin() + static_cast<std::ptrdiff_t>(hi),
                           std::uint8_t{0});
               });
}

}  // namespace hpcgraph::dgraph
