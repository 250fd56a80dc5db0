#include "dgraph/ghost_exchange.hpp"

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
  const std::vector<std::uint64_t> recv_displs =
      csr_offsets(std::span<const std::uint64_t>(recv_counts));
  std::vector<std::uint64_t> cursor(recv_displs.begin(), recv_displs.end() - 1);
  plan->recv_local_.resize(recv_displs.back());
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
  plan->send_local_.resize(asked.size());
  std::uint64_t i = 0;
  for (int r = 0; r < p; ++r) {
    for (const std::uint64_t end = i + send_counts[r]; i < end; ++i) {
      const lvid_t l = g.owned_local(asked[i]);
      HG_CHECK_MSG(l != kNullLvid,
                   "ghost plan: rank " << r << " asked rank " << me
                                       << " for vertex " << asked[i]
                                       << ", which rank " << me
                                       << " does not own as a local");
      plan->send_local_[i] = l;
    }
  }
  plan->n_total_ = g.n_total();
  return plan;
}

std::uint64_t GhostPlan::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(send_local_) + bytes(send_counts_) + bytes(recv_local_) +
         bytes(recv_counts_);
}

GhostExchange::GhostExchange(const DistGraph& g, Communicator& comm,
                             Adjacency adj, ThreadPool* pool)
    : GhostExchange(g.ghost_plan(comm, adj), pool) {}

GhostExchange::GhostExchange(std::shared_ptr<const GhostPlan> plan,
                             ThreadPool* pool)
    : plan_(std::move(plan)), pool_(pool), pf_(pool) {}

std::shared_ptr<const GhostPlan> DistGraph::ghost_plan(Communicator& comm,
                                                       Adjacency adj) const {
  static_assert(static_cast<std::size_t>(Adjacency::kBoth) + 1 ==
                std::tuple_size_v<decltype(ghost_plans_)>);
  std::shared_ptr<const GhostPlan>& slot =
      ghost_plans_[static_cast<std::size_t>(adj)];
  // Every rank holds the same cache state at the same point of the
  // collective sequence, so the first request builds on all ranks at once.
  // lint:allow(rank-divergent-collective, flow-path-divergent-collectives: uniform cache state)
  if (!slot) slot = GhostPlan::build(*this, comm, adj);
  return slot;
}

std::uint64_t DistGraph::ghost_plan_bytes() const {
  std::uint64_t n = 0;
  for (const auto& plan : ghost_plans_)
    if (plan) n += plan->memory_bytes();
  return n;
}

}  // namespace hpcgraph::dgraph
