#pragma once
/// \file ghost_exchange.hpp
/// Boundary-vertex value exchange with retained queues — the communication
/// pattern shared by all "PageRank-like" analytics (§III-D1).
///
/// Setup (once per graph and adjacency) yields the (task, vertex) pairs of
/// Algorithm 1 lines 5–11 — task t holds v as a ghost and reads it — from
/// the reader's side: each rank lists the ghosts it reads under the
/// adjacency (all of them, or those of one edge array), grouped by owner in
/// ghost-id order; that is its retained receive map (`recv_local_`).  One
/// exchange ships their global ids to the owners, and each owner translates
/// the ids it is asked for into its *retained* send queue of local ids
/// (`DistGraph::owned_local`: `v − lo` on block partitions, one hash probe
/// otherwise), so later iterations never touch the hash map.  No rank scans
/// its adjacency to find who reads its vertices.  That immutable result is
/// a `GhostPlan`.
/// The graph owns at most one plan per Adjacency, built on first use and
/// shared by every analytic, engine run and BFS call on it
/// (`DistGraph::ghost_plan`), so the paper's "retain, don't rebuild" holds
/// across analytics, not only across iterations.  A `GhostExchange` is the
/// cheap per-run half over a shared plan: a retained send buffer and a
/// retained receive buffer, each shared by both directions and every value
/// type, so the payload arrays are allocated in a run's first rounds and
/// reused by every later one — the receive side of the paper's retained
/// queues (`alltoallv` receives into a caller's buffer, as MPI's does).
///
/// Per iteration: only the value payload is refreshed and exchanged — the
/// paper's two optimizations verbatim ("we first cut the size of data being
/// sent in half ... by retaining the vertex queue and only updating and
/// sending the label queues"; "By retaining queues, we also avoid having to
/// completely rebuild them on each iteration").  Every forward round packs
/// the value of every retained slot, ships the payload in one alltoallv and
/// scatters it into the ghost slots, whatever changed (DESIGN.md §4,
/// decision 7, says why no change set is tracked).
///
/// ## Reverse (reduce) exchange
///
/// The forward exchange *overwrites* each ghost slot with the owner's
/// value.  `reduce` runs the retained queues *backwards*: every rank ships
/// its ghost slots' values to the owners, and each owner folds the
/// (possibly many, one per holding rank) incoming values into its own slot
/// with `combine` — the OR-merge of the bit-parallel multi-source BFS
/// engine's pushed visit masks.  Because the reverse payload per source
/// rank is exactly what that rank originally received at setup, the
/// receive side aligns 1:1 with the retained send queue — no extra plan
/// state, no hash map.
///
/// Both directions pack in parallel on the pool passed to the exchange, and
/// the forward scatter runs on it too.  Per-rank observability lands in
/// CommStats (`ghost_rounds_dense`, `ghost_rounds_reduce`) and in the
/// `ghost.plan`, `ghost.pack`, `ghost.scatter` and `ghost.reduce` spans.
///
/// An ablation flag rebuilds queues every iteration instead, through the
/// same build function but bypassing the graph's cache (exchange_fresh), so
/// the benefit is measurable (bench/micro_primitives).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dgraph/dist_graph.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/parallel_for.hpp"

namespace hpcgraph::dgraph {

/// Which adjacency directions determine "task t needs vertex v".  Declared
/// opaquely in dist_graph.hpp, which caches one GhostPlan per value.
enum class Adjacency {
  kOut,     ///< ghosts of out-edges only (directed value flow, e.g. PageRank)
  kIn,      ///< ghosts of in-edges only
  kBoth,    ///< undirected flow (Label Propagation, WCC coloring)
};

/// The immutable half of a retained-queue exchange: per-destination send
/// queues of local ids and the per-source receive map to ghost ids.  A pure
/// function of (graph, adjacency): every segment lists its vertices in
/// increasing global-id order.
class GhostPlan {
 public:
  /// Collective.  The one plan build, under a `ghost.plan` span: each rank
  /// marks the ghosts it reads (no pass for kBoth, one pass over the in-
  /// or out-edge array for kOut / kIn), sends their global ids to their
  /// owners in one alltoallv, and translates the ids it is asked for into
  /// its send queue.  A requested id this rank does not own as a local is
  /// a CheckError naming both ranks.
  /// Analytics get the graph's cached plan through DistGraph::ghost_plan
  /// instead; calling this directly builds a fresh, uncached plan (the
  /// rebuild ablation).
  /// \param adj  The direction values flow in: kOut ships a vertex to the
  ///             owners of its out-neighbours, kIn to those of its
  ///             in-neighbours, kBoth to both.
  static std::shared_ptr<const GhostPlan> build(const DistGraph& g,
                                                parcomm::Communicator& comm,
                                                Adjacency adj);

  /// The retained queues: local ids sent to each task, in segments of
  /// send_counts()[task] entries in task order, and the ghost ids received
  /// from each task, in segments of recv_counts()[task].
  std::span<const lvid_t> send_local() const { return send_local_; }
  std::span<const std::uint64_t> send_counts() const { return send_counts_; }
  std::span<const lvid_t> recv_local() const { return recv_local_; }
  std::span<const std::uint64_t> recv_counts() const { return recv_counts_; }

  /// Number of (vertex, task) pairs sent each iteration.
  std::uint64_t send_entries() const { return send_local_.size(); }
  /// Number of ghost updates received each iteration.
  std::uint64_t recv_entries() const { return recv_local_.size(); }
  /// Resident bytes of the plan's arrays.
  std::uint64_t memory_bytes() const;

 private:
  friend class GhostExchange;
  GhostPlan() = default;

  std::vector<lvid_t> send_local_;          // retained vertex queue (local ids)
  std::vector<std::uint64_t> send_counts_;  // per-task counts
  std::vector<lvid_t> recv_local_;          // retained receive targets
  std::vector<std::uint64_t> recv_counts_;  // per-source counts
  std::size_t n_total_ = 0;                 // locals + ghosts, for checking
};

/// Retained-queue ghost exchange for per-vertex values of type T: the
/// per-run state over a shared GhostPlan.
class GhostExchange {
 public:
  /// Exchange over the graph's cached plan for `adj`.  Collective only when
  /// it builds that plan, on the graph's first request for `adj`; every
  /// rank reaches it at the same point of the collective sequence.
  /// \param pool  Worker pool for the per-iteration pack/unpack (null =
  ///              inline single-thread execution).
  GhostExchange(const DistGraph& g, parcomm::Communicator& comm,
                Adjacency adj = Adjacency::kBoth, ThreadPool* pool = nullptr);
  /// Exchange over an existing plan; no communication.
  explicit GhostExchange(std::shared_ptr<const GhostPlan> plan,
                         ThreadPool* pool = nullptr);

  /// Collective.  Push current values of boundary local vertices to the
  /// ranks holding them as ghosts: the value of every retained slot is
  /// packed, shipped and scattered, so vals[ghost] is overwritten with the
  /// owner's vals[vertex].  `vals` must have length >= g.n_total().
  ///
  /// If `changed_ghosts` is non-null it receives the local ids of ghost
  /// slots whose stored value differed from the incoming one (compared
  /// with operator!=), in receive-map order at every pool width.
  template <typename T>
  void exchange(std::span<T> vals, parcomm::Communicator& comm,
                std::vector<lvid_t>* changed_ghosts = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    HG_CHECK_MSG(vals.size() >= plan_->n_total_,
                 "value array must cover locals + ghosts");
    ThreadPool& tp = pf_.get();
    if (changed_ghosts) changed_ghosts->clear();

    const std::span<T> send =
        items<T>(payload_bytes_, plan_->send_local_.size());
    {
      obs::Span sp(obs::span_name::kGhostPack);
      tp.for_ranges(0, send.size(),
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i)
                        send[i] = vals[plan_->send_local_[i]];
                    });
    }
    obs::counter(obs::counter_name::kWireBytes,
                 static_cast<double>(send.size_bytes()));
    const std::span<T> recv =
        items<T>(recv_bytes_, plan_->recv_local_.size());
    comm.alltoallv<T>(send, plan_->send_counts_, recv, nullptr, pool_);
    {
      obs::Span sp(obs::span_name::kGhostScatter);
      // Race-free: each ghost slot has exactly one owner, so it appears at
      // most once in the receive map.
      if (!changed_ghosts) {
        tp.for_ranges(0, recv.size(),
                      [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                        for (std::uint64_t i = lo; i < hi; ++i)
                          vals[plan_->recv_local_[i]] = recv[i];
                      });
      } else {
        // Per-chunk changed lists concatenated in chunk order.
        const ChunkGrid grid = span_grid(recv.size(), {}, tp.num_threads());
        std::vector<std::vector<lvid_t>> cchg(grid.size());
        tp.for_chunks(grid, [&](unsigned, std::uint64_t c, const Chunk& ck) {
          auto& out = cchg[c];
          for (std::uint64_t i = ck.begin; i < ck.end; ++i) {
            const lvid_t l = plan_->recv_local_[i];
            if (vals[l] != recv[i]) out.push_back(l);
            vals[l] = recv[i];
          }
        });
        concat_chunk_lists(cchg, *changed_ghosts);
      }
    }
    ++comm.stats().ghost_rounds_dense;
  }

  /// Collective.  Reverse flow: every rank sends the current value of each
  /// of its *ghost* slots back to the vertex's owner; the owner folds all
  /// incoming replica values into its own slot,
  ///
  ///     vals[v] = combine(vals[v], replica_value)   (once per holding rank)
  ///
  /// in source-rank order.  This is the OR-aggregation step of the
  /// bit-parallel MS-BFS frontier push (ghost-accumulated visit masks merge
  /// at the owner); with `plus` it is a ghost-side partial-sum reduction.
  template <typename T, typename F>
  void reduce(std::span<T> vals, parcomm::Communicator& comm, F&& combine) {
    static_assert(std::is_trivially_copyable_v<T>);
    HG_CHECK_MSG(vals.size() >= plan_->n_total_,
                 "value array must cover locals + ghosts");
    ThreadPool& tp = pf_.get();

    const std::span<T> send =
        items<T>(payload_bytes_, plan_->recv_local_.size());
    {
      obs::Span sp(obs::span_name::kGhostPack);
      tp.for_ranges(0, send.size(),
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i)
                        send[i] = vals[plan_->recv_local_[i]];
                    });
    }
    obs::counter(obs::counter_name::kWireBytes,
                 static_cast<double>(send.size_bytes()));
    // Each source rank returns exactly the segment this rank sent it at
    // setup, so `back` aligns 1:1 with the retained send queue.
    const std::span<T> back =
        items<T>(recv_bytes_, plan_->send_local_.size());
    comm.alltoallv<T>(send, plan_->recv_counts_, back, nullptr, pool_);
    {
      obs::Span sp(obs::span_name::kGhostReduce);
      // Serial fold: a boundary vertex retained for several destination
      // tasks occupies one slot per task, so parallel segment processing
      // would race on vals[v].
      for (std::size_t i = 0; i < back.size(); ++i) {
        T& dst = vals[plan_->send_local_[i]];
        dst = combine(dst, back[i]);
      }
    }
    ++comm.stats().ghost_rounds_reduce;
  }

  /// The shared plan this exchange runs over.
  const GhostPlan& plan() const { return *plan_; }

 private:
  /// The first n items of type T in `bytes`, which only ever grows: once
  /// a run has shipped its largest payload through a buffer, no later round
  /// allocates, zero-fills or frees it, whatever the type or direction.
  template <typename T>
  static std::span<T> items(std::vector<std::uint8_t>& bytes, std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    if (bytes.size() < n * sizeof(T)) bytes.resize(n * sizeof(T));
    return {reinterpret_cast<T*>(bytes.data()), n};
  }

  std::shared_ptr<const GhostPlan> plan_;   // retained queues (shared)
  // The retained payloads, one per side and shared by both directions:
  // this rank's packed values and what the round receives.
  std::vector<std::uint8_t> payload_bytes_;
  std::vector<std::uint8_t> recv_bytes_;
  ThreadPool* pool_ = nullptr;
  PoolFallback pf_{nullptr};                // persistent pool-or-inline
};

/// Collective.  One-shot ghost refresh through a *freshly built*, uncached
/// plan — the `retain_queues == false` ablation path shared by the
/// engine-ported analytics.  Its payload buffers are as fresh as its plan:
/// the ablation retains nothing.  `changed_ghosts`, if non-null, receives the
/// ghost slots whose value changed, as from GhostExchange::exchange, so
/// flip-driven analytics (k-core) stay correct under the ablation.
template <typename T>
void exchange_fresh(const DistGraph& g, parcomm::Communicator& comm,
                    Adjacency adj, ThreadPool* pool, std::span<T> vals,
                    std::vector<lvid_t>* changed_ghosts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  GhostExchange fresh(GhostPlan::build(g, comm, adj), pool);
  fresh.exchange<T>(vals, comm, changed_ghosts);
}

}  // namespace hpcgraph::dgraph
