#pragma once
/// \file ghost_exchange.hpp
/// Boundary-vertex value exchange with retained queues — the communication
/// pattern shared by all "PageRank-like" analytics (§III-D1) — extended with
/// a change-tracked adaptive sparse/dense wire format.
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
/// cheap per-run half over a shared plan: dirty flags, the payload buffer
/// and the sparse cursors.
///
/// Per iteration: only the value payload is refreshed and exchanged — the
/// paper's two optimizations verbatim ("we first cut the size of data being
/// sent in half ... by retaining the vertex queue and only updating and
/// sending the label queues"; "By retaining queues, we also avoid having to
/// completely rebuild them on each iteration").
///
/// ## Delta exchange (change tracking)
///
/// Convergent analytics (Label Propagation, WCC coloring, k-core peeling)
/// stop changing most vertices after a handful of rounds, yet the dense
/// exchange keeps shipping every boundary vertex every iteration.  The
/// delta protocol extends the retained-queue idea:
///
///   * The owner side keeps a **dirty flag per local vertex**
///     (`mark_changed` / `mark_changed_range` / `mark_all_changed`), set by
///     the analytic as it writes vertices.  Flags are one byte each so
///     worker threads updating disjoint vertices can mark without atomics.
///   * A **sparse round** ships `(uint32 slot, T value)` pairs for marked
///     slots only, where `slot` is the index of the vertex inside the dense
///     (source→destination) retained segment.  Receivers resolve the pair
///     against the retained `recv_local_` map via the per-source segment
///     offsets captured at setup, so the hash map stays cold.
///   * A **dense round** ships the full payload exactly as before.
///   * `GhostMode::kAdaptive` picks the cheaper format **globally** each
///     call: one `allreduce` sums the per-rank changed-slot counts and every
///     rank evaluates the same exact byte-cost predicate
///
///         changed_global * sizeof(SlotVal<T>)  <  entries_global * sizeof(T)
///
///     so sparse wins below a sizeof(T)/sizeof(SlotVal<T>) changed
///     fraction.  Because the decision is a pure function of allreduced
///     values, all ranks take the same branch and collective lockstep is
///     preserved.
///
/// Sparse correctness contract: a receiver applies only the transmitted
/// pairs, so every *unmarked* vertex's ghost replica must already mirror the
/// owner's value.  That holds whenever (a) ghost slots are initialised to
/// the same pure function of the global id as owner slots (all our analytics
/// do this), and (b) every subsequent write to a local vertex is marked
/// before the next exchange.  Every exchange() call — any mode — clears the
/// dirty set on return.
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
/// Both wire formats pack, unpack and scatter in parallel on the pool passed
/// to the exchange (pass deterministically: the sparse payload is ordered by
/// slot regardless of thread count).  Per-rank observability lands in
/// CommStats (`ghost_rounds_dense/sparse/reduce`, `ghost_bytes_saved`) and
/// in the `ghost.plan`, `ghost.pack`, `ghost.scatter` and `ghost.reduce`
/// spans.
///
/// An ablation flag rebuilds queues every iteration instead, through the
/// same build function but bypassing the graph's cache (exchange_fresh), so
/// the benefit is measurable (bench/micro_primitives);
/// bench/ablation_optimizations section E measures dense-always vs
/// sparse-always vs adaptive.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dgraph/dist_graph.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/parallel_for.hpp"
#include "util/prefix_sum.hpp"

namespace hpcgraph::dgraph {

/// Which adjacency directions determine "task t needs vertex v".  Declared
/// opaquely in dist_graph.hpp, which caches one GhostPlan per value.
enum class Adjacency {
  kOut,     ///< ghosts of out-edges only (directed value flow, e.g. PageRank)
  kIn,      ///< ghosts of in-edges only
  kBoth,    ///< undirected flow (Label Propagation, WCC coloring)
};

/// Wire-format policy for one exchange round.  Collective-uniform: every
/// rank must pass the same mode to the same exchange call.
enum class GhostMode : std::uint8_t {
  kDense,     ///< full payload for every retained slot (the classic format)
  kSparse,    ///< (slot, value) pairs for change-marked slots only
  kAdaptive,  ///< per-round global byte-cost choice between the two
};

inline const char* ghost_mode_label(GhostMode m) {
  switch (m) {
    case GhostMode::kDense: return "dense";
    case GhostMode::kSparse: return "sparse";
    default: return "adaptive";
  }
}

/// Sparse wire record: index within the dense (source -> destination)
/// retained segment, plus the new value.
template <typename T>
struct SlotVal {
  std::uint32_t slot;
  T value;
};

/// The immutable half of a retained-queue exchange: per-destination send
/// queues of local ids, the per-source receive map to ghost ids, the fixed
/// slot chunk grid and the allreduced entry count.  A pure function of
/// (graph, adjacency): every segment lists its vertices in increasing
/// global-id order.
class GhostPlan {
 public:
  /// Collective.  The one plan build, under a `ghost.plan` span: each rank
  /// marks the ghosts it reads (no pass for kBoth, one pass over the in-
  /// or out-edge array for kOut / kIn), sends their global ids to their
  /// owners in one alltoallv, and translates the ids it is asked for into
  /// its send queue; an allreduce then sums the entries.  A requested id
  /// this rank does not own as a local is a CheckError naming both ranks.
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

  /// Number of (vertex, task) pairs sent each dense iteration.
  std::uint64_t send_entries() const { return send_local_.size(); }
  /// Number of ghost updates received each dense iteration.
  std::uint64_t recv_entries() const { return recv_local_.size(); }
  /// Global number of retained queue entries (allreduced at build).
  std::uint64_t entries_global() const { return entries_global_; }
  /// Resident bytes of the plan's arrays.
  std::uint64_t memory_bytes() const;

 private:
  friend class GhostExchange;
  GhostPlan() = default;

  std::vector<lvid_t> send_local_;          // retained vertex queue (local ids)
  std::vector<std::uint64_t> send_counts_;  // per-task counts
  std::vector<std::uint64_t> send_displs_;  // CSR offsets of send segments
  std::vector<lvid_t> recv_local_;          // retained receive targets
  std::vector<std::uint64_t> recv_displs_;  // CSR offsets per source task
  std::vector<std::uint64_t> recv_counts_;  // per-source counts (reduce path)
  ChunkGrid slot_grid_;                     // fixed grid over retained slots
  std::uint64_t entries_global_ = 0;        // allreduced send entries
  lvid_t n_loc_ = 0;                        // dirty-flag extent
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

  // ---- Change tracking (owner side). ----

  /// Record that local vertex v's value changed since the last exchange.
  /// Safe to call concurrently for distinct vertices (one byte per vertex).
  void mark_changed(lvid_t v) {
    HG_DCHECK(v < dirty_.size());
    dirty_[v] = 1;
  }
  /// Mark every local vertex in [lo, hi) changed.
  void mark_changed_range(lvid_t lo, lvid_t hi) {
    HG_DCHECK(lo <= hi && hi <= dirty_.size());
    std::fill(dirty_.begin() + lo, dirty_.begin() + hi, std::uint8_t{1});
  }
  void mark_all_changed() {
    std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});
  }
  /// Number of currently-marked local vertices (testing/diagnostics).
  std::uint64_t marked_count() const {
    std::uint64_t n = 0;
    for (const std::uint8_t d : dirty_) n += d;
    return n;
  }

  // ---- Per-iteration exchange. ----

  /// Collective.  Push current values of boundary local vertices to the
  /// ranks holding them as ghosts: vals[ghost] is overwritten with the
  /// owner's vals[vertex].  `vals` must have length >= g.n_total().
  ///
  /// `mode` selects the wire format (see GhostMode; sparse/adaptive consume
  /// the dirty set, and every call clears it).  If `changed_ghosts` is
  /// non-null it receives the local ids of ghost slots whose stored value
  /// actually differed from the incoming one (compared with operator!=) —
  /// the same *set* in every mode; the order depends on the mode but not on
  /// the pool width.
  template <typename T>
  void exchange(std::span<T> vals, parcomm::Communicator& comm,
                GhostMode mode = GhostMode::kDense,
                std::vector<lvid_t>* changed_ghosts = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    HG_CHECK_MSG(vals.size() >= plan_->n_total_,
                 "value array must cover locals + ghosts");
    ThreadPool& tp = pf_.get();
    if (changed_ghosts) changed_ghosts->clear();

    bool sparse = false;
    std::uint64_t changed_local = 0;
    if (mode != GhostMode::kDense) {
      changed_local = count_changed(tp);
      if (mode == GhostMode::kSparse) {
        sparse = true;
      } else {
        const std::uint64_t changed_global = comm.allreduce_sum(changed_local);
        sparse = changed_global * sizeof(SlotVal<T>) <
                 plan_->entries_global_ * sizeof(T);
      }
    }

    if (sparse) {
      exchange_sparse(vals, comm, tp, changed_local, changed_ghosts);
    } else {
      exchange_dense(vals, comm, tp, changed_ghosts);
    }
    clear_dirty(tp);
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

    payload_bytes_.resize(plan_->recv_local_.size() * sizeof(T));
    T* send = reinterpret_cast<T*>(payload_bytes_.data());
    {
      obs::Span sp(obs::span_name::kGhostPack);
      tp.for_ranges(0, plan_->recv_local_.size(),
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i)
                        send[i] = vals[plan_->recv_local_[i]];
                    });
    }
    obs::counter(obs::counter_name::kWireBytes,
                 static_cast<double>(payload_bytes_.size()));
    const std::vector<T> back = comm.alltoallv<T>(
        {send, plan_->recv_local_.size()}, plan_->recv_counts_, nullptr,
        pool_);
    // Each source rank returns exactly the segment this rank sent it at
    // setup, so `back` aligns 1:1 with the retained send queue.
    HG_DCHECK(back.size() == plan_->send_local_.size());
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
  // Dense round: refresh the full payload queue (ids are retained).
  template <typename T>
  void exchange_dense(std::span<T> vals, parcomm::Communicator& comm,
                      ThreadPool& tp, std::vector<lvid_t>* changed_ghosts) {
    static_assert(std::is_trivially_copyable_v<T>);
    payload_bytes_.resize(plan_->send_local_.size() * sizeof(T));
    T* send = reinterpret_cast<T*>(payload_bytes_.data());
    {
      obs::Span sp(obs::span_name::kGhostPack);
      tp.for_ranges(0, plan_->send_local_.size(),
                    [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
                      for (std::uint64_t i = lo; i < hi; ++i)
                        send[i] = vals[plan_->send_local_[i]];
                    });
    }
    obs::counter(obs::counter_name::kWireBytes,
                 static_cast<double>(payload_bytes_.size()));
    const std::vector<T> recv = comm.alltoallv<T>(
        {send, plan_->send_local_.size()}, plan_->send_counts_, nullptr,
        pool_);
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

  // Sparse round: ship (slot, value) pairs for the `changed_local` marked
  // slots counted by count_changed() (which also filled the per-chunk
  // counts and cursor bases over the fixed slot grid).
  template <typename T>
  void exchange_sparse(std::span<T> vals, parcomm::Communicator& comm,
                       ThreadPool& tp, std::uint64_t changed_local,
                       std::vector<lvid_t>* changed_ghosts) {
    using Pair = SlotVal<T>;
    static_assert(std::is_trivially_copyable_v<Pair>);
    const std::size_t p = plan_->send_counts_.size();
    payload_bytes_.resize(changed_local * sizeof(Pair));
    Pair* pairs = reinterpret_cast<Pair*>(payload_bytes_.data());

    // Pack: pass 2 of the count/fill scheme over the fixed slot grid.  Chunk
    // c's write cursor in destination d starts at chg_chunk_base_[c*p+d]
    // (sdispl[d] plus every lower chunk's count, precomputed serially by
    // count_changed), so pairs land slot-ordered per destination regardless
    // of which thread runs which chunk — the wire payload is bit-identical
    // at every pool width.
    {
      obs::Span sp(obs::span_name::kGhostPack);
      tp.for_chunks(plan_->slot_grid_,
                    [&](unsigned, std::uint64_t c, const Chunk& ck) {
                      std::vector<std::uint64_t> cur(
                          chg_chunk_base_.begin() +
                              static_cast<std::ptrdiff_t>(c * p),
                          chg_chunk_base_.begin() +
                              static_cast<std::ptrdiff_t>((c + 1) * p));
                      std::size_t d = dest_of_slot(ck.begin);
                      for (std::uint64_t i = ck.begin; i < ck.end; ++i) {
                        while (i >= plan_->send_displs_[d + 1]) ++d;
                        const lvid_t v = plan_->send_local_[i];
                        if (!dirty_[v]) continue;
                        pairs[cur[d]++] = Pair{
                            static_cast<std::uint32_t>(
                                i - plan_->send_displs_[d]),
                            vals[v]};
                      }
                    });
    }

    obs::counter(obs::counter_name::kWireBytes,
                 static_cast<double>(payload_bytes_.size()));
    std::vector<std::uint64_t> rcounts;
    const std::vector<Pair> recv = comm.alltoallv<Pair>(
        {pairs, changed_local}, chg_counts_, &rcounts, pool_);

    // Scatter against the retained receive map: the pair from source s
    // updates recv_local_[recv_displs_[s] + slot] of the plan.
    {
      obs::Span sp(obs::span_name::kGhostScatter);
      const std::vector<std::uint64_t> rdispl =
          csr_offsets(std::span<const std::uint64_t>(rcounts));
      const ChunkGrid grid = span_grid(recv.size(), {}, tp.num_threads());
      std::vector<std::vector<lvid_t>> cchg(changed_ghosts ? grid.size() : 0);
      tp.for_chunks(grid, [&](unsigned, std::uint64_t c, const Chunk& ck) {
        std::size_t s =
            static_cast<std::size_t>(
                std::upper_bound(rdispl.begin(), rdispl.end(), ck.begin) -
                rdispl.begin()) -
            1;
        for (std::uint64_t j = ck.begin; j < ck.end; ++j) {
          while (j >= rdispl[s + 1]) ++s;
          const Pair& pr = recv[j];
          const std::uint64_t pos = plan_->recv_displs_[s] + pr.slot;
          HG_DCHECK(pos < plan_->recv_displs_[s + 1]);
          const lvid_t l = plan_->recv_local_[pos];
          if (changed_ghosts && vals[l] != pr.value) cchg[c].push_back(l);
          vals[l] = pr.value;
        }
      });
      // Chunk-order concatenation keeps the reported list deterministic.
      if (changed_ghosts) concat_chunk_lists(cchg, *changed_ghosts);
    }

    auto& st = comm.stats();
    ++st.ghost_rounds_sparse;
    st.ghost_bytes_saved +=
        static_cast<std::int64_t>(plan_->send_local_.size() * sizeof(T)) -
        static_cast<std::int64_t>(changed_local * sizeof(Pair));
  }

  /// Destination task owning retained slot i (segments are contiguous).
  std::size_t dest_of_slot(std::uint64_t i) const {
    const std::vector<std::uint64_t>& displs = plan_->send_displs_;
    return static_cast<std::size_t>(
               std::upper_bound(displs.begin(), displs.end(), i) -
               displs.begin()) -
           1;
  }

  /// Count dirty slots per destination, per chunk of the fixed slot grid
  /// (chg_chunk_counts_), fold into chg_counts_ and precompute the pack
  /// cursor bases (chg_chunk_base_); returns the total.  Non-template,
  /// lives in the .cpp.
  std::uint64_t count_changed(ThreadPool& tp);
  void clear_dirty(ThreadPool& tp);

  std::shared_ptr<const GhostPlan> plan_;   // retained queues (shared)
  std::vector<std::uint8_t> payload_bytes_; // reused per-iteration buffer
  std::vector<std::uint8_t> dirty_;         // per local vertex changed flag
  std::vector<std::uint64_t> chg_chunk_counts_;  // [chunk*p + dest] changed
  std::vector<std::uint64_t> chg_chunk_base_;    // [chunk*p + dest] cursors
  std::vector<std::uint64_t> chg_counts_;        // per-dest changed
  ThreadPool* pool_ = nullptr;
  PoolFallback pf_{nullptr};                // persistent pool-or-inline
};

/// Collective.  One-shot ghost refresh through a *freshly built*, uncached
/// plan — the `retain_queues == false` ablation path shared by the
/// engine-ported analytics.  A fresh queue has no change history, so the
/// sparse contract ("every unmarked ghost already mirrors its owner") cannot
/// be certified; the round therefore always goes dense regardless of what
/// mode the caller runs retained exchanges with.  `changed_ghosts`, if non-null, still
/// receives the ghost slots whose value actually changed (dense rounds
/// compute it by comparison), so flip-driven analytics (k-core) stay correct
/// under the ablation.
template <typename T>
void exchange_fresh(const DistGraph& g, parcomm::Communicator& comm,
                    Adjacency adj, ThreadPool* pool, std::span<T> vals,
                    std::vector<lvid_t>* changed_ghosts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  GhostExchange fresh(GhostPlan::build(g, comm, adj), pool);
  fresh.exchange<T>(vals, comm, GhostMode::kDense, changed_ghosts);
}

}  // namespace hpcgraph::dgraph
