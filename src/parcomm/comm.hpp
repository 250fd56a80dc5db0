#pragma once
/// \file comm.hpp
/// The simulated message-passing runtime: CommWorld spawns N ranks (threads)
/// and Communicator gives each rank the MPI collective subset the paper's
/// algorithms use (Barrier, Alltoall(v), Allreduce, Allgather(v), Bcast,
/// Gatherv, Reduce).
///
/// Substitution note (see DESIGN.md §1): the paper runs MPI across Blue
/// Waters nodes.  Here each rank is an OS thread; ranks share no data except
/// through these collectives, so algorithm code is structured exactly as an
/// MPI program (task-local arrays, explicit send-queue construction, ghost
/// exchange).  All collectives are bulk-synchronous board exchanges:
///
///     post local buffer pointer -> barrier -> copy peers' payload -> barrier
///
/// The second barrier guarantees a sender's buffer is not reused before all
/// receivers have copied, mirroring MPI collective completion semantics.
///
/// Alltoallv has MPI's receive form: the caller passes the buffer the
/// payload lands in, so an exchange that repeats every round (the ghost
/// exchange of the PageRank-like analytics) keeps one buffer and allocates
/// nothing per round.  The form that returns a fresh vector is a wrapper
/// over the same implementation, for one-shot exchanges.
///
/// Usage pattern:
///
///     CommWorld world(16);
///     std::vector<double> result(world.size());
///     world.run([&](Communicator& comm) {
///       ... comm.alltoallv<T>(send, counts, recv) ...
///       result[comm.rank()] = local_answer;   // distinct slot per rank
///     });
///
/// Every collective is *lockstep*: all ranks must call the same collectives
/// in the same order (standard MPI discipline; violations deadlock real MPI
/// and abort this runtime via the barrier).

#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "obs/tracer.hpp"
#include "parcomm/barrier.hpp"
#include "parcomm/comm_stats.hpp"
#include "parcomm/verify.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/prefix_sum.hpp"

// Collective-matching verifier hooks (see verify.hpp / DESIGN.md §8).  With
// PARCOMM_VERIFY on, every public collective gains a defaulted
// std::source_location argument so mismatch reports can name the user's
// call site; with it off the extra parameter and every hook below compile
// away and the signatures are exactly the historical ones.
#if HPCGRAPH_VERIFY_ENABLED
#include <source_location>
#define HPCGRAPH_COLLECTIVE_SITE \
  , std::source_location hg_call_site = std::source_location::current()
#define HPCGRAPH_BARRIER_SITE \
  std::source_location hg_call_site = std::source_location::current()
#define HPCGRAPH_SITE_FWD , hg_call_site
#else
#define HPCGRAPH_COLLECTIVE_SITE
#define HPCGRAPH_BARRIER_SITE
#define HPCGRAPH_SITE_FWD
#endif

namespace hpcgraph::parcomm {

class Communicator;

/// Owns the shared state for one group of ranks and runs SPMD regions.
class CommWorld {
 public:
  /// \param nranks  Number of simulated MPI tasks (>= 1).
  explicit CommWorld(int nranks);

  int size() const { return nranks_; }

  /// Execute fn(comm) on every rank concurrently; blocks until all ranks
  /// return.  If any rank throws, the world is aborted (other ranks are
  /// released from barriers) and the lowest-rank exception is rethrown.
  void run(const std::function<void(Communicator&)>& fn);

  /// Communication counters of each rank, captured at the end of the last
  /// run().
  const std::vector<CommStats>& last_stats() const { return last_stats_; }

 private:
  friend class Communicator;

  // Exchange board: per-rank posted pointers, read between two barriers.
  struct Board {
    std::vector<const void*> ptr;
    std::vector<const std::uint64_t*> cnt;
    std::vector<const std::uint64_t*> displ;
    std::vector<std::uint64_t> scalar;
    std::vector<verify::Fingerprint> fp;  // populated only under PARCOMM_VERIFY
  };

  const int nranks_;
  std::unique_ptr<Barrier> barrier_;
  Board board_;
  std::vector<CommStats> last_stats_;
};

/// One rank's handle to the world: rank id + collectives + instrumentation.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return world_.nranks_; }

  /// Synchronize all ranks.  The wait is traced as parcomm.wait.
  void barrier(HPCGRAPH_BARRIER_SITE) {
    ++stats_.barrier_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kBarrier, 0, -1, 0, hg_call_site);
#endif
    timed_barrier();
  }

  /// Personalized all-to-all exchange (MPI_Alltoallv), received into a
  /// buffer the caller owns, as MPI's is: a caller that keeps `recv` across
  /// rounds allocates no payload per round.
  ///
  /// \param send        Concatenated per-destination segments.
  /// \param sendcounts  Items destined to each rank; segments are laid out
  ///                    in rank order (displs are derived internally).
  /// \param recv        Receives the items, concatenated in source-rank
  ///                    order.  It must hold exactly as many items as
  ///                    arrive; any other size is a CheckError naming both
  ///                    sizes, thrown once the collective has completed, so
  ///                    no peer is left reading this rank's send buffer.
  /// \param recvcounts  Optional out-param: items received from each rank.
  /// \param pool        Optional thread pool: the per-source memcpy fan-in
  ///                    copies source segments in parallel (they target
  ///                    disjoint ranges of the receive buffer).
  template <typename T>
  void alltoallv(std::span<const T> send,
                 std::span<const std::uint64_t> sendcounts, std::span<T> recv,
                 std::vector<std::uint64_t>* recvcounts = nullptr,
                 ThreadPool* pool = nullptr HPCGRAPH_COLLECTIVE_SITE) {
    alltoallv_into<T>(
        send, sendcounts, [recv](std::uint64_t) { return recv; }, recvcounts,
        pool HPCGRAPH_SITE_FWD);
  }

  /// Personalized all-to-all exchange into a fresh vector: the receive form
  /// above with a buffer sized to what arrives.  For one-shot exchanges
  /// (graph construction, plan builds, frontier routing).
  /// \returns items received, concatenated in source-rank order.
  template <typename T>
  std::vector<T> alltoallv(std::span<const T> send,
                           std::span<const std::uint64_t> sendcounts,
                           std::vector<std::uint64_t>* recvcounts = nullptr,
                           ThreadPool* pool = nullptr HPCGRAPH_COLLECTIVE_SITE) {
    std::vector<T> recv;
    alltoallv_into<T>(
        send, sendcounts,
        [&recv](std::uint64_t n) {
          recv.resize(n);
          return std::span<T>(recv);
        },
        recvcounts, pool HPCGRAPH_SITE_FWD);
    return recv;
  }

  /// Fixed-size all-to-all: rank r's send[d] lands in rank d's result[r].
  template <typename T>
  std::vector<T> alltoall(std::span<const T> send HPCGRAPH_COLLECTIVE_SITE) {
    HG_CHECK(static_cast<int>(send.size()) == size());
    std::vector<std::uint64_t> counts(size(), 1);
    return alltoallv<T>(send, counts, nullptr, nullptr HPCGRAPH_SITE_FWD);
  }

  /// All-reduce with a caller-supplied combiner, applied in rank order
  /// (deterministic floating-point results).
  template <typename T, typename F>
  T allreduce(const T& value, F&& combine HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kAllreduce, sizeof(T), -1, 0, hg_call_site);
    verify::check_allreduce_input(value, rank_, hg_call_site.file_name(),
                                  hg_call_site.line());
#endif
    stats_.bytes_sent += sizeof(T);
    stats_.bytes_remote += static_cast<std::uint64_t>(size() - 1) * sizeof(T);
    stats_.bytes_self += sizeof(T);
    stats_.bytes_received += static_cast<std::uint64_t>(size()) * sizeof(T);

    CommWorld::Board& b = world_.board_;
    b.ptr[rank_] = &value;
    timed_barrier();
    T acc = *static_cast<const T*>(b.ptr[0]);
    for (int s = 1; s < size(); ++s)
      acc = combine(acc, *static_cast<const T*>(b.ptr[s]));
    timed_barrier();
    return acc;
  }

  template <typename T>
  T allreduce_sum(const T& v HPCGRAPH_COLLECTIVE_SITE) {
    return allreduce(v, [](T a, T b) { return a + b; } HPCGRAPH_SITE_FWD);
  }
  template <typename T>
  T allreduce_max(const T& v HPCGRAPH_COLLECTIVE_SITE) {
    return allreduce(v, [](T a, T b) { return a > b ? a : b; }
                     HPCGRAPH_SITE_FWD);
  }
  template <typename T>
  T allreduce_min(const T& v HPCGRAPH_COLLECTIVE_SITE) {
    return allreduce(v, [](T a, T b) { return a < b ? a : b; }
                     HPCGRAPH_SITE_FWD);
  }
  bool allreduce_lor(bool v HPCGRAPH_COLLECTIVE_SITE) {
    return allreduce(static_cast<int>(v),
                     [](int a, int b) { return a | b; } HPCGRAPH_SITE_FWD) !=
           0;
  }

  /// Gather one item from every rank, at every rank.
  template <typename T>
  std::vector<T> allgather(const T& value HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kAllgather, sizeof(T), -1, 0, hg_call_site);
#endif
    stats_.bytes_sent += sizeof(T);
    stats_.bytes_remote += static_cast<std::uint64_t>(size() - 1) * sizeof(T);
    stats_.bytes_self += sizeof(T);
    stats_.bytes_received += static_cast<std::uint64_t>(size()) * sizeof(T);

    CommWorld::Board& b = world_.board_;
    b.ptr[rank_] = &value;
    timed_barrier();
    std::vector<T> out(size());
    for (int s = 0; s < size(); ++s)
      out[s] = *static_cast<const T*>(b.ptr[s]);
    timed_barrier();
    return out;
  }

  /// Gather variable-length vectors from every rank, at every rank;
  /// concatenated in rank order.  Optional out-param: per-source counts.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::uint64_t>* counts =
                                nullptr HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kAllgatherv, sizeof(T), -1, 0, hg_call_site);
#endif
    stats_.bytes_sent += local.size() * sizeof(T);
    stats_.bytes_remote +=
        local.size() * sizeof(T) * static_cast<std::uint64_t>(size() - 1);
    stats_.bytes_self += local.size() * sizeof(T);

    CommWorld::Board& b = world_.board_;
    b.ptr[rank_] = local.data();
    b.scalar[rank_] = local.size();
    timed_barrier();
    std::vector<std::uint64_t> cnts(size());
    std::uint64_t total = 0;
    for (int s = 0; s < size(); ++s) total += (cnts[s] = b.scalar[s]);
    std::vector<T> out(total);
    {
      obs::Span sp(obs::span_name::kCopy);
      std::uint64_t off = 0;
      for (int s = 0; s < size(); ++s) {
        if (cnts[s] == 0) continue;
        std::memcpy(out.data() + off, b.ptr[s], cnts[s] * sizeof(T));
        off += cnts[s];
      }
    }
    stats_.bytes_received += total * sizeof(T);
    timed_barrier();
    if (counts) *counts = std::move(cnts);
    return out;
  }

  /// Broadcast `value` from `root` to all ranks.
  template <typename T>
  T broadcast(const T& value, int root HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kBroadcast, sizeof(T), root, 0,
                      hg_call_site);
#endif
    CommWorld::Board& b = world_.board_;
    if (rank_ == root) {
      b.ptr[root] = &value;
      stats_.bytes_sent += sizeof(T);
      stats_.bytes_remote += sizeof(T) * (size() - 1);
      stats_.bytes_self += sizeof(T);
    }
    timed_barrier();
    T out = *static_cast<const T*>(b.ptr[root]);
    stats_.bytes_received += sizeof(T);
    timed_barrier();
    return out;
  }

  /// Broadcast a vector from `root`; all ranks return the root's vector.
  template <typename T>
  std::vector<T> broadcast_vec(std::span<const T> local,
                               int root HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kBroadcastVec, sizeof(T), root, 0,
                      hg_call_site);
#endif
    CommWorld::Board& b = world_.board_;
    if (rank_ == root) {
      b.ptr[root] = local.data();
      b.scalar[root] = local.size();
      stats_.bytes_sent += local.size() * sizeof(T);
      stats_.bytes_remote += local.size() * sizeof(T) * (size() - 1);
      stats_.bytes_self += local.size() * sizeof(T);
    }
    timed_barrier();
    std::vector<T> out(b.scalar[root]);
    if (!out.empty()) {
      obs::Span sp(obs::span_name::kCopy);
      std::memcpy(out.data(), b.ptr[root], out.size() * sizeof(T));
    }
    stats_.bytes_received += out.size() * sizeof(T);
    timed_barrier();
    return out;
  }

  /// Gather variable-length vectors at `root` (others receive empty).
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root,
                         std::vector<std::uint64_t>* counts =
                             nullptr HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kGatherv, sizeof(T), root, 0, hg_call_site);
#endif
    stats_.bytes_sent += local.size() * sizeof(T);
    if (rank_ != root) {
      stats_.bytes_remote += local.size() * sizeof(T);
    } else {
      stats_.bytes_self += local.size() * sizeof(T);
    }

    CommWorld::Board& b = world_.board_;
    b.ptr[rank_] = local.data();
    b.scalar[rank_] = local.size();
    timed_barrier();
    std::vector<T> out;
    if (rank_ == root) {
      std::vector<std::uint64_t> cnts(size());
      std::uint64_t total = 0;
      for (int s = 0; s < size(); ++s) total += (cnts[s] = b.scalar[s]);
      out.resize(total);
      obs::Span sp(obs::span_name::kCopy);
      std::uint64_t off = 0;
      for (int s = 0; s < size(); ++s) {
        if (cnts[s] == 0) continue;
        std::memcpy(out.data() + off, b.ptr[s], cnts[s] * sizeof(T));
        off += cnts[s];
      }
      stats_.bytes_received += total * sizeof(T);
      if (counts) *counts = std::move(cnts);
    }
    timed_barrier();
    return out;
  }

  /// Communication counters for this rank (reset with stats().reset()).
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

 private:
  friend class CommWorld;
  Communicator(CommWorld& world, int rank) : world_(world), rank_(rank) {}

  /// Every barrier wait, internal ones included, is a parcomm.wait span:
  /// the idle share of the paper's Figure 3 split, as payload copies
  /// (parcomm.copy) are its communication share.
  void timed_barrier() {
    obs::Span sp(obs::span_name::kWait);
    world_.barrier_->wait();
  }

  /// The one alltoallv behind both public forms.  `recv_for(n)` is called
  /// once, after the first barrier, with the number of items arriving, and
  /// returns the span they are copied into.  A span of any other size skips
  /// the copy and throws after the second barrier: peers may still be
  /// copying from this rank's send buffer until then.
  template <typename T, typename RecvFor>
  void alltoallv_into(std::span<const T> send,
                      std::span<const std::uint64_t> sendcounts,
                      RecvFor&& recv_for,
                      std::vector<std::uint64_t>* recvcounts,
                      ThreadPool* pool HPCGRAPH_COLLECTIVE_SITE) {
    static_assert(std::is_trivially_copyable_v<T>);
    HG_CHECK(static_cast<int>(sendcounts.size()) == size());
    ++stats_.collective_calls;
#if HPCGRAPH_VERIFY_ENABLED
    verify_rendezvous(verify::Op::kAlltoallv, sizeof(T), -1,
                      verify::counts_checksum(sendcounts), hg_call_site);
#endif

    std::vector<std::uint64_t> displs(size());
    const std::uint64_t total =
        exclusive_prefix_sum(sendcounts, std::span<std::uint64_t>(displs));
    HG_CHECK_MSG(total == send.size(),
                 "alltoallv: counts sum " << total << " != payload "
                                          << send.size());

    stats_.bytes_sent += total * sizeof(T);
    stats_.bytes_remote += (total - sendcounts[rank_]) * sizeof(T);
    stats_.bytes_self += sendcounts[rank_] * sizeof(T);

    CommWorld::Board& b = world_.board_;
    b.ptr[rank_] = send.data();
    b.cnt[rank_] = sendcounts.data();
    b.displ[rank_] = displs.data();
    timed_barrier();

    // Gather per-source counts, then copy payload segments in rank order.
    std::vector<std::uint64_t> rcounts(size());
    std::vector<std::uint64_t> roffs(size());
    std::uint64_t rtotal = 0;
    for (int s = 0; s < size(); ++s) {
      roffs[s] = rtotal;
      rtotal += (rcounts[s] = b.cnt[s][rank_]);
    }
#if HPCGRAPH_VERIFY_ENABLED
    // Send/recv count symmetry: what this receiver consumes from rank s must
    // be exactly what s declared at the rendezvous; a differing checksum
    // means s reused its counts buffer mid-collective.
    for (int s = 0; s < size(); ++s) {
      const std::uint64_t h = verify::counts_checksum(
          {b.cnt[s], static_cast<std::size_t>(size())});
      if (h != b.fp[static_cast<std::size_t>(s)].aux)
        throw verify::CollectiveMismatch(
            verify::mutation_report(s, b.fp[static_cast<std::size_t>(s)]));
    }
#endif

    const std::span<T> recv = recv_for(rtotal);
    const bool fits = recv.size() == rtotal;
    if (fits) {
      obs::Span sp(obs::span_name::kCopy);
      const auto copy_from = [&](int s) {
        if (rcounts[s] == 0) return;
        const auto* src = static_cast<const T*>(b.ptr[s]);
        std::memcpy(recv.data() + roffs[s], src + b.displ[s][rank_],
                    rcounts[s] * sizeof(T));
      };
      if (pool && pool->num_threads() > 1) {
        pool->for_each(0, static_cast<std::uint64_t>(size()),
                       [&](unsigned, std::uint64_t s) {
                         copy_from(static_cast<int>(s));
                       });
      } else {
        for (int s = 0; s < size(); ++s) copy_from(s);
      }
      stats_.bytes_received += rtotal * sizeof(T);
    }
    timed_barrier();  // senders may now reuse their buffers
    HG_CHECK_MSG(fits, "alltoallv: rank " << rank_ << "'s receive buffer holds "
                                          << recv.size() << " items, but "
                                          << rtotal << " arrive");

    if (recvcounts) *recvcounts = std::move(rcounts);
  }

#if HPCGRAPH_VERIFY_ENABLED
  /// Fingerprint rendezvous executed at the head of every collective: post
  /// this rank's fingerprint, synchronize, and cross-check all ranks with
  /// the same pure predicate.  On divergence *every* rank throws the same
  /// CollectiveMismatch between barriers, so no rank is left waiting and
  /// CommWorld::run surfaces the report instead of a hang or silent board
  /// corruption.  Slots stay readable until each rank's next rendezvous,
  /// which is gated behind the current collective's own barriers.
  void verify_rendezvous(verify::Op op, std::uint32_t elem_size,
                         std::int32_t root, std::uint64_t aux,
                         const std::source_location& loc) {
    world_.board_.fp[static_cast<std::size_t>(rank_)] = verify::Fingerprint{
        verify_seq_++, op,       elem_size,
        root,          aux,      loc.file_name(),
        loc.line(),    loc.function_name()};
    timed_barrier();
    const std::string err = verify::check_fingerprints(world_.board_.fp);
    if (!err.empty()) throw verify::CollectiveMismatch(err);
  }
#endif

  CommWorld& world_;
  const int rank_;
  CommStats stats_;
#if HPCGRAPH_VERIFY_ENABLED
  std::uint64_t verify_seq_ = 0;  // per-rank collective counter
#endif
};

}  // namespace hpcgraph::parcomm
