#pragma once
/// \file frontier.hpp
/// The unified distributed frontier layer — one owner for the paper's
/// Algorithm-2/3 queue → Alltoallv → scatter cycle.
///
/// Before this layer existed every BFS-like analytic hand-rolled the same
/// three pieces: a per-destination owner-count pass, a `MultiQueue`/`Sink`
/// send-queue build, and the Alltoallv + receive-scatter that completes the
/// cycle.  `route_to_owners` is now the single sanctioned implementation
/// (the `raw-frontier-exchange` lint rule rejects bespoke copies), and
/// `DistFrontier` owns the per-superstep active set itself, in one of two
/// interchangeable representations:
///
///   * **queue** — a sparse vertex list in insertion order: the paper's
///     Algorithm 2 frontier.  Callers dedup (claim flags / status arrays),
///     exactly as the seed loops did.
///   * **bitmap** — a packed `bitmask64` over locals + ghosts: the dense
///     representation direction-optimizing traversals publish over the
///     ghost-exchange wire.  Membership-deduped; iteration is ascending.
///
/// Conversions are explicit and canonical: queue → bitmap drops insertion
/// order (and collapses duplicates); bitmap → queue yields the ascending
/// vertex list.  Analytics whose outputs depend on frontier order (BFS
/// parent trees, SSSP round counts) declare `order_sensitive` in their
/// `FrontierPolicy`, which pins their push rounds to the queue
/// representation.
///
/// The engine picks each round's representation and direction itself; no
/// option overrides it.  The crossover (`frontier_decide`) is a pure
/// function of globally-allreduced values — the frontier size and
/// frontier-degree sum the engine fuses into its convergence allreduce — so
/// every rank takes the same branch and the decision is bit-identical
/// across runs, rank counts and thread counts (DESIGN.md §11).

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "dgraph/dist_graph.hpp"
#include "obs/tracer.hpp"
#include "parcomm/comm.hpp"
#include "util/bitmask64.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph::engine {

/// Physical representation of a DistFrontier.
enum class FrontierRep : std::uint8_t {
  kQueue,   ///< sparse vertex list, insertion order (Algorithm 2)
  kBitmap,  ///< packed bit per vertex over locals+ghosts, ascending order
};

/// Traversal direction of one frontier expansion round.
enum class FrontierDir : std::uint8_t {
  kPush,  ///< top-down: frontier scatters to neighbours
  kPull,  ///< bottom-up: unvisited vertices scan for flagged parents
};

inline const char* frontier_rep_label(FrontierRep r) {
  return r == FrontierRep::kQueue ? "queue" : "bitmap";
}

/// Per-kernel crossover policy.  Defaults describe a push-only analytic
/// that tolerates either representation.
struct FrontierPolicy {
  /// Outputs depend on frontier iteration order (BFS-tree parents, SSSP
  /// round counts): push rounds keep the queue representation so runs
  /// reproduce the pre-refactor loops bit-for-bit.
  bool order_sensitive = false;
  /// The analytic implements a pull (bottom-up) expansion.  Off for
  /// kernels with push-only semantics.
  bool allow_pull = false;
  /// Beamer direction thresholds (only read when allow_pull): switch to
  /// pull when the frontier-degree sum exceeds m/alpha; back to push when
  /// the frontier shrinks below n/beta.
  double alpha = 15.0;
  double beta = 20.0;
  /// Alternative pull rule (MS-BFS): pull when the global frontier is
  /// denser than this fraction of n.  Negative = use alpha/beta instead.
  double pull_density = -1.0;
  /// Representation crossover of push rounds: go dense when the global
  /// frontier-degree sum exceeds m / rep_fraction.
  double rep_fraction = 64.0;
};

/// One round's representation + direction decision.
struct FrontierDecision {
  FrontierRep rep = FrontierRep::kQueue;
  FrontierDir dir = FrontierDir::kPush;
};

/// Pure crossover function: same (policy, previous direction, allreduced
/// globals) → same decision on every rank, every run.  The direction rules
/// replicate the pre-refactor direction-optimizing BFS exactly: from push,
/// switch to pull when degree_global > m/alpha; once pulling, keep pulling
/// while active_global >= n/beta.  `pull_density >= 0` swaps in the MS-BFS
/// density rule (pull iff active_global > pull_density * n).  Pull rounds
/// are dense; push rounds go dense past m / rep_fraction unless the policy
/// is order_sensitive.
FrontierDecision frontier_decide(const FrontierPolicy& policy,
                                 FrontierDir prev_dir,
                                 std::uint64_t active_global,
                                 std::uint64_t degree_global,
                                 std::uint64_t n_global,
                                 std::uint64_t m_global);

/// The per-superstep active set of one rank: a sparse queue or a dense
/// bitmap over [0, n_total), switchable in place.  Not thread-safe for
/// concurrent push; parallel producers emit per-chunk lists and append
/// them in chunk order (append_chunks).
class DistFrontier {
 public:
  /// \param n_total  locals + ghosts of the rank's graph slice.
  explicit DistFrontier(std::size_t n_total,
                        FrontierRep rep = FrontierRep::kQueue)
      : n_total_(n_total), rep_(rep) {
    if (rep_ == FrontierRep::kBitmap) words_.assign(word_count(), 0);
  }

  FrontierRep rep() const { return rep_; }
  std::size_t n_total() const { return n_total_; }

  /// Local active count.  Queue: list length (duplicates count, as in the
  /// seed loops).  Bitmap: population count (membership-deduped).
  std::uint64_t size() const {
    return rep_ == FrontierRep::kQueue ? list_.size() : count_;
  }
  bool empty() const { return size() == 0; }

  /// Insert one vertex.  Bitmap inserts are idempotent.
  void push(lvid_t v) {
    HG_DCHECK(v < n_total_);
    if (rep_ == FrontierRep::kQueue) {
      list_.push_back(v);
    } else {
      std::uint64_t& w = words_[v >> 6];
      const std::uint64_t b = bits::bit(v & 63);
      if (!(w & b)) {
        w |= b;
        ++count_;
        list_valid_ = false;
      }
    }
  }

  /// Append per-chunk emission lists in chunk order — the deterministic
  /// assembly for parallel producers (same list for every thread count).
  void append_chunks(std::span<const std::vector<lvid_t>> chunk_lists) {
    for (const std::vector<lvid_t>& cl : chunk_lists)
      for (const lvid_t v : cl) push(v);
  }

  /// Bitmap membership test (bitmap representation only).
  bool test(lvid_t v) const {
    HG_DCHECK(rep_ == FrontierRep::kBitmap);
    return (words_[v >> 6] & bits::bit(v & 63)) != 0;
  }

  /// The frontier as a vertex list: queue order for the queue
  /// representation, ascending for the bitmap (materialized lazily).
  std::span<const lvid_t> as_list() const {
    if (rep_ == FrontierRep::kBitmap && !list_valid_) materialize_list();
    return list_;
  }

  /// Visit every member; queue order / ascending per representation.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (rep_ == FrontierRep::kQueue) {
      for (const lvid_t v : list_) fn(v);
    } else {
      for (std::size_t w = 0; w < words_.size(); ++w)
        bits::for_each_set_bit(words_[w], [&](std::size_t j) {
          fn(static_cast<lvid_t>((w << 6) + j));
        });
    }
  }

  /// Σ weight(v) over members — the local contribution to the global
  /// frontier-degree sum the crossover decision runs on.
  template <typename WeightFn>
  std::uint64_t weight_sum(WeightFn&& weight) const {
    std::uint64_t s = 0;
    for_each([&](lvid_t v) { s += weight(v); });
    return s;
  }

  /// Mark members as 1 in a caller-zeroed byte array (the dense frontier
  /// publication format ghost exchanges move for pull rounds).
  void mark_bytes(std::span<std::uint8_t> flags) const {
    HG_DCHECK(flags.size() >= n_total_);
    for_each([&](lvid_t v) { flags[v] = 1; });
  }

  void clear() {
    list_.clear();
    if (rep_ == FrontierRep::kBitmap && count_ != 0)
      std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
    list_valid_ = true;
  }

  /// Convert in place.  Queue→bitmap collapses duplicates and drops
  /// insertion order; bitmap→queue yields the canonical ascending list.
  void set_rep(FrontierRep r);

  void swap(DistFrontier& o) {
    std::swap(n_total_, o.n_total_);
    std::swap(rep_, o.rep_);
    list_.swap(o.list_);
    words_.swap(o.words_);
    std::swap(count_, o.count_);
    std::swap(list_valid_, o.list_valid_);
  }

 private:
  std::size_t word_count() const { return (n_total_ + 63) / 64; }
  void materialize_list() const;

  std::size_t n_total_;
  FrontierRep rep_;
  mutable std::vector<lvid_t> list_;  // queue storage / bitmap scratch list
  std::vector<std::uint64_t> words_;  // bitmap storage
  std::uint64_t count_ = 0;           // bitmap population
  mutable bool list_valid_ = true;    // bitmap: list_ mirrors words_?
};

/// The owner-count pass + Algorithm-3 send-queue build + Alltoallv, fused:
/// routes `records` to the rank `dest(record)` returns — `wire` projects
/// each record onto the type that goes on the wire — and hands back
/// everything addressed to this rank.  Single-producer: records are pushed
/// in order through one Sink, so the wire payload is a deterministic
/// function of `records` (order-sensitive receivers stay reproducible).
///
/// \param recv_counts  Optional per-source receive counts (request/reply
///                     patterns answer through the mirrored layout).
template <typename S, typename DestFn, typename WireFn,
          typename T = std::decay_t<std::invoke_result_t<WireFn, const S&>>>
std::vector<T> route_to_owners(parcomm::Communicator& comm,
                               std::span<const S> records, DestFn&& dest,
                               WireFn&& wire,
                               std::size_t qsize = kDefaultQSize,
                               std::vector<std::uint64_t>* recv_counts =
                                   nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire records must be trivially copyable");
  const int p = comm.size();
  obs::Span sp(obs::span_name::kRoute);
  std::vector<std::uint64_t> counts(p, 0);
  for (const S& r : records) ++counts[dest(r)];
  MultiQueue<T> q(counts);
  {
    typename MultiQueue<T>::Sink sink(q, qsize);
    for (const S& r : records)
      sink.push(static_cast<std::uint32_t>(dest(r)), wire(r));
  }
  sp.close();
  obs::counter(obs::counter_name::kWireBytes,
               static_cast<double>(q.buffer().size() * sizeof(T)));
  return comm.alltoallv<T>(q.buffer(), counts, recv_counts);
}

/// Identity-wire convenience: the record type is the wire type.
template <typename T, typename DestFn>
std::vector<T> route_to_owners(parcomm::Communicator& comm,
                               std::span<const T> records, DestFn&& dest,
                               std::size_t qsize = kDefaultQSize,
                               std::vector<std::uint64_t>* recv_counts =
                                   nullptr) {
  return route_to_owners(
      comm, records, std::forward<DestFn>(dest),
      [](const T& r) { return r; }, qsize, recv_counts);
}

/// Thread-sharded variant: each pool thread drains its own shard through a
/// private Sink (concurrent Algorithm-3 production; one atomic capture per
/// destination per flush).  `wire` projects a shard record onto the wire
/// type.  Per-destination counts are exact, so segment contents are a
/// permutation fixed by flush interleaving — callers must be
/// receive-order-independent (claim/min/OR scatters).
template <typename T, typename S, typename DestFn, typename WireFn>
std::vector<T> route_to_owners_sharded(
    parcomm::Communicator& comm, ThreadPool& pool,
    std::span<const std::vector<S>> shards, DestFn&& dest, WireFn&& wire,
    std::size_t qsize = kDefaultQSize,
    std::vector<std::uint64_t>* recv_counts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "wire records must be trivially copyable");
  const int p = comm.size();
  obs::Span sp(obs::span_name::kRoute);
  std::vector<std::uint64_t> counts(p, 0);
  for (const std::vector<S>& shard : shards)
    for (const S& s : shard) ++counts[dest(s)];
  MultiQueue<T> q(counts);
  pool.run([&](unsigned tid) {
    if (tid >= shards.size()) return;
    typename MultiQueue<T>::Sink sink(q, qsize);
    for (const S& s : shards[tid])
      sink.push(static_cast<std::uint32_t>(dest(s)), wire(s));
  });
  HG_DCHECK(q.complete());
  sp.close();
  obs::counter(obs::counter_name::kWireBytes,
               static_cast<double>(q.buffer().size() * sizeof(T)));
  return comm.alltoallv<T>(q.buffer(), counts, recv_counts);
}

}  // namespace hpcgraph::engine
