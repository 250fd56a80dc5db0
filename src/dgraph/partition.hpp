#pragma once
/// \file partition.hpp
/// One-dimensional vertex partitioning — §III-B of the paper.
///
/// Three strategies:
///   * vertex block ("np"): each task owns ~n/p consecutive vertex ids.
///   * edge block ("mp"): consecutive id ranges cut so each task owns ~m/p
///     out-edges (computed from a bucketed degree histogram, so the cut scales
///     to graphs whose full degree array would not fit one task).
///   * random ("rand"): owner(v) = hash(v) mod p.
///
/// Block strategies preserve the natural vertex ordering (better locality,
/// fewer ghosts on graphs whose ids encode crawl order); random gives the
/// best balance.  Figure 3 and Table IV quantify the trade-off.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hpcgraph::dgraph {

enum class PartitionKind {
  kVertexBlock,
  kEdgeBlock,
  kRandom,
  kExplicit,  ///< arbitrary per-vertex owner map (e.g. from pulp_partition)
};

/// Short label used in bench tables ("np" / "mp" / "rand"), matching the
/// paper's WC-np / WC-mp / WC-rand naming.
inline const char* partition_label(PartitionKind k) {
  switch (k) {
    case PartitionKind::kVertexBlock: return "np";
    case PartitionKind::kEdgeBlock: return "mp";
    case PartitionKind::kRandom: return "rand";
    case PartitionKind::kExplicit: return "expl";
  }
  return "?";
}

/// Maps every global vertex id to its owning task.  Cheap to copy; each rank
/// keeps its own instance (no shared state, as in a real MPI program).
class Partition {
 public:
  /// ~n/p consecutive vertices per task.
  static Partition vertex_block(gvid_t n, int nranks) {
    Partition part(PartitionKind::kVertexBlock, n, nranks);
    part.bounds_.resize(nranks + 1);
    const gvid_t base = n / nranks, extra = n % nranks;
    gvid_t at = 0;
    for (int r = 0; r <= nranks; ++r) {
      part.bounds_[r] = at;
      if (r < nranks) at += base + (static_cast<gvid_t>(r) < extra ? 1 : 0);
    }
    part.bounds_[nranks] = n;
    return part;
  }

  /// Consecutive ranges cut at ~m/p cumulative out-edges.
  /// \param bucket_degrees  Out-edge counts for `buckets` equal-width vertex
  ///                        ranges (globally reduced); the cut is made at
  ///                        bucket granularity.
  static Partition edge_block(gvid_t n, int nranks,
                              std::span<const std::uint64_t> bucket_degrees) {
    Partition part(PartitionKind::kEdgeBlock, n, nranks);
    HG_CHECK(!bucket_degrees.empty());
    const std::size_t buckets = bucket_degrees.size();
    std::uint64_t m_total = 0;
    for (const auto d : bucket_degrees) m_total += d;

    part.bounds_.assign(nranks + 1, n);
    part.bounds_[0] = 0;
    std::uint64_t run = 0;
    int next_cut = 1;
    for (std::size_t b = 0; b < buckets && next_cut < nranks; ++b) {
      run += bucket_degrees[b];
      // Cut after bucket b once we pass the next 1/p share of edges.
      while (next_cut < nranks &&
             run * nranks >= static_cast<std::uint64_t>(next_cut) * m_total) {
        const gvid_t edge_at = bucket_end(n, buckets, b);
        part.bounds_[next_cut] = edge_at;
        ++next_cut;
      }
    }
    // Monotonicity guard for degenerate histograms.
    for (int r = 1; r <= nranks; ++r)
      part.bounds_[r] = std::max(part.bounds_[r], part.bounds_[r - 1]);
    part.bounds_[nranks] = n;
    return part;
  }

  /// owner(v) = hash(v ^ seed) mod p.
  static Partition random(gvid_t n, int nranks, std::uint64_t seed = 0) {
    Partition part(PartitionKind::kRandom, n, nranks);
    part.seed_ = seed;
    return part;
  }

  /// Arbitrary per-vertex owner map, shared (read-only) between the rank
  /// copies.  This is the "more complex partitioning or reordering
  /// scenarios" case of §III-C, for which the ghost `tasks` array is held
  /// explicitly.  Produced e.g. by pulp_partition (§VII future work).
  static Partition explicit_map(
      gvid_t n, int nranks,
      std::shared_ptr<const std::vector<std::int32_t>> owner) {
    Partition part(PartitionKind::kExplicit, n, nranks);
    HG_CHECK(owner && owner->size() == n);
    for (const std::int32_t o : *owner)
      HG_CHECK_MSG(o >= 0 && o < nranks, "owner map entry out of range");
    part.owner_map_ = std::move(owner);
    return part;
  }

  PartitionKind kind() const { return kind_; }
  gvid_t n_global() const { return n_; }
  int nranks() const { return nranks_; }

  /// Owning task of a global vertex id.  Hot path: O(1) for random, O(log p)
  /// for the block strategies.
  int owner(gvid_t v) const {
    HG_DCHECK(v < n_);
    if (kind_ == PartitionKind::kRandom) {
      return static_cast<int>(splitmix64(v ^ seed_) %
                              static_cast<std::uint64_t>(nranks_));
    }
    if (kind_ == PartitionKind::kExplicit) return (*owner_map_)[v];
    // The last rank r with bounds_[r] <= v (bounds_[nranks] = n > v is never
    // it), which std::upper_bound would find with one data-dependent branch
    // per step.  Here each step is a conditional add, and the step count
    // depends only on p.
    const gvid_t* base = bounds_.data();
    for (std::size_t len = bounds_.size() - 1; len > 1;) {
      const std::size_t half = len / 2;
      base += base[half] <= v ? half : 0;
      len -= half;
    }
    return static_cast<int>(base - bounds_.data());
  }

  bool is_block() const {
    return kind_ == PartitionKind::kVertexBlock ||
           kind_ == PartitionKind::kEdgeBlock;
  }

  /// Number of vertices owned by `rank`.
  gvid_t num_owned(int rank) const {
    if (is_block()) return bounds_[rank + 1] - bounds_[rank];
    // Random/explicit: count by scanning the id space.
    gvid_t count = 0;
    for (gvid_t v = 0; v < n_; ++v)
      if (owner(v) == rank) ++count;
    return count;
  }

  /// All vertices owned by `rank`, in increasing global-id order.  This
  /// ordering defines the local-id assignment of DistGraph.
  std::vector<gvid_t> owned_vertices(int rank) const {
    std::vector<gvid_t> out;
    if (is_block()) {
      out.reserve(bounds_[rank + 1] - bounds_[rank]);
      for (gvid_t v = bounds_[rank]; v < bounds_[rank + 1]; ++v)
        out.push_back(v);
    } else {
      out.reserve(n_ / nranks_ + 16);
      for (gvid_t v = 0; v < n_; ++v)
        if (owner(v) == rank) out.push_back(v);
    }
    return out;
  }

  /// Block range of `rank` (block strategies only).
  std::pair<gvid_t, gvid_t> block_range(int rank) const {
    HG_CHECK(is_block());
    return {bounds_[rank], bounds_[rank + 1]};
  }

  /// Serialize to a flat word vector (snapshot files).  Layout:
  /// [kind, n, nranks, payload...] where payload is the bounds (block),
  /// the seed (random), or the full owner map (explicit).
  std::vector<std::uint64_t> serialize() const {
    std::vector<std::uint64_t> out{static_cast<std::uint64_t>(kind_), n_,
                                   static_cast<std::uint64_t>(nranks_)};
    switch (kind_) {
      case PartitionKind::kVertexBlock:
      case PartitionKind::kEdgeBlock:
        out.insert(out.end(), bounds_.begin(), bounds_.end());
        break;
      case PartitionKind::kRandom:
        out.push_back(seed_);
        break;
      case PartitionKind::kExplicit:
        for (const std::int32_t o : *owner_map_)
          out.push_back(static_cast<std::uint64_t>(o));
        break;
    }
    return out;
  }

  /// Inverse of serialize().
  static Partition deserialize(std::span<const std::uint64_t> words) {
    HG_CHECK(words.size() >= 3);
    const auto kind = static_cast<PartitionKind>(words[0]);
    const gvid_t n = words[1];
    const int nranks = static_cast<int>(words[2]);
    Partition part(kind, n, nranks);
    const auto payload = words.subspan(3);
    switch (kind) {
      case PartitionKind::kVertexBlock:
      case PartitionKind::kEdgeBlock:
        HG_CHECK(payload.size() == static_cast<std::size_t>(nranks) + 1);
        part.bounds_.assign(payload.begin(), payload.end());
        break;
      case PartitionKind::kRandom:
        HG_CHECK(payload.size() == 1);
        part.seed_ = payload[0];
        break;
      case PartitionKind::kExplicit: {
        HG_CHECK(payload.size() == n);
        auto owner = std::make_shared<std::vector<std::int32_t>>(n);
        for (gvid_t v = 0; v < n; ++v) {
          HG_CHECK_MSG(payload[v] < static_cast<std::uint64_t>(nranks),
                       "owner map entry " << v << " is " << payload[v]
                                          << ", not a rank below " << nranks);
          (*owner)[v] = static_cast<std::int32_t>(payload[v]);
        }
        part.owner_map_ = std::move(owner);
        break;
      }
      default:
        HG_CHECK_MSG(false, "unknown partition kind " << words[0]);
    }
    return part;
  }

 private:
  Partition(PartitionKind kind, gvid_t n, int nranks)
      : kind_(kind), n_(n), nranks_(nranks) {
    HG_CHECK(nranks >= 1);
    HG_CHECK(n >= 1);
  }

  static gvid_t bucket_end(gvid_t n, std::size_t buckets, std::size_t b) {
    return static_cast<gvid_t>(
        (static_cast<unsigned __int128>(n) * (b + 1)) / buckets);
  }

  PartitionKind kind_;
  gvid_t n_;
  int nranks_;
  std::vector<gvid_t> bounds_;  // block strategies: nranks+1 boundaries
  std::uint64_t seed_ = 0;      // random strategy
  std::shared_ptr<const std::vector<std::int32_t>> owner_map_;  // explicit
};

/// Histogram of out-degrees over `buckets` equal-width vertex ranges,
/// computed from one rank's edge chunk; allreduce-sum the result across
/// ranks, then feed Partition::edge_block.
template <typename EdgeRange>
std::vector<std::uint64_t> degree_buckets(const EdgeRange& edges, gvid_t n,
                                          std::size_t buckets) {
  std::vector<std::uint64_t> h(buckets, 0);
  for (const auto& e : edges) {
    const std::size_t b = static_cast<std::size_t>(
        (static_cast<unsigned __int128>(e.src) * buckets) / n);
    ++h[b];
  }
  return h;
}

}  // namespace hpcgraph::dgraph
