// Tests for the three one-dimensional partitioning strategies (§III-B).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "dgraph/partition.hpp"
#include "gen/rmat.hpp"

namespace hpcgraph::dgraph {
namespace {

class PartitionParam : public ::testing::TestWithParam<int> {};

TEST_P(PartitionParam, VertexBlockCoversAllVerticesOnce) {
  const int p = GetParam();
  const gvid_t n = 1000;
  const Partition part = Partition::vertex_block(n, p);
  std::vector<int> owner_count(p, 0);
  int prev_owner = 0;
  for (gvid_t v = 0; v < n; ++v) {
    const int o = part.owner(v);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, p);
    ASSERT_GE(o, prev_owner);  // block partition: owners nondecreasing
    prev_owner = o;
    ++owner_count[o];
  }
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(static_cast<gvid_t>(owner_count[r]), part.num_owned(r));
    // Balanced to within one vertex.
    EXPECT_LE(owner_count[r], static_cast<int>(n / p) + 1);
    EXPECT_GE(owner_count[r], static_cast<int>(n / p));
  }
}

TEST_P(PartitionParam, OwnedVerticesConsistentWithOwner) {
  const int p = GetParam();
  const gvid_t n = 500;
  for (const Partition& part :
       {Partition::vertex_block(n, p), Partition::random(n, p, 3)}) {
    std::uint64_t total = 0;
    for (int r = 0; r < p; ++r) {
      const auto owned = part.owned_vertices(r);
      total += owned.size();
      EXPECT_EQ(owned.size(), part.num_owned(r));
      gvid_t prev = 0;
      bool first = true;
      for (const gvid_t v : owned) {
        ASSERT_EQ(part.owner(v), r);
        if (!first) {
          ASSERT_GT(v, prev);  // increasing order
        }
        prev = v;
        first = false;
      }
    }
    EXPECT_EQ(total, n);
  }
}

TEST_P(PartitionParam, RandomIsReasonablyBalanced) {
  const int p = GetParam();
  const gvid_t n = 100000;
  const Partition part = Partition::random(n, p, 1);
  for (int r = 0; r < p; ++r) {
    const double share = static_cast<double>(part.num_owned(r)) * p / n;
    EXPECT_GT(share, 0.9);
    EXPECT_LT(share, 1.1);
  }
}

TEST_P(PartitionParam, EdgeBlockBalancesEdges) {
  const int p = GetParam();
  gen::RmatParams rp;
  rp.scale = 13;
  rp.avg_degree = 16;
  const gen::EdgeList g = gen::rmat(rp);

  const std::size_t buckets = 1024;
  const auto hist = degree_buckets(g.edges, g.n, buckets);
  const Partition part = Partition::edge_block(g.n, p, hist);

  std::vector<std::uint64_t> edges_per_rank(p, 0);
  for (const gen::Edge& e : g.edges) ++edges_per_rank[part.owner(e.src)];
  const std::uint64_t target = g.m() / p;
  for (int r = 0; r < p; ++r) {
    // Bucket-granular cuts: allow slack, but no rank may be grossly off.
    EXPECT_LT(edges_per_rank[r], target * 2 + g.m() / buckets * 2)
        << "rank " << r;
  }
  // Compared with vertex-block on a skewed graph, edge-block must reduce
  // the max-edges-per-rank imbalance.
  const Partition vb = Partition::vertex_block(g.n, p);
  std::vector<std::uint64_t> vb_edges(p, 0);
  for (const gen::Edge& e : g.edges) ++vb_edges[vb.owner(e.src)];
  if (p > 1) {
    EXPECT_LE(*std::max_element(edges_per_rank.begin(), edges_per_rank.end()),
              *std::max_element(vb_edges.begin(), vb_edges.end()) +
                  g.m() / buckets * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PartitionParam, ::testing::Values(1, 2, 4, 8));

TEST(Partition, VertexBlockBoundsExact) {
  const Partition part = Partition::vertex_block(10, 3);
  // 10 = 4 + 3 + 3
  EXPECT_EQ(part.num_owned(0), 4u);
  EXPECT_EQ(part.num_owned(1), 3u);
  EXPECT_EQ(part.num_owned(2), 3u);
  EXPECT_EQ(part.block_range(0), (std::pair<gvid_t, gvid_t>{0, 4}));
  EXPECT_EQ(part.block_range(2), (std::pair<gvid_t, gvid_t>{7, 10}));
}

TEST(Partition, RandomDifferentSeedsDifferentAssignment) {
  const Partition a = Partition::random(1000, 4, 1);
  const Partition b = Partition::random(1000, 4, 2);
  int differ = 0;
  for (gvid_t v = 0; v < 1000; ++v)
    if (a.owner(v) != b.owner(v)) ++differ;
  EXPECT_GT(differ, 500);
}

TEST(Partition, RandomBlockRangeThrows) {
  const Partition part = Partition::random(100, 2, 0);
  EXPECT_THROW(part.block_range(0), CheckError);
}

TEST(Partition, SingleRankOwnsEverything) {
  for (const Partition& part :
       {Partition::vertex_block(100, 1), Partition::random(100, 1, 0)}) {
    for (gvid_t v = 0; v < 100; ++v) ASSERT_EQ(part.owner(v), 0);
    EXPECT_EQ(part.num_owned(0), 100u);
  }
}

TEST(Partition, LabelsMatchPaperNaming) {
  EXPECT_STREQ(partition_label(PartitionKind::kVertexBlock), "np");
  EXPECT_STREQ(partition_label(PartitionKind::kEdgeBlock), "mp");
  EXPECT_STREQ(partition_label(PartitionKind::kRandom), "rand");
}

TEST(Partition, MorePartsThanVerticesStillValid) {
  const Partition part = Partition::vertex_block(3, 8);
  std::uint64_t total = 0;
  for (int r = 0; r < 8; ++r) total += part.num_owned(r);
  EXPECT_EQ(total, 3u);
  for (gvid_t v = 0; v < 3; ++v) {
    const int o = part.owner(v);
    EXPECT_GE(o, 0);
    EXPECT_LT(o, 8);
  }
}

// owner() on block partitions is a branch-free search over the rank bounds;
// it must agree with std::upper_bound over the same bounds on every id,
// also where bounds repeat and leave ranks empty: edge-block cuts that all
// land in one heavy bucket, and fewer vertices than ranks.
TEST(Partition, OwnerMatchesUpperBound) {
  const gvid_t n = 997;
  constexpr std::size_t kBuckets = 32;
  std::vector<std::uint64_t> uniform(kBuckets, 5), one_hot(kBuckets, 0),
      ends(kBuckets, 0);
  one_hot[kBuckets / 2] = 100;
  ends.front() = ends.back() = 50;
  for (const int p : {1, 2, 3, 5, 8, 64}) {
    const std::vector<Partition> parts{
        Partition::vertex_block(n, p), Partition::vertex_block(3, p),
        Partition::edge_block(n, p, uniform),
        Partition::edge_block(n, p, one_hot),
        Partition::edge_block(n, p, ends)};
    int empty_ranks = 0;
    for (const Partition& part : parts) {
      std::vector<gvid_t> bounds;
      for (int r = 0; r < p; ++r) {
        const auto [lo, hi] = part.block_range(r);
        bounds.push_back(lo);
        empty_ranks += lo == hi;
      }
      bounds.push_back(part.n_global());
      for (gvid_t v = 0; v < part.n_global(); ++v) {
        const auto want = static_cast<int>(
            std::upper_bound(bounds.begin(), bounds.end(), v) -
            bounds.begin() - 1);
        ASSERT_EQ(part.owner(v), want)
            << partition_label(part.kind()) << " p=" << p << " v=" << v;
      }
    }
    if (p > 2) {
      EXPECT_GT(empty_ranks, 0) << "p=" << p;
    }
  }
}

TEST(DegreeBuckets, HistogramSumsToEdgeCount) {
  gen::EdgeList g;
  g.n = 100;
  g.edges = {{0, 1}, {0, 2}, {50, 3}, {99, 4}};
  const auto h = degree_buckets(g.edges, g.n, 10);
  EXPECT_EQ(std::accumulate(h.begin(), h.end(), 0ull), 4ull);
  EXPECT_EQ(h[0], 2u);   // vertex 0 in bucket 0
  EXPECT_EQ(h[5], 1u);   // vertex 50
  EXPECT_EQ(h[9], 1u);   // vertex 99
}

}  // namespace
}  // namespace hpcgraph::dgraph
