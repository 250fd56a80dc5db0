// The one intra-rank schedule (DESIGN.md §10): ChunkGrid purity and
// coverage, the span grid's geometry, pool loop coverage and chunk-order
// reductions at every pool width, and the headline pin — PageRank
// bit-identical across pool widths x ranks.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analytics/pagerank.hpp"
#include "dgraph/builder.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace hpcgraph {
namespace {

/// Synthetic scale-free-ish degree prefix: most vertices light, a few heavy
/// hubs, degree drawn from a truncated power-ish law.  Deterministic in
/// `seed`.
std::vector<std::uint64_t> random_prefix(std::uint64_t n, std::uint64_t seed) {
  Rng r(seed);
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t roll = r.below(1000);
    std::uint64_t deg;
    if (roll < 700) {
      deg = r.below(4);  // the long light tail
    } else if (roll < 990) {
      deg = 4 + r.below(28);
    } else {
      deg = 256 + r.below(2048);  // hubs
    }
    prefix[v + 1] = prefix[v] + deg;
  }
  return prefix;
}

/// Every item in [0, n) appears in exactly one chunk, in ascending order,
/// and weights agree with the prefix.
void expect_grid_covers(const ChunkGrid& grid,
                        std::span<const std::uint64_t> prefix) {
  const std::uint64_t n = prefix.size() - 1;
  std::uint64_t next_item = 0;
  for (std::size_t c = 0; c < grid.size(); ++c) {
    const Chunk& ck = grid[c];
    ASSERT_LT(ck.begin, ck.end);
    ASSERT_EQ(ck.begin, next_item) << "gap/overlap before chunk " << c;
    ASSERT_EQ(ck.w_begin, prefix[ck.begin]);
    ASSERT_EQ(ck.w_end, prefix[ck.end]);
    next_item = ck.end;
  }
  ASSERT_EQ(next_item, n);
  ASSERT_EQ(grid.items_total(), n);
  ASSERT_EQ(grid.weight_total(), prefix[n] - prefix[0]);
}

TEST(ChunkGrid, SpanGridIsOneEqualCountSpanPerThread) {
  const auto prefix = random_prefix(5000, 7);
  for (const unsigned nt : {1u, 2u, 3u, 4u, 8u}) {
    const ChunkGrid grid = span_grid(5000, prefix, nt);
    expect_grid_covers(grid, prefix);
    ASSERT_EQ(grid.size(), nt);
    const std::uint64_t per = (5000 + nt - 1) / nt;
    for (std::size_t c = 0; c < grid.size(); ++c)
      EXPECT_EQ(grid[c].begin, c * per) << "nt=" << nt;
    // Without a prefix the weights are the item counts.
    const ChunkGrid plain = span_grid(5000, {}, nt);
    ASSERT_EQ(plain.size(), grid.size());
    for (std::size_t c = 0; c < plain.size(); ++c) {
      EXPECT_EQ(plain[c].begin, grid[c].begin);
      EXPECT_EQ(plain[c].weight(), plain[c].items());
    }
  }
}

TEST(ChunkGrid, PureFunctionOfInputs) {
  const auto prefix = random_prefix(3000, 99);
  EXPECT_EQ(span_grid(3000, prefix, 4), span_grid(3000, prefix, 4));
  EXPECT_EQ(ChunkGrid::items_weighted(prefix, 12),
            ChunkGrid::items_weighted(prefix, 12));
  // A fixed grain gives the same grid at every pool width.
  const ChunkGrid fixed = ChunkGrid::items(3000, 12);
  ASSERT_EQ(fixed.size(), 250u);
  EXPECT_EQ(fixed[0].items(), 12u);
  expect_grid_covers(ChunkGrid::items_weighted(prefix, 12), prefix);
}

TEST(ChunkGrid, EmptyAndTinyRanges) {
  EXPECT_TRUE(ChunkGrid::items(0, 12).empty());
  std::vector<std::uint64_t> p0 = {0};
  EXPECT_TRUE(ChunkGrid::items_weighted(p0, 12).empty());
  EXPECT_TRUE(span_grid(0, {}, 4).empty());
  const ChunkGrid one = ChunkGrid::items(1, 12);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].items(), 1u);
  // n < nthreads: the span grid emits only as many chunks as items.
  const ChunkGrid tiny = span_grid(3, {}, 8);
  EXPECT_LE(tiny.size(), 3u);
  EXPECT_EQ(tiny.items_total(), 3u);
}

// ---- Pool execution at every width -----------------------------------------

/// Parameter: the pool width.
class ScheduleParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScheduleParam, ForChunksVisitsEveryChunkOnce) {
  const unsigned nt = GetParam();
  const auto prefix = random_prefix(2000, 5);
  ThreadPool pool(nt);
  // The span grid runs chunk c on thread c; a fixed-grain grid with more
  // chunks than threads runs in contiguous per-thread blocks.
  for (const ChunkGrid& grid :
       {span_grid(2000, prefix, nt), ChunkGrid::items_weighted(prefix, 8)}) {
    std::vector<std::atomic<int>> hits(grid.size());
    std::vector<unsigned> owner(grid.size(), 0);
    for (auto& h : hits) h = 0;
    std::vector<char> item(2000, 0);
    const SweepStats before = pool.sweep_stats();
    pool.for_chunks(grid,
                    [&](unsigned tid, std::uint64_t c, const Chunk& ck) {
                      hits[c].fetch_add(1);
                      owner[c] = tid;
                      for (std::uint64_t i = ck.begin; i < ck.end; ++i)
                        item[i] = 1;
                    });
    for (std::size_t c = 0; c < grid.size(); ++c)
      ASSERT_EQ(hits[c].load(), 1);
    for (const char x : item) ASSERT_EQ(x, 1);
    const std::size_t per = (grid.size() + nt - 1) / nt;
    for (std::size_t c = 0; c < grid.size(); ++c)
      ASSERT_EQ(owner[c], c / per);
    const SweepStats s = pool.sweep_stats() - before;
    EXPECT_EQ(s.loops, 1u);
    EXPECT_EQ(s.work_total, grid.weight_total());
  }
}

TEST_P(ScheduleParam, ReduceChunksIsBitIdentical) {
  const unsigned nt = GetParam();
  // Awkward FP values whose sum is order-sensitive: any reassociation would
  // flip low bits, so bit-equality across pools proves chunk-order folding.
  Rng r(13);
  std::vector<double> vals(3000);
  for (double& v : vals)
    v = (static_cast<double>(r.below(1000000)) + 0.1) * 1e-7;
  const auto body = [&](const Chunk& ck) {
    double acc = 0.0;
    for (std::uint64_t i = ck.begin; i < ck.end; ++i) acc += vals[i];
    return acc;
  };
  // The fixed-grain grid is not sized from the pool width, so the fold is
  // the same at every width.
  const ChunkGrid grid = ChunkGrid::items(3000, 12);
  ThreadPool ref(1);
  const double want = ref.reduce_chunks(grid, body);
  ThreadPool pool(nt);
  const double got = pool.reduce_chunks(grid, body);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "nt=" << nt;
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, ScheduleParam,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& inf) {
                           return "nt" + std::to_string(inf.param);
                         });

// ---- The acceptance pin ----------------------------------------------------

/// Bit-pattern checksum of the distributed PageRank scores: equal checksums
/// mean every vertex score is bit-identical (sums of bit patterns collide
/// only adversarially, and the runs differ solely in pool width).
std::uint64_t pagerank_checksum(const gen::EdgeList& el, int nranks,
                                unsigned nthreads) {
  std::atomic<std::uint64_t> sum{0};
  parcomm::CommWorld world(nranks);
  world.run([&](parcomm::Communicator& comm) {
    const dgraph::DistGraph g = dgraph::Builder::from_edge_list(
        comm, el, dgraph::PartitionKind::kVertexBlock);
    ThreadPool pool(nthreads);
    analytics::PageRankOptions o;
    o.max_iterations = 8;
    o.common.pool = &pool;
    const auto res = analytics::pagerank(g, comm, o);
    std::uint64_t local = 0;
    for (const double s : res.scores)
      local += std::bit_cast<std::uint64_t>(s);
    const std::uint64_t total = comm.allreduce_sum(local);
    if (comm.rank() == 0) sum = total;
  });
  return sum.load();
}

TEST(ScheduleDeterminism, PageRankBitIdenticalAcrossEverything) {
  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 8;
  rp.scramble_ids = false;  // keep the hubs clustered in the first span
  const gen::EdgeList el = gen::rmat(rp);
  for (const int nranks : {1, 2, 4}) {
    // The cross-rank reduction tree depends on the rank count (FP allreduce
    // association), so each rank count pins its own baseline: the
    // single-thread run.  The pool width must never perturb it.
    const std::uint64_t want = pagerank_checksum(el, nranks, 1);
    ASSERT_NE(want, 0u);
    for (const unsigned nt : {2u, 4u, 8u}) {
      EXPECT_EQ(pagerank_checksum(el, nranks, nt), want)
          << "ranks=" << nranks << " nt=" << nt;
    }
  }
}

}  // namespace
}  // namespace hpcgraph
