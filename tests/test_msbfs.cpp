// Bit-parallel multi-source BFS vs per-source bfs(): the level stamps must
// be identical for every root under every (rank count, direction, batch
// size, schedule mix) combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "analytics/bfs.hpp"
#include "analytics/msbfs.hpp"
#include "dgraph/builder.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hpcgraph::analytics {
namespace {

using dgraph::DistGraph;
using hpcgraph::testing::DistConfig;
using hpcgraph::testing::span_count;
using hpcgraph::testing::tiny_graph;
using hpcgraph::testing::with_dist_graph;

/// 1/2/4-rank sweep across partition strategies (the issue's required rank
/// counts; partition kind varies so ghost relations differ per config).
std::vector<DistConfig> msbfs_configs() {
  using dgraph::PartitionKind;
  return {{1, PartitionKind::kVertexBlock},
          {2, PartitionKind::kVertexBlock},
          {2, PartitionKind::kRandom},
          {4, PartitionKind::kEdgeBlock},
          {4, PartitionKind::kRandom}};
}

/// `count` distinct random roots drawn from [0, n).
std::vector<gvid_t> draw_roots(gvid_t n, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::unordered_set<gvid_t> taken;
  std::vector<gvid_t> roots;
  while (roots.size() < count && roots.size() < n) {
    const gvid_t r = rng.below(n);
    if (taken.insert(r).second) roots.push_back(r);
  }
  return roots;
}

/// Per-source reference stamps for every root in the requested direction.
std::vector<std::vector<std::int64_t>> reference_levels(
    const DistGraph& g, parcomm::Communicator& comm,
    std::span<const gvid_t> roots, Dir dir) {
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(roots.size());
  BfsOptions bo;
  bo.dir = dir;
  for (const gvid_t r : roots) out.push_back(bfs(g, comm, r, bo).level);
  return out;
}

void expect_levels_match(const DistGraph& g, const MsBfsResult& got,
                         const std::vector<std::vector<std::int64_t>>& want,
                         const std::string& what) {
  ASSERT_EQ(got.n_roots, want.size());
  ASSERT_EQ(got.level.size(), want.size() * g.n_loc());
  for (std::size_t j = 0; j < want.size(); ++j)
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(got.level[j * g.n_loc() + v], want[j][v])
          << what << ": root index " << j << ", vertex " << g.global_id(v);
}

class MsBfsParam : public ::testing::TestWithParam<DistConfig> {};

// The headline equivalence: 70 random roots (spanning two 64-batches), all
// three directions, batch sizes 1 / 3 / 64, against one bfs() per root.
TEST_P(MsBfsParam, LevelsMatchPerSourceBfs) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const std::vector<gvid_t> roots = draw_roots(el.n, 70, 0xfeedULL);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    for (const Dir dir : {Dir::kOut, Dir::kIn, Dir::kBoth}) {
      const auto want = reference_levels(g, comm, roots, dir);
      for (const std::size_t bs : {std::size_t{1}, std::size_t{3},
                                   std::size_t{64}}) {
        MsBfsOptions mo;
        mo.dir = dir;
        mo.batch_size = bs;
        const MsBfsResult got = msbfs(g, comm, roots, mo);
        expect_levels_match(g, got, want,
                            "dir=" + std::to_string(static_cast<int>(dir)) +
                                " batch=" + std::to_string(bs));
      }
    }
  });
}

// Forcing the schedule to pure push or pure pull must not change any stamp
// (the adaptive default mixes both; each extreme exercises one path alone).
TEST_P(MsBfsParam, PushOnlyAndPullOnlyMatch) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const std::vector<gvid_t> roots = draw_roots(el.n, 64, 0xbeefULL);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    const auto want = reference_levels(g, comm, roots, Dir::kOut);
    for (const double thr : {0.0 /* always pull */, 2.0 /* always push */}) {
      MsBfsOptions mo;
      mo.dense_threshold = thr;
      const MsBfsResult got = msbfs(g, comm, roots, mo);
      expect_levels_match(g, got, want, "threshold=" + std::to_string(thr));
    }
  });
}

// visited aggregates the per-root reach counts of the whole span.
TEST_P(MsBfsParam, VisitedCountsMatchPerSourceSum) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const std::vector<gvid_t> roots = draw_roots(el.n, 70, 0x1234ULL);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    std::uint64_t want = 0;
    for (const gvid_t r : roots) want += bfs(g, comm, r).visited;
    const MsBfsResult got = msbfs(g, comm, roots);
    EXPECT_EQ(got.visited, want);
  });
}

// Per-vertex allowed-roots masks: root j of a masked batch must traverse
// exactly like bfs() restricted to the vertices whose bit j is set — levels
// and visited counts — under push only, pull only and the adaptive mix.
// Roots whose own bit is clear visit nothing.
TEST_P(MsBfsParam, AllowedMasksMatchMaskedBfs) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const std::vector<gvid_t> roots = draw_roots(el.n, 64, 0x5eedULL);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    // A pure function of the global id, so every rank count sees the same
    // masks; about three bits in four are set.
    std::vector<std::uint64_t> allowed(g.n_loc());
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      allowed[v] = splitmix64(g.global_id(v)) |
                   splitmix64(g.global_id(v) + 0x9e37ULL);
    for (const Dir dir : {Dir::kOut, Dir::kBoth}) {
      std::vector<std::vector<std::int64_t>> want;
      std::uint64_t want_visited = 0;
      std::vector<std::uint8_t> alive(g.n_loc());
      for (std::size_t j = 0; j < roots.size(); ++j) {
        for (lvid_t v = 0; v < g.n_loc(); ++v)
          alive[v] = (allowed[v] >> j) & 1U;
        BfsOptions bo;
        bo.dir = dir;
        bo.alive = alive;
        BfsResult r = bfs(g, comm, roots[j], bo);
        want_visited += r.visited;
        want.push_back(std::move(r.level));
      }
      for (const double thr : {1.0 /* push only */, 0.0 /* pull only */,
                               MsBfsOptions{}.dense_threshold}) {
        MsBfsOptions mo;
        mo.dir = dir;
        mo.dense_threshold = thr;
        mo.allowed = allowed;
        const MsBfsResult got = msbfs(g, comm, roots, mo);
        const std::string what = "dir=" +
                                 std::to_string(static_cast<int>(dir)) +
                                 " threshold=" + std::to_string(thr);
        expect_levels_match(g, got, want, what);
        EXPECT_EQ(got.visited, want_visited) << what;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MsBfsParam, ::testing::ValuesIn(msbfs_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(MsBfs, TinyGraphEdgeCases) {
  // Isolated vertex 9 reaches only itself (level 0); self-loop vertex 8
  // likewise; duplicate edges must not double-stamp.
  const gen::EdgeList el = tiny_graph();
  const std::vector<gvid_t> roots = {9, 8, 0};
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    const auto want =
                        reference_levels(g, comm, roots, Dir::kOut);
                    const MsBfsResult got = msbfs(g, comm, roots);
                    expect_levels_match(g, got, want, "tiny");
                    // 9 and 8 reach exactly one vertex each; 0 reaches the
                    // 3-cycle plus the tail {0,1,2,3,4}.
                    EXPECT_EQ(got.visited, 1u + 1u + 5u);
                  });
}

TEST(MsBfs, EmptyRootSpanIsANoop) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    const MsBfsResult got = msbfs(g, comm, {});
                    EXPECT_EQ(got.n_roots, 0u);
                    EXPECT_EQ(got.num_levels, 0);
                    EXPECT_EQ(got.visited, 0u);
                    EXPECT_TRUE(got.level.empty());
                  });
}

TEST(MsBfs, ValidatesBatchSize) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    const std::vector<gvid_t> roots = {0};
                    MsBfsOptions mo;
                    mo.batch_size = 0;
                    EXPECT_THROW(msbfs(g, comm, roots, mo), CheckError);
                    mo.batch_size = 65;
                    EXPECT_THROW(msbfs(g, comm, roots, mo), CheckError);
                    comm.barrier();  // all ranks threw; resynchronize
                  });
}

// Masks index one batch, so a masked call must hold one mask per local
// vertex and at most batch_size roots.  Either mistake is a named error out
// of CommWorld::run; when only the last rank's span is short the others,
// already inside the MS-BFS collectives, are released rather than hung.
TEST(MsBfs, ValidatesAllowedMasks) {
  const gen::EdgeList el = tiny_graph();
  const std::vector<gvid_t> roots = {0, 5, 8};
  for (const int p : {1, 2, 4}) {
    for (const bool too_many_roots : {false, true}) {
      SCOPED_TRACE(std::to_string(p) + " ranks" +
                   (too_many_roots ? ", 3 roots in a batch of 2"
                                   : ", short mask span"));
      parcomm::CommWorld world(p);
      try {
        world.run([&](parcomm::Communicator& comm) {
          const DistGraph g = dgraph::Builder::from_edge_list(
              comm, el, dgraph::PartitionKind::kVertexBlock);
          const bool short_span = !too_many_roots && comm.rank() == p - 1;
          std::vector<std::uint64_t> allowed(g.n_loc(), ~std::uint64_t{0});
          MsBfsOptions mo;
          mo.allowed = std::span<const std::uint64_t>(allowed).first(
              g.n_loc() - (short_span ? 1 : 0));
          if (too_many_roots) mo.batch_size = 2;
          (void)msbfs(g, comm, roots, mo);
        });
        ADD_FAILURE() << "invalid masks must not run";
      } catch (const CheckError& e) {
        const std::string want = too_many_roots
                                     ? "at most 2 roots, got 3"
                                     : "need one per local vertex";
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
      }
    }
  }
}

// Every msbfs call on one graph exchanges over the graph's kBoth plan: three
// calls (each of several batches) build it once per rank, and each call's
// levels still match per-source bfs().
TEST(MsBfs, RepeatedCallsShareOnePlan) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  obs::Tracer tracer;
  tracer.install();
  with_dist_graph(el, {4, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    obs::RankGuard guard(comm.rank());
                    MsBfsOptions mo;
                    mo.batch_size = 8;
                    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
                      const auto roots = draw_roots(el.n, 20, seed);
                      const auto want =
                          reference_levels(g, comm, roots, Dir::kOut);
                      const MsBfsResult got = msbfs(g, comm, roots, mo);
                      expect_levels_match(g, got, want,
                                          "seed=" + std::to_string(seed));
                    }
                  });
  obs::Tracer::uninstall();
  for (int rank = 0; rank < 4; ++rank)
    EXPECT_EQ(span_count(tracer, rank, obs::span_name::kGhostPlan), 1u)
        << "rank " << rank;
}

// The visitor stream must deliver each (root, vertex) discovery exactly once,
// at its BFS level, with a correct batch_begin offset.
TEST(MsBfs, VisitorMasksAreSingleShotAndLevelConsistent) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const std::vector<gvid_t> roots = draw_roots(el.n, 70, 0xabcULL);

  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    const auto want = reference_levels(g, comm, roots, Dir::kOut);
    std::vector<std::int64_t> stamped(roots.size() * g.n_loc(), kUnvisited);
    MsBfsOptions mo;
    msbfs_visit(g, comm, roots, mo,
                [&](std::int64_t level, std::span<const std::uint64_t> newly,
                    std::span<const gvid_t> batch_roots,
                    std::size_t batch_begin) {
                  ASSERT_LE(batch_begin + batch_roots.size(), roots.size());
                  for (lvid_t v = 0; v < g.n_loc(); ++v) {
                    std::uint64_t m = newly[v];
                    for (std::size_t j = 0; m != 0; ++j, m >>= 1) {
                      if (!(m & 1)) continue;
                      ASSERT_LT(j, batch_roots.size());
                      auto& slot = stamped[(batch_begin + j) * g.n_loc() + v];
                      ASSERT_EQ(slot, kUnvisited)
                          << "double discovery of vertex " << g.global_id(v);
                      slot = level;
                    }
                  }
                });
    for (std::size_t j = 0; j < roots.size(); ++j)
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        ASSERT_EQ(stamped[j * g.n_loc() + v], want[j][v]);
  });
}

}  // namespace
}  // namespace hpcgraph::analytics
