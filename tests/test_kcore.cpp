// Distributed approximate k-core vs the sequential reference: exact bound
// equality (the stage fixpoints are order-independent), upper-bound
// property against exact coreness, and per-stage statistics against the
// stage oracle.

#include <gtest/gtest.h>

#include "analytics/kcore.hpp"
#include "dgraph/builder.hpp"
#include "gen/rmat.hpp"
#include "gen/webgraph.hpp"
#include "ref/ref_analytics.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::analytics {
namespace {

using dgraph::DistGraph;
using hpcgraph::testing::DistConfig;
using hpcgraph::testing::standard_configs;
using hpcgraph::testing::tiny_graph;
using hpcgraph::testing::with_dist_graph;

class KcoreParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(KcoreParam, BoundsMatchReferenceExactly) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const auto want = ref::kcore_approx(ref::SeqGraph::from(el), 20);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 20;
    opts.track_components = false;  // faster; components tested separately
    const KCoreResult res = kcore_approx(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.bound[v], want[g.global_id(v)])
          << "vertex " << g.global_id(v);
  });
}

TEST_P(KcoreParam, BoundsDominateExactCoreness) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const auto exact = ref::kcore_exact(ref::SeqGraph::from(el));

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 20;
    opts.track_components = false;
    const KCoreResult res = kcore_approx(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_GE(res.bound[v], exact[g.global_id(v)]);
  });
}

TEST_P(KcoreParam, StageStatisticsAreCoherent) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 20;
    const KCoreResult res = kcore_approx(g, comm, opts);
    std::uint64_t prev_alive = el.n;
    std::uint64_t removed_total = 0;
    for (const KCoreStage& s : res.stages) {
      EXPECT_EQ(s.threshold, std::uint64_t{1} << s.i);
      EXPECT_EQ(s.alive_after, prev_alive - s.removed);
      EXPECT_LE(s.largest_cc, s.alive_after);
      EXPECT_GE(s.peel_sweeps, 1);
      prev_alive = s.alive_after;
      removed_total += s.removed;
    }
    EXPECT_LE(removed_total, el.n);
  });
}

// Every stage field but peel_sweeps equals the sequential oracle: removed
// and alive_after from the peel, largest_cc from an undirected BFS over the
// survivors from the stage's root.  A wrong allowed-roots mask or a wrong
// per-root count in the component sweep shows here.  The pool width may
// change only the rounds.
TEST_P(KcoreParam, StagesMatchReference) {
  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 8;
  gen::WebGraphParams wp;
  wp.n = 1 << 10;
  for (const gen::EdgeList& el : {gen::rmat(rp), gen::webgraph(wp).graph}) {
    const std::vector<ref::KCoreStage> want =
        ref::kcore_stages(ref::SeqGraph::from(el));
    with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                        parcomm::Communicator& comm) {
      for (const unsigned nt : {1U, 4U}) {
        SCOPED_TRACE(el.name + " nt=" + std::to_string(nt));
        ThreadPool pool(nt);
        KCoreOptions opts;
        opts.common.pool = &pool;
        const KCoreResult res = kcore_approx(g, comm, opts);
        ASSERT_EQ(res.stages.size(), want.size());
        for (std::size_t j = 0; j < want.size(); ++j) {
          const KCoreStage& got = res.stages[j];
          EXPECT_EQ(got.i, want[j].i) << "stage " << j;
          EXPECT_EQ(got.threshold, want[j].threshold) << "stage " << j;
          EXPECT_EQ(got.removed, want[j].removed) << "stage " << j;
          EXPECT_EQ(got.alive_after, want[j].alive_after) << "stage " << j;
          EXPECT_EQ(got.largest_cc, want[j].largest_cc) << "stage " << j;
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KcoreParam, ::testing::ValuesIn(standard_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(Kcore, CliqueSurvivesUntilThresholdExceedsDegree) {
  // Directed K6 both ways: total degree 10; removed when 2^i > 10 => i=4.
  gen::EdgeList el;
  el.n = 6;
  for (gvid_t a = 0; a < 6; ++a)
    for (gvid_t b = 0; b < 6; ++b)
      if (a != b) el.edges.push_back({a, b});
  with_dist_graph(el, {3, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    KCoreOptions opts;
                    opts.max_i = 8;
                    const KCoreResult res = kcore_approx(g, comm, opts);
                    for (lvid_t v = 0; v < g.n_loc(); ++v)
                      ASSERT_EQ(res.bound[v], 16u);
                    // Stages 1..3 remove nothing; stage 4 removes all 6.
                    ASSERT_GE(res.stages.size(), 4u);
                    EXPECT_EQ(res.stages[0].removed, 0u);
                    EXPECT_EQ(res.stages[3].removed, 6u);
                    EXPECT_EQ(res.stages[3].alive_after, 0u);
                  });
}

TEST(Kcore, LargestCcTrackedPerStage) {
  // Two cliques of different sizes: after peeling the small one away, the
  // largest CC equals the big clique.
  gen::EdgeList el;
  el.n = 12;
  // K8 on 0..7 (total degree 14), K4 on 8..11 (total degree 6).
  for (gvid_t a = 0; a < 8; ++a)
    for (gvid_t b = 0; b < 8; ++b)
      if (a != b) el.edges.push_back({a, b});
  for (gvid_t a = 8; a < 12; ++a)
    for (gvid_t b = 8; b < 12; ++b)
      if (a != b) el.edges.push_back({a, b});
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 6;
    const KCoreResult res = kcore_approx(g, comm, opts);
    // Stage 3 (threshold 8): K4 (degree 6) peeled, K8 survives whole.
    ASSERT_GE(res.stages.size(), 3u);
    EXPECT_EQ(res.stages[2].alive_after, 8u);
    EXPECT_EQ(res.stages[2].largest_cc, 8u);
  });
}

// 2^64 overflows the threshold and one 64-bit mask holds at most 63 stage
// roots: max_i 64 is a named error on every rank, and max_i 63 runs.
TEST(Kcore, MaxStagesIsANamedError) {
  const gen::EdgeList el = tiny_graph();
  for (const int p : {1, 3}) {
    parcomm::CommWorld world(p);
    try {
      world.run([&](parcomm::Communicator& comm) {
        const DistGraph g = dgraph::Builder::from_edge_list(
            comm, el, dgraph::PartitionKind::kVertexBlock);
        KCoreOptions opts;
        opts.max_i = 64;
        (void)kcore_approx(g, comm, opts);
      });
      ADD_FAILURE() << "max_i 64 must not run (" << p << " ranks)";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("max_i must be at most 63"),
                std::string::npos)
          << e.what();
    }
  }
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    KCoreOptions opts;
                    opts.max_i = 63;
                    const KCoreResult res = kcore_approx(g, comm, opts);
                    ASSERT_FALSE(res.stages.empty());
                    EXPECT_EQ(res.stages.back().alive_after, 0u);
                    for (lvid_t v = 0; v < g.n_loc(); ++v) {
                      if (g.global_id(v) == 9) {
                        EXPECT_EQ(res.bound[v], 2u);
                      }
                    }
                  });
}

TEST(Kcore, IsolatedAndSelfLoopVertices) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 10;
    const KCoreResult res = kcore_approx(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const gvid_t gid = g.global_id(v);
      if (gid == 9) {  // isolated: degree 0, removed at stage 1
        ASSERT_EQ(res.bound[v], 2u);
      }
      if (gid == 8) {  // self loop: degree 2, survives stage 1, gone at 2
        ASSERT_EQ(res.bound[v], 4u);
      }
    }
  });
}

TEST(Kcore, WebGraphCdfShapeMatchesPaper) {
  // Figure 6's qualitative claim: the overwhelming majority of vertices
  // have small coreness bounds.
  gen::WebGraphParams wp;
  wp.n = 1 << 13;
  const gen::WebGraph wg = gen::webgraph(wp);
  with_dist_graph(wg.graph, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    KCoreOptions opts;
    opts.max_i = 20;
    opts.track_components = false;
    const KCoreResult res = kcore_approx(g, comm, opts);
    std::uint64_t small_local = 0;
    for (const auto b : res.bound)
      if (b <= 64) ++small_local;
    const auto small_total = comm.allreduce_sum(small_local);
    EXPECT_GT(static_cast<double>(small_total) / wg.graph.n, 0.5);
  });
}

// ---------- exact coreness refinement (paper §VI: "can be refined") ------

class KcoreExactParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(KcoreExactParam, MatchesSequentialPeeling) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  const auto want = ref::kcore_exact(ref::SeqGraph::from(el));
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    const KCoreExactResult res = kcore_exact(g, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.core[v], want[g.global_id(v)])
          << "vertex " << g.global_id(v);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KcoreExactParam,
    ::testing::ValuesIn(hpcgraph::testing::small_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(KcoreExact, CliqueCorenessExact) {
  // Directed K5 both ways: coreness (total-degree convention) = 8.
  gen::EdgeList el;
  el.n = 5;
  for (gvid_t a = 0; a < 5; ++a)
    for (gvid_t b = 0; b < 5; ++b)
      if (a != b) el.edges.push_back({a, b});
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    const KCoreExactResult res = kcore_exact(g, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v) ASSERT_EQ(res.core[v], 8u);
    EXPECT_EQ(res.max_core, 8u);
  });
}

// Levels below the smallest survivor degree remove nothing and are skipped:
// directed K5 both ways (total degree 8) peels in one level, at k = 9, where
// unit steps took nine.  Isolated vertices add the one level that removes
// them and keep core 0.
TEST(KcoreExact, SkipsLevelsThatRemoveNothing) {
  for (const gvid_t isolated : {gvid_t{0}, gvid_t{3}}) {
    gen::EdgeList el;
    el.n = 5 + isolated;
    for (gvid_t a = 0; a < 5; ++a)
      for (gvid_t b = 0; b < 5; ++b)
        if (a != b) el.edges.push_back({a, b});
    with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                    [&](const DistGraph& g, parcomm::Communicator& comm) {
                      const KCoreExactResult res = kcore_exact(g, comm);
                      for (lvid_t v = 0; v < g.n_loc(); ++v)
                        ASSERT_EQ(res.core[v], g.global_id(v) < 5 ? 8u : 0u);
                      EXPECT_EQ(res.max_core, 8u);
                      EXPECT_EQ(res.stages, isolated == 0 ? 1 : 2);
                    });
  }
}

TEST(KcoreExact, RefinesApproximateBounds) {
  // The paper's remark: the 2^i bounds dominate the exact coreness.
  gen::WebGraphParams wp;
  wp.n = 1 << 11;
  const gen::WebGraph wg = gen::webgraph(wp);
  with_dist_graph(wg.graph, {3, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    KCoreOptions aopts;
    aopts.max_i = 20;
    aopts.track_components = false;
    const KCoreResult approx = kcore_approx(g, comm, aopts);
    const KCoreExactResult exact = kcore_exact(g, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_GE(approx.bound[v], exact.core[v]);
  });
}

TEST(KcoreExact, IsolatedVerticesHaveCoreZero) {
  gen::EdgeList el;
  el.n = 6;
  el.edges = {{0, 1}, {1, 0}};
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    const KCoreExactResult res = kcore_exact(g, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const gvid_t gid = g.global_id(v);
      ASSERT_EQ(res.core[v], gid <= 1 ? 2u : 0u);
    }
  });
}

}  // namespace
}  // namespace hpcgraph::analytics
