// Distributed Label Propagation (Algorithm 1 + 3) vs the sequential
// reference: bit-exact label equality in synchronous mode, invariants in
// the paper's in-place mode, planted-community recovery.

#include <gtest/gtest.h>

#include <set>

#include "analytics/label_prop.hpp"
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

class LabelPropParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(LabelPropParam, SynchronousModeMatchesReferenceExactly) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const auto want =
      ref::label_propagation(ref::SeqGraph::from(el), 6, /*tie_seed=*/42);

  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    LabelPropOptions opts;
    opts.iterations = 6;
    opts.tie_seed = 42;
    const LabelPropResult res = label_propagation(g, comm, opts);
    EXPECT_EQ(res.iterations_run, 6);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.labels[v], want[g.global_id(v)])
          << "vertex " << g.global_id(v);
  });
}

TEST_P(LabelPropParam, ResultIndependentOfRankCount) {
  // Synchronous LP must give the same labels for any distribution; compare
  // this config's output against the 1-rank run.
  const gen::EdgeList el = tiny_graph();
  std::vector<std::uint64_t> single(el.n);
  with_dist_graph(el, {1, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator&) {
                    for (lvid_t v = 0; v < g.n_loc(); ++v)
                      single[g.global_id(v)] = 0;  // placeholder init
                  });
  LabelPropOptions opts;
  opts.iterations = 4;
  opts.tie_seed = 7;
  with_dist_graph(el, {1, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    const auto res = label_propagation(g, comm, opts);
                    for (lvid_t v = 0; v < g.n_loc(); ++v)
                      single[g.global_id(v)] = res.labels[v];
                  });
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    const auto res = label_propagation(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.labels[v], single[g.global_id(v)]);
  });
}

TEST_P(LabelPropParam, InPlaceModeLabelsAreValidVertexIds) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    LabelPropOptions opts;
    opts.iterations = 5;
    opts.in_place = true;
    const auto res = label_propagation(g, comm, opts);
    for (const auto l : res.labels) ASSERT_LT(l, el.n);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LabelPropParam, ::testing::ValuesIn(standard_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(LabelProp, RecoversPlantedCliqueCommunities) {
  // Two directed 5-cliques, one weak bridge: LP should separate them.
  gen::EdgeList el;
  el.n = 10;
  for (gvid_t base : {gvid_t{0}, gvid_t{5}})
    for (gvid_t a = 0; a < 5; ++a)
      for (gvid_t b = 0; b < 5; ++b)
        if (a != b) el.edges.push_back({base + a, base + b});
  el.edges.push_back({2, 7});
  with_dist_graph(el, {3, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    LabelPropOptions opts;
                    opts.iterations = 10;
                    const auto res = label_propagation(g, comm, opts);
                    // Within each clique all local members share one label;
                    // check consistency via a global gather.
                    const auto global = gather_global<std::uint64_t>(
                        g, comm, res.labels);
                    for (gvid_t v = 1; v < 5; ++v)
                      ASSERT_EQ(global[v], global[0]);
                    for (gvid_t v = 6; v < 10; ++v)
                      ASSERT_EQ(global[v], global[5]);
                    ASSERT_NE(global[0], global[5]);
                  });
}

TEST(LabelProp, MostPlantedWebCommunitiesRecovered) {
  gen::WebGraphParams wp;
  wp.n = 1 << 12;
  wp.avg_degree = 12;
  wp.p_intra = 0.8;  // strong communities for a clean recovery signal
  const gen::WebGraph wg = gen::webgraph(wp);
  with_dist_graph(wg.graph, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    LabelPropOptions opts;
                    opts.iterations = 10;
                    const auto res = label_propagation(g, comm, opts);
                    const auto global =
                        gather_global<std::uint64_t>(g, comm, res.labels);
                    // Count planted communities (size >= 4) whose members
                    // ended with one dominant label.
                    std::map<std::uint32_t, std::map<std::uint64_t, int>>
                        votes;
                    std::map<std::uint32_t, int> sizes;
                    for (gvid_t v = 0; v < wg.graph.n; ++v) {
                      ++votes[wg.comm_of[v]][global[v]];
                      ++sizes[wg.comm_of[v]];
                    }
                    int pure = 0, eligible = 0;
                    for (const auto& [c, tally] : votes) {
                      if (sizes[c] < 4) continue;
                      ++eligible;
                      int best = 0;
                      for (const auto& [l, n] : tally) best = std::max(best, n);
                      if (best * 2 >= sizes[c]) ++pure;  // dominant label
                    }
                    ASSERT_GT(eligible, 10);
                    EXPECT_GT(static_cast<double>(pure) / eligible, 0.6);
                  });
}

TEST(LabelProp, ThreadedMatchesSerial) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  std::vector<std::uint64_t> serial(el.n);
  parcomm::CommWorld world(2);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g = dgraph::Builder::from_edge_list(
        comm, el, dgraph::PartitionKind::kVertexBlock);
    LabelPropOptions opts;
    opts.iterations = 5;
    const auto a = label_propagation(g, comm, opts);
    ThreadPool pool(4);
    opts.common.pool = &pool;
    const auto b = label_propagation(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(a.labels[v], b.labels[v]);
  });
}

TEST(LabelProp, RebuildAblationGivesSameLabels) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, {2, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    LabelPropOptions opts;
                    opts.retain_queues = true;
                    const auto a = label_propagation(g, comm, opts);
                    opts.retain_queues = false;
                    const auto b = label_propagation(g, comm, opts);
                    EXPECT_EQ(a.labels, b.labels);
                  });
}

TEST(LabelProp, ZeroIterationsKeepsInitialLabels) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    LabelPropOptions opts;
                    opts.iterations = 0;
                    const auto res = label_propagation(g, comm, opts);
                    for (lvid_t v = 0; v < g.n_loc(); ++v)
                      ASSERT_EQ(res.labels[v], g.global_id(v));
                  });
}

}  // namespace
}  // namespace hpcgraph::analytics
