// Sanity tests for the sequential golden implementations on hand-verified
// graphs.  These are the oracles the distributed suites compare against, so
// they get their own careful scrutiny.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "gen/rmat.hpp"
#include "ref/ref_analytics.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::ref {
namespace {

using gen::EdgeList;

SeqGraph path3() {
  // 0 -> 1 -> 2
  EdgeList g;
  g.n = 3;
  g.edges = {{0, 1}, {1, 2}};
  return SeqGraph::from(g);
}

SeqGraph cycle4() {
  EdgeList g;
  g.n = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  return SeqGraph::from(g);
}

// ---------- SeqGraph ----------

TEST(SeqGraph, BuildsCsrBothDirections) {
  const SeqGraph g = path3();
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 2u);
  ASSERT_EQ(g.out_neighbors(0).size(), 1u);
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  ASSERT_EQ(g.in_neighbors(2).size(), 1u);
  EXPECT_EQ(g.in_neighbors(2)[0], 1u);
  EXPECT_EQ(g.out_degree(2), 0u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(SeqGraph, PreservesDuplicatesAndSelfLoops) {
  EdgeList el;
  el.n = 2;
  el.edges = {{0, 1}, {0, 1}, {1, 1}};
  const SeqGraph g = SeqGraph::from(el);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 3u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

// ---------- PageRank ----------

TEST(RefPageRank, SumsToOne) {
  const SeqGraph g = SeqGraph::from(hpcgraph::testing::tiny_graph());
  const auto pr = pagerank(g, 20);
  const double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RefPageRank, UniformOnCycle) {
  const auto pr = pagerank(cycle4(), 50);
  for (const double s : pr) EXPECT_NEAR(s, 0.25, 1e-12);
}

TEST(RefPageRank, SinkAccumulatesOnPath) {
  // On 0->1->2, rank must be increasing along the path.
  const auto pr = pagerank(path3(), 50);
  EXPECT_LT(pr[0], pr[1]);
  EXPECT_LT(pr[1], pr[2]);
}

TEST(RefPageRank, DanglingMassRedistributed) {
  // Star into a dangling center: mass must not leak (sum stays 1).
  EdgeList el;
  el.n = 4;
  el.edges = {{1, 0}, {2, 0}, {3, 0}};  // vertex 0 dangles
  const auto pr = pagerank(SeqGraph::from(el), 30);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-12);
  EXPECT_GT(pr[0], pr[1]);
}

TEST(RefPageRank, ZeroIterationsIsUniform) {
  const auto pr = pagerank(cycle4(), 0);
  for (const double s : pr) EXPECT_DOUBLE_EQ(s, 0.25);
}

// ---------- BFS ----------

TEST(RefBfs, DirectedLevels) {
  const auto lvl = bfs_levels(path3(), 0, true);
  EXPECT_EQ(lvl, (std::vector<std::int64_t>{0, 1, 2}));
  const auto lvl2 = bfs_levels(path3(), 2, true);
  EXPECT_EQ(lvl2, (std::vector<std::int64_t>{-1, -1, 0}));
}

TEST(RefBfs, UndirectedReachesBackwards) {
  const auto lvl = bfs_levels(path3(), 2, false);
  EXPECT_EQ(lvl, (std::vector<std::int64_t>{2, 1, 0}));
}

TEST(RefBfs, SelfLoopDoesNotInflateLevels) {
  EdgeList el;
  el.n = 2;
  el.edges = {{0, 0}, {0, 1}};
  const auto lvl = bfs_levels(SeqGraph::from(el), 0, true);
  EXPECT_EQ(lvl, (std::vector<std::int64_t>{0, 1}));
}

// ---------- WCC ----------

TEST(RefWcc, TinyGraphComponents) {
  const SeqGraph g = SeqGraph::from(hpcgraph::testing::tiny_graph());
  const auto comp = wcc(g);
  // {0,1,2,3,4} | {5,6,7} | {8} | {9}
  EXPECT_EQ(comp[0], 0u);
  EXPECT_EQ(comp[4], 0u);
  EXPECT_EQ(comp[5], 5u);
  EXPECT_EQ(comp[7], 5u);
  EXPECT_EQ(comp[8], 8u);
  EXPECT_EQ(comp[9], 9u);
}

TEST(RefWcc, DirectionIgnored) {
  EdgeList el;
  el.n = 3;
  el.edges = {{1, 0}, {1, 2}};  // weakly connected despite directions
  const auto comp = wcc(SeqGraph::from(el));
  EXPECT_EQ(comp, (std::vector<gvid_t>{0, 0, 0}));
}

// ---------- SCC ----------

TEST(RefScc, TinyGraphSccs) {
  const SeqGraph g = SeqGraph::from(hpcgraph::testing::tiny_graph());
  const auto comp = scc(g);
  // SCCs: {0,1,2}, {3}, {4}, {5,6}, {7}, {8}, {9}
  EXPECT_EQ(comp[0], 0u);
  EXPECT_EQ(comp[1], 0u);
  EXPECT_EQ(comp[2], 0u);
  EXPECT_EQ(comp[3], 3u);
  EXPECT_EQ(comp[4], 4u);
  EXPECT_EQ(comp[5], 5u);
  EXPECT_EQ(comp[6], 5u);
  EXPECT_EQ(comp[7], 7u);
  EXPECT_EQ(comp[8], 8u);
  EXPECT_EQ(comp[9], 9u);
}

TEST(RefScc, LargestSccOfTinyGraph) {
  const SeqGraph g = SeqGraph::from(hpcgraph::testing::tiny_graph());
  const auto members = largest_scc(g);
  EXPECT_EQ(members, (std::vector<gvid_t>{0, 1, 2}));
}

TEST(RefScc, WholeCycleIsOneScc) {
  const auto comp = scc(cycle4());
  for (const auto c : comp) EXPECT_EQ(c, 0u);
}

TEST(RefScc, DagIsAllSingletons) {
  const auto comp = scc(path3());
  EXPECT_EQ(comp, (std::vector<gvid_t>{0, 1, 2}));
}

TEST(RefScc, HandlesDeepRecursionIteratively) {
  // A 60k-vertex path would blow the stack with recursive Tarjan.
  EdgeList el;
  el.n = 60000;
  for (gvid_t v = 0; v + 1 < el.n; ++v) el.edges.push_back({v, v + 1});
  const auto comp = scc(SeqGraph::from(el));
  EXPECT_EQ(comp[0], 0u);
  EXPECT_EQ(comp[59999], 59999u);
}

// ---------- Harmonic centrality ----------

TEST(RefHarmonic, PathValues) {
  // From 0 on 0->1->2: 1/1 + 1/2 = 1.5
  EXPECT_DOUBLE_EQ(harmonic_centrality(path3(), 0), 1.5);
  // From 2: nothing reachable.
  EXPECT_DOUBLE_EQ(harmonic_centrality(path3(), 2), 0.0);
}

TEST(RefHarmonic, CycleSymmetric) {
  const SeqGraph g = cycle4();
  const double h0 = harmonic_centrality(g, 0);
  for (gvid_t v = 1; v < 4; ++v)
    EXPECT_DOUBLE_EQ(harmonic_centrality(g, v), h0);
  EXPECT_DOUBLE_EQ(h0, 1.0 + 0.5 + 1.0 / 3.0);
}

// ---------- k-core ----------

TEST(RefKcore, ApproxBoundsOnClique) {
  // K5 (directed both ways): every vertex has total degree 8; peeling at
  // threshold 2^i removes all of K5 once 2^i > 8, i.e. stage i=4 (16).
  EdgeList el;
  el.n = 5;
  for (gvid_t a = 0; a < 5; ++a)
    for (gvid_t b = 0; b < 5; ++b)
      if (a != b) el.edges.push_back({a, b});
  const auto bound = kcore_approx(SeqGraph::from(el), 10);
  for (const auto b : bound) EXPECT_EQ(b, 16u);
}

TEST(RefKcore, PathPeeledImmediately) {
  // Path vertices have degree <= 2 < 2^2: ends removed at stage 1 cascade.
  const auto bound = kcore_approx(path3(), 5);
  for (const auto b : bound) EXPECT_LE(b, 4u);
}

TEST(RefKcore, ApproxIsUpperBoundOfExact) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const SeqGraph g = SeqGraph::from(gen::rmat(rp));
  const auto approx = kcore_approx(g, 20);
  const auto exact = kcore_exact(g);
  for (gvid_t v = 0; v < g.n(); ++v)
    ASSERT_GE(approx[v], exact[v]) << "bound violated at " << v;
}

TEST(RefKcore, StagesOnTwoCliquesAndAPendant) {
  // K8 on 0..7 (total degree 14), K4 on 8..11 (degree 6) and vertex 12 tied
  // to vertex 0 by an edge each way (degree 2).  Stage 1 peels nothing and
  // roots at 0 (degree 16), whose component holds K8 and 12; stage 2 peels
  // 12; stage 3 the K4, leaving K8; stage 4 everything.
  EdgeList el;
  el.n = 13;
  for (gvid_t a = 0; a < 8; ++a)
    for (gvid_t b = 0; b < 8; ++b)
      if (a != b) el.edges.push_back({a, b});
  for (gvid_t a = 8; a < 12; ++a)
    for (gvid_t b = 8; b < 12; ++b)
      if (a != b) el.edges.push_back({a, b});
  el.edges.push_back({12, 0});
  el.edges.push_back({0, 12});
  const std::vector<KCoreStage> st = kcore_stages(SeqGraph::from(el), 10);
  ASSERT_EQ(st.size(), 4u);
  const std::uint64_t removed[] = {0, 1, 4, 8};
  const std::uint64_t alive[] = {13, 12, 8, 0};
  const std::uint64_t cc[] = {9, 8, 8, 0};
  for (std::size_t j = 0; j < st.size(); ++j) {
    EXPECT_EQ(st[j].i, j + 1);
    EXPECT_EQ(st[j].threshold, std::uint64_t{2} << j);
    EXPECT_EQ(st[j].removed, removed[j]) << "stage " << j + 1;
    EXPECT_EQ(st[j].alive_after, alive[j]) << "stage " << j + 1;
    EXPECT_EQ(st[j].largest_cc, cc[j]) << "stage " << j + 1;
  }
  EXPECT_EQ(st[0].root, 0u);
  EXPECT_EQ(st[3].root, kNullGvid);
}

TEST(RefKcore, ExactOnClique) {
  // K4 directed both ways: coreness (total-degree convention) = 6.
  EdgeList el;
  el.n = 4;
  for (gvid_t a = 0; a < 4; ++a)
    for (gvid_t b = 0; b < 4; ++b)
      if (a != b) el.edges.push_back({a, b});
  const auto core = kcore_exact(SeqGraph::from(el));
  for (const auto c : core) EXPECT_EQ(c, 6u);
}

// ---------- Label propagation ----------

TEST(RefLabelProp, ZeroIterationsKeepsIds) {
  const auto labels = label_propagation(path3(), 0);
  EXPECT_EQ(labels, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(RefLabelProp, TwoCliquesSeparate) {
  // Two directed 4-cliques joined by one edge: LP must find two communities.
  EdgeList el;
  el.n = 8;
  for (gvid_t base : {gvid_t{0}, gvid_t{4}})
    for (gvid_t a = 0; a < 4; ++a)
      for (gvid_t b = 0; b < 4; ++b)
        if (a != b) el.edges.push_back({base + a, base + b});
  el.edges.push_back({0, 4});
  const auto labels =
      normalize_labels(label_propagation(SeqGraph::from(el), 10));
  for (gvid_t v = 0; v < 4; ++v) EXPECT_EQ(labels[v], labels[0]);
  for (gvid_t v = 4; v < 8; ++v) EXPECT_EQ(labels[v], labels[4]);
  EXPECT_NE(labels[0], labels[4]);
}

TEST(RefLabelProp, DeterministicForSeed) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const SeqGraph g = SeqGraph::from(gen::rmat(rp));
  EXPECT_EQ(label_propagation(g, 5, 1), label_propagation(g, 5, 1));
}

TEST(RefLabelProp, IsolatedVertexKeepsOwnLabel) {
  EdgeList el;
  el.n = 3;
  el.edges = {{0, 1}};
  const auto labels = label_propagation(SeqGraph::from(el), 5);
  EXPECT_EQ(labels[2], 2u);
}

// ---------- normalize_labels ----------

TEST(NormalizeLabels, CanonicalizesToMinMember) {
  const std::vector<std::uint64_t> raw{7, 7, 3, 3, 7};
  const auto norm = normalize_labels(raw);
  EXPECT_EQ(norm, (std::vector<std::uint64_t>{0, 0, 2, 2, 0}));
}

TEST(NormalizeLabels, EmptyOk) {
  EXPECT_TRUE(normalize_labels({}).empty());
}

}  // namespace
}  // namespace hpcgraph::ref
