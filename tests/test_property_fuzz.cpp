// Randomized property suites: seed-parameterized sweeps that cross-check
// the distributed pipeline against the sequential oracles on arbitrary
// graphs (duplicates, self loops, isolated vertices, skew) under a drawn
// rank count and a cycled partition and pool width, plus fuzzed collectives
// and queues.

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "analytics/analytics.hpp"
#include "baselines/edgestream.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "ref/ref_analytics.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hpcgraph {
namespace {

using dgraph::DistGraph;
using dgraph::PartitionKind;
using hpcgraph::testing::with_dist_graph;

/// Arbitrary messy digraph: random density, guaranteed self loops,
/// duplicates, and isolated vertices.
gen::EdgeList messy_graph(std::uint64_t seed) {
  Rng rng(seed * 77 + 5);
  gen::EdgeList g;
  g.n = 64 + rng.below(512);
  const std::uint64_t m = rng.below(g.n * 6);
  for (std::uint64_t e = 0; e < m; ++e)
    g.edges.push_back({rng.below(g.n), rng.below(g.n)});
  if (g.n > 4) {
    g.edges.push_back({3, 3});            // self loop
    g.edges.push_back({1, 2});            // duplicate pair
    g.edges.push_back({1, 2});
  }
  return g;
}

/// A configuration derived from the seed: the distributed layout and each
/// rank's pool width.  The partition kind and the pool width cycle with the
/// seed, so every test, called with its own offset over consecutive seeds,
/// meets every kind and both widths; the rank count is drawn.  At most
/// 8 ranks x 4 threads = 32 threads.
struct FuzzConfig {
  hpcgraph::testing::DistConfig dist;
  unsigned threads = 1;
};

FuzzConfig config_for(std::uint64_t seed) {
  Rng rng(seed * 31 + 9);
  const int ranks[] = {1, 2, 3, 4, 5, 8};
  const PartitionKind kinds[] = {PartitionKind::kVertexBlock,
                                 PartitionKind::kEdgeBlock,
                                 PartitionKind::kRandom};
  FuzzConfig c;
  c.dist = {ranks[rng.below(6)], kinds[seed % 3]};
  c.threads = (seed / 3) % 2 == 0 ? 1 : 4;
  return c;
}

/// Runs body(g, comm, common) on the configuration's layout; `common`
/// carries a pool of the configuration's width, private to the rank.
template <typename F>
void with_fuzz_config(const gen::EdgeList& el, const FuzzConfig& cfg,
                      F&& body) {
  with_dist_graph(el, cfg.dist,
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    ThreadPool pool(cfg.threads);
                    analytics::CommonOptions common;
                    common.pool = &pool;
                    body(g, comm, common);
                  });
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, WccMatchesOracleOnMessyGraph) {
  const gen::EdgeList el = messy_graph(GetParam());
  const auto want = ref::wcc(ref::SeqGraph::from(el));
  with_fuzz_config(el, config_for(GetParam()),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::WccOptions opts;
    opts.common = common;
    const auto res = analytics::wcc(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.comp[v], want[g.global_id(v)]);
  });
}

TEST_P(FuzzSeed, BfsMatchesOracleOnMessyGraph) {
  const gen::EdgeList el = messy_graph(GetParam());
  Rng rng(GetParam());
  const gvid_t root = rng.below(el.n);
  const auto want = ref::bfs_levels(ref::SeqGraph::from(el), root, true);
  with_fuzz_config(el, config_for(GetParam() + 1),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::BfsOptions opts;
    opts.common = common;
    const auto res = analytics::bfs(g, comm, root, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const std::int64_t got = res.level[v] >= 0 ? res.level[v] : -1;
      ASSERT_EQ(got, want[g.global_id(v)]);
    }
  });
}

TEST_P(FuzzSeed, SccMembershipMatchesTarjan) {
  const gen::EdgeList el = messy_graph(GetParam());
  const auto tarjan = ref::scc(ref::SeqGraph::from(el));
  with_fuzz_config(el, config_for(GetParam() + 2),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::SccOptions opts;
    opts.common = common;
    const auto res = analytics::largest_scc(g, comm, opts);
    const gvid_t cls = tarjan[res.pivot];
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.member[v] != 0, tarjan[g.global_id(v)] == cls);
  });
}

TEST_P(FuzzSeed, KcoreBoundsMatchOracle) {
  const gen::EdgeList el = messy_graph(GetParam());
  const auto want = ref::kcore_approx(ref::SeqGraph::from(el), 16);
  with_fuzz_config(el, config_for(GetParam() + 3),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::KCoreOptions opts;
    opts.common = common;
    opts.max_i = 16;
    opts.track_components = false;
    const auto res = analytics::kcore_approx(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.bound[v], want[g.global_id(v)]);
  });
}

TEST_P(FuzzSeed, SsspMatchesDijkstra) {
  const gen::EdgeList el = messy_graph(GetParam());
  Rng rng(GetParam() + 7);
  const gvid_t root = rng.below(el.n);
  const auto want = ref::sssp_dijkstra(ref::SeqGraph::from(el), root, 32);
  with_fuzz_config(el, config_for(GetParam() + 4),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::SsspOptions opts;
    opts.common = common;
    opts.max_weight = 32;
    const auto res = analytics::sssp(g, comm, root, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const auto w = want[g.global_id(v)];
      ASSERT_EQ(res.dist[v],
                w == ref::kInfDistance ? analytics::kInfDistance : w);
    }
  });
}

TEST_P(FuzzSeed, PagerankMassConservedAndMatchesStream) {
  const gen::EdgeList el = messy_graph(GetParam());
  const auto stream = baselines::stream_pagerank(baselines::EdgeStream(el), 8);
  with_fuzz_config(el, config_for(GetParam() + 5),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::PageRankOptions opts;
    opts.common = common;
    opts.max_iterations = 8;
    const auto res = analytics::pagerank(g, comm, opts);
    double local = std::accumulate(res.scores.begin(), res.scores.end(), 0.0);
    ASSERT_NEAR(comm.allreduce_sum(local), 1.0, 1e-9);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_NEAR(res.scores[v], stream[g.global_id(v)], 1e-10);
  });
}

TEST_P(FuzzSeed, LabelPropMatchesOracleExactly) {
  const gen::EdgeList el = messy_graph(GetParam());
  const auto want =
      ref::label_propagation(ref::SeqGraph::from(el), 4, GetParam());
  with_fuzz_config(el, config_for(GetParam() + 6),
                   [&](const DistGraph& g, parcomm::Communicator& comm,
                       const analytics::CommonOptions& common) {
    analytics::LabelPropOptions opts;
    opts.common = common;
    opts.iterations = 4;
    opts.tie_seed = GetParam();
    const auto res = analytics::label_propagation(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.labels[v], want[g.global_id(v)]);
  });
}

TEST_P(FuzzSeed, AlltoallvMatchesOracleExchange) {
  // Random payload sizes per (src, dst) pair, validated against a directly
  // computed expectation.
  Rng rng(GetParam() * 13 + 1);
  const int p = 2 + static_cast<int>(rng.below(6));
  // counts[s][d], payload value = s * 1000003 + d * 997 + k.
  std::vector<std::vector<std::uint64_t>> counts(
      p, std::vector<std::uint64_t>(p));
  for (int s = 0; s < p; ++s)
    for (int d = 0; d < p; ++d) counts[s][d] = rng.below(50);

  parcomm::CommWorld world(p);
  world.run([&](parcomm::Communicator& comm) {
    const int me = comm.rank();
    std::vector<std::uint64_t> send;
    for (int d = 0; d < p; ++d)
      for (std::uint64_t k = 0; k < counts[me][d]; ++k)
        send.push_back(static_cast<std::uint64_t>(me) * 1000003 +
                       static_cast<std::uint64_t>(d) * 997 + k);
    std::vector<std::uint64_t> rcounts;
    const auto recv =
        comm.alltoallv<std::uint64_t>(send, counts[me], &rcounts);
    std::size_t at = 0;
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(rcounts[s], counts[s][me]);
      for (std::uint64_t k = 0; k < counts[s][me]; ++k)
        ASSERT_EQ(recv[at++], static_cast<std::uint64_t>(s) * 1000003 +
                                  static_cast<std::uint64_t>(me) * 997 + k);
    }
    ASSERT_EQ(at, recv.size());
  });
}

TEST_P(FuzzSeed, PartitionsCoverIdSpaceExactlyOnce) {
  Rng rng(GetParam() * 17 + 3);
  const gvid_t n = 1 + rng.below(3000);
  const int p = 1 + static_cast<int>(rng.below(12));
  for (const auto& part :
       {dgraph::Partition::vertex_block(n, p),
        dgraph::Partition::random(n, p, GetParam())}) {
    std::uint64_t total = 0;
    for (int r = 0; r < p; ++r) {
      for (const gvid_t v : part.owned_vertices(r))
        ASSERT_EQ(part.owner(v), r);
      total += part.num_owned(r);
    }
    ASSERT_EQ(total, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hpcgraph
