// Tests for the retained-queue ghost exchange (§III-D1 machinery).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dgraph/ghost_exchange.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::dgraph {
namespace {

using hpcgraph::testing::DistConfig;
using hpcgraph::testing::standard_configs;
using hpcgraph::testing::with_dist_graph;

// A recognizable per-vertex function of the global id.
std::uint64_t f(gvid_t g) { return g * 2654435761ULL + 17; }

class GhostExchangeParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(GhostExchangeParam, BothDirectionUpdatesEveryGhost) {
  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) vals[v] = f(g.global_id(v));
    gx.exchange<std::uint64_t>(vals, comm);
    // Every ghost slot must now hold its owner's value.
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
      ASSERT_EQ(vals[l], f(g.global_id(l))) << g.global_id(l);
    // Local values untouched.
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(vals[v], f(g.global_id(v)));
  });
}

TEST_P(GhostExchangeParam, OutDirectionCoversInEdgeReads) {
  // PageRank reads ghost values through in-edge lists; the kOut exchange
  // must refresh exactly those ghosts.
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kOut);
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) vals[v] = f(g.global_id(v));
    gx.exchange<std::uint64_t>(vals, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      for (const lvid_t u : g.in_neighbors(v))
        ASSERT_EQ(vals[u], f(g.global_id(u)))
            << "stale in-neighbour ghost " << g.global_id(u);
  });
}

TEST_P(GhostExchangeParam, InDirectionCoversOutEdgeReads) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kIn);
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) vals[v] = f(g.global_id(v));
    gx.exchange<std::uint64_t>(vals, comm);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      for (const lvid_t u : g.out_neighbors(v))
        ASSERT_EQ(vals[u], f(g.global_id(u)))
            << "stale out-neighbour ghost " << g.global_id(u);
  });
}

TEST_P(GhostExchangeParam, RepeatedExchangesTrackChangingValues) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (int round = 1; round <= 3; ++round) {
      for (lvid_t v = 0; v < g.n_loc(); ++v)
        vals[v] = f(g.global_id(v)) + static_cast<std::uint64_t>(round);
      gx.exchange<std::uint64_t>(vals, comm);
      for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
        ASSERT_EQ(vals[l],
                  f(g.global_id(l)) + static_cast<std::uint64_t>(round));
    }
  });
}

TEST_P(GhostExchangeParam, WorksForDifferentPayloadTypes) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    std::vector<double> dvals(g.n_total(), -1.0);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      dvals[v] = 0.5 * static_cast<double>(g.global_id(v));
    gx.exchange<double>(dvals, comm);
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
      ASSERT_DOUBLE_EQ(dvals[l], 0.5 * static_cast<double>(g.global_id(l)));

    std::vector<std::uint8_t> bvals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      bvals[v] = static_cast<std::uint8_t>(g.global_id(v) & 0xff);
    gx.exchange<std::uint8_t>(bvals, comm);
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
      ASSERT_EQ(bvals[l], static_cast<std::uint8_t>(g.global_id(l) & 0xff));
  });
}

TEST_P(GhostExchangeParam, SendVolumeIsBoundedByGhostRelation) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    // Per-vertex dedup: a rank sends each local vertex at most once per
    // neighbouring task, so entries <= n_loc * (p-1), and the global number
    // of receive entries equals the global number of send entries.
    EXPECT_LE(gx.send_entries(),
              static_cast<std::uint64_t>(g.n_loc()) * (comm.size() - 1));
    const auto total_send = comm.allreduce_sum(gx.send_entries());
    const auto total_recv = comm.allreduce_sum(gx.recv_entries());
    EXPECT_EQ(total_send, total_recv);
    // Every ghost receives exactly one update per exchange.
    EXPECT_EQ(gx.recv_entries(), g.n_gst());
  });
}

// Deterministic per-(vertex, round) change selector shared by all ranks.
bool selected(gvid_t gid, int round, int permil) {
  std::uint64_t x = gid * 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(round) * 0xbf58476d1ce4e5b9ULL +
                    1;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return static_cast<int>(x % 1000) < permil;
}

// The three wire formats must be byte-identical observers: same final array,
// same changed-ghost sets, regardless of change density (0%, sparse, dense,
// 100%) or pool width.  The changed set is a pure function of the global id
// and the round, so every rank can maintain the expected mirror locally.
TEST_P(GhostExchangeParam, SparseAndAdaptiveMatchDense) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  for (const unsigned nthreads : {1u, 3u}) {
    with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                        parcomm::Communicator& comm) {
      ThreadPool pool(nthreads);
      ThreadPool* pp = nthreads > 1 ? &pool : nullptr;
      GhostExchange gxd(g, comm, Adjacency::kBoth, pp);
      GhostExchange gxs(g, comm, Adjacency::kBoth, pp);
      GhostExchange gxa(g, comm, Adjacency::kBoth, pp);

      std::vector<std::uint64_t> vd(g.n_total()), vs(g.n_total()),
          va(g.n_total()), expect(g.n_total());
      for (lvid_t l = 0; l < g.n_total(); ++l)
        vd[l] = vs[l] = va[l] = expect[l] = f(g.global_id(l));

      // Change densities per round, in permil: none, rare, heavy, all, none
      // again (an all-quiet round right after a full one).
      const int densities[] = {0, 20, 300, 1000, 0};
      int round = 0;
      for (const int permil : densities) {
        ++round;
        // Owners update + mark; every rank updates its expected mirror for
        // locals AND ghosts (selection is a pure function of the gid).
        for (lvid_t l = 0; l < g.n_total(); ++l) {
          if (!selected(g.global_id(l), round, permil)) continue;
          const std::uint64_t nv =
              f(g.global_id(l)) + static_cast<std::uint64_t>(round) * 1000003;
          expect[l] = nv;
          if (l < g.n_loc()) {
            vd[l] = vs[l] = va[l] = nv;
            gxd.mark_changed(l);
            gxs.mark_changed(l);
            gxa.mark_changed(l);
          }
        }

        std::vector<lvid_t> chg_d, chg_s, chg_a;
        const auto before = comm.stats();
        gxd.exchange<std::uint64_t>(vd, comm, GhostMode::kDense, &chg_d);
        gxs.exchange<std::uint64_t>(vs, comm, GhostMode::kSparse, &chg_s);
        gxa.exchange<std::uint64_t>(va, comm, GhostMode::kAdaptive, &chg_a);
        const auto after = comm.stats();

        for (lvid_t l = 0; l < g.n_total(); ++l) {
          ASSERT_EQ(vd[l], expect[l]) << "dense drifted at " << g.global_id(l);
          ASSERT_EQ(vs[l], expect[l]) << "sparse drifted at " << g.global_id(l);
          ASSERT_EQ(va[l], expect[l]) << "adaptive drifted at "
                                      << g.global_id(l);
        }

        // Same changed-ghost set in every mode.
        std::sort(chg_d.begin(), chg_d.end());
        std::sort(chg_s.begin(), chg_s.end());
        std::sort(chg_a.begin(), chg_a.end());
        EXPECT_EQ(chg_d, chg_s);
        EXPECT_EQ(chg_d, chg_a);

        // Every exchange consumes the dirty set.
        EXPECT_EQ(gxd.marked_count(), 0u);
        EXPECT_EQ(gxs.marked_count(), 0u);
        EXPECT_EQ(gxa.marked_count(), 0u);

        // Wire-format bookkeeping: dense+forced-sparse always count one
        // round each; adaptive picks sparse on quiet rounds and dense on
        // the 100% round (uint64 crossover is 50% of slots changed).
        EXPECT_EQ(after.ghost_rounds_dense + after.ghost_rounds_sparse -
                      before.ghost_rounds_dense - before.ghost_rounds_sparse,
                  3u);
        EXPECT_GE(after.ghost_rounds_sparse, before.ghost_rounds_sparse + 1);
        if (gxa.entries_global() > 0) {
          if (permil == 0) {
            EXPECT_EQ(after.ghost_rounds_sparse,
                      before.ghost_rounds_sparse + 2);
          }
          if (permil == 1000) {
            EXPECT_EQ(after.ghost_rounds_dense,
                      before.ghost_rounds_dense + 2);
          }
        }
      }
    });
  }
}

// A sparse round on a quiet iteration must put (nearly) nothing on the wire;
// bytes saved vs dense must be accounted.
TEST_P(GhostExchangeParam, SparseQuietRoundSavesBytes) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    std::vector<std::uint64_t> vals(g.n_total());
    for (lvid_t l = 0; l < g.n_total(); ++l) vals[l] = f(g.global_id(l));

    const auto before = comm.stats();
    gx.exchange<std::uint64_t>(vals, comm, GhostMode::kSparse);
    const auto after = comm.stats();

    // Nothing was marked: zero payload entries beyond the allreduce-free
    // sparse header, and the full dense payload is banked as savings.
    EXPECT_EQ(after.ghost_rounds_sparse, before.ghost_rounds_sparse + 1);
    EXPECT_EQ(
        after.ghost_bytes_saved - before.ghost_bytes_saved,
        static_cast<std::int64_t>(gx.send_entries() * sizeof(std::uint64_t)));
    for (lvid_t l = 0; l < g.n_total(); ++l)
      ASSERT_EQ(vals[l], f(g.global_id(l)));
  });
}

// exchange_combining must merge incoming owner values into ghost slots
// instead of clobbering them, identically on the dense and sparse wires.
TEST_P(GhostExchangeParam, CombiningMergesIntoGhostSlots) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gxd(g, comm, Adjacency::kBoth);
    GhostExchange gxs(g, comm, Adjacency::kBoth);
    const auto orr = [](std::uint64_t a, std::uint64_t b) { return a | b; };

    // Ghost slots pre-seeded with a sentinel bit pattern that the merge
    // must preserve; owners hold f(gid).
    std::vector<std::uint64_t> vd(g.n_total()), vs(g.n_total());
    for (lvid_t l = 0; l < g.n_total(); ++l)
      vd[l] = vs[l] = l < g.n_loc() ? f(g.global_id(l)) : 0x8000000000000001ULL;

    gxd.exchange_combining<std::uint64_t>(vd, comm, orr, GhostMode::kDense);
    gxs.mark_all_changed();
    gxs.exchange_combining<std::uint64_t>(vs, comm, orr, GhostMode::kSparse);

    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l) {
      const std::uint64_t want = 0x8000000000000001ULL | f(g.global_id(l));
      ASSERT_EQ(vd[l], want) << "dense ghost " << g.global_id(l);
      ASSERT_EQ(vs[l], want) << "sparse ghost " << g.global_id(l);
    }
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      ASSERT_EQ(vd[v], f(g.global_id(v)));  // owner slots untouched
      ASSERT_EQ(vs[v], f(g.global_id(v)));
    }
  });
}

// reduce() runs the retained queues backwards: every ghost replica's value
// folds into the owner slot, once per holding rank.  With owner = 0 and
// every ghost = 1 under `plus`, the owner ends up with its exact number of
// holding ranks — which the owner can predict from its own adjacency.
TEST_P(GhostExchangeParam, ReduceFoldsOneContributionPerHoldingRank) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l) vals[l] = 1;

    const auto before = comm.stats();
    gx.reduce<std::uint64_t>(
        vals, comm, [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const auto after = comm.stats();
    EXPECT_EQ(after.ghost_rounds_reduce, before.ghost_rounds_reduce + 1);

    // Under kBoth, rank t holds v as a ghost iff t owns one of v's in/out
    // neighbours — and the owner of v sees all of those neighbours.
    std::uint64_t sum_local = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      std::set<int> holders;
      for (const lvid_t u : g.out_neighbors(v))
        holders.insert(g.owner_of_global(g.global_id(u)));
      for (const lvid_t u : g.in_neighbors(v))
        holders.insert(g.owner_of_global(g.global_id(u)));
      holders.erase(comm.rank());
      ASSERT_EQ(vals[v], holders.size()) << "vertex " << g.global_id(v);
      sum_local += vals[v];
      // Ghost slots keep their shipped value.
    }
    // Global double-entry check: total folded contributions == total ghosts.
    EXPECT_EQ(comm.allreduce_sum(sum_local),
              comm.allreduce_sum<std::uint64_t>(g.n_gst()));
  });
}

// OR-reduce then forward exchange round-trips distinguishable rank bits:
// after the pair, every replica (owner and all ghosts) of a boundary vertex
// holds the identical merged mask.
TEST_P(GhostExchangeParam, ReduceThenExchangeConvergesReplicas) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    GhostExchange gx(g, comm, Adjacency::kBoth);
    const auto orr = [](std::uint64_t a, std::uint64_t b) { return a | b; };
    // Every replica starts tagged with its hosting rank's bit.
    std::vector<std::uint64_t> vals(g.n_total(),
                                    std::uint64_t{1} << comm.rank());
    gx.reduce<std::uint64_t>(vals, comm, orr);
    gx.exchange<std::uint64_t>(vals, comm);

    for (lvid_t l = 0; l < g.n_total(); ++l) {
      // The owner's bit is always present...
      const auto owner_bit = std::uint64_t{1}
                             << g.owner_of_global(g.global_id(l));
      ASSERT_TRUE(vals[l] & owner_bit) << g.global_id(l);
      if (l >= g.n_loc()) {
        // ...and this rank held l as a ghost, so its bit reached the owner
        // and came back in the merged mask.
        ASSERT_TRUE(vals[l] & (std::uint64_t{1} << comm.rank()))
            << g.global_id(l);
      }
    }
  });
}

TEST(GhostExchange, SparseCrossoverValidated) {
  const gen::EdgeList el = hpcgraph::testing::tiny_graph();
  with_dist_graph(el, {2, PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    GhostExchange gx(g, comm, Adjacency::kBoth);
                    EXPECT_THROW(gx.set_sparse_crossover(0.0), CheckError);
                    EXPECT_THROW(gx.set_sparse_crossover(1.5), CheckError);
                    gx.set_sparse_crossover(0.25);
                    EXPECT_EQ(gx.sparse_crossover(), 0.25);
                  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GhostExchangeParam,
    ::testing::ValuesIn(standard_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

TEST(GhostExchange, ThreadedSetupMatchesSerial) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  parcomm::CommWorld world(3);
  world.run([&](parcomm::Communicator& comm) {
    const DistGraph g = Builder::from_edge_list(
        comm, el, PartitionKind::kVertexBlock);
    ThreadPool pool(4);
    GhostExchange serial(g, comm, Adjacency::kBoth, nullptr);
    GhostExchange threaded(g, comm, Adjacency::kBoth, &pool);
    EXPECT_EQ(serial.send_entries(), threaded.send_entries());
    EXPECT_EQ(serial.recv_entries(), threaded.recv_entries());
    // Both must produce correct ghost updates.
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) vals[v] = f(g.global_id(v));
    threaded.exchange<std::uint64_t>(vals, comm);
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
      ASSERT_EQ(vals[l], f(g.global_id(l)));
  });
}

TEST(GhostExchange, RejectsTooShortValueArray) {
  // A graph whose single edge pair crosses the 2-rank vertex-block cut, so
  // both ranks own one ghost and both throw before any collective runs.
  gen::EdgeList el;
  el.n = 4;
  el.edges = {{0, 3}, {3, 0}};
  with_dist_graph(el, {2, PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
                    GhostExchange gx(g, comm, Adjacency::kBoth);
                    ASSERT_EQ(g.n_gst(), 1u);
                    std::vector<std::uint64_t> bad(g.n_loc());
                    EXPECT_THROW(gx.exchange<std::uint64_t>(bad, comm),
                                 CheckError);
                    comm.barrier();  // all ranks threw; resynchronize
                  });
}

}  // namespace
}  // namespace hpcgraph::dgraph
