// Tests for the retained-queue ghost exchange (§III-D1 machinery).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "analytics/bfs.hpp"
#include "analytics/harmonic.hpp"
#include "analytics/kcore.hpp"
#include "analytics/label_prop.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/wcc.hpp"
#include "dgraph/ghost_exchange.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::dgraph {
namespace {

using hpcgraph::testing::DistConfig;
using hpcgraph::testing::span_count;
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
    EXPECT_LE(gx.plan().send_entries(),
              static_cast<std::uint64_t>(g.n_loc()) * (comm.size() - 1));
    const auto total_send = comm.allreduce_sum(gx.plan().send_entries());
    const auto total_recv = comm.allreduce_sum(gx.plan().recv_entries());
    EXPECT_EQ(total_send, total_recv);
    // Every ghost receives exactly one update per exchange.
    EXPECT_EQ(gx.plan().recv_entries(), g.n_gst());
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

// The exchange is checked against the expected values, not against another
// exchange: the rounds change none, a few, many and then all of the values
// (0%, 2%, 30%, 100%, then 0% again), at pool widths 1 and 3.  Which values
// change is a pure function of the global id and the round, so every rank
// computes every slot's expected value locally, ghosts included, and knows
// which of its ghosts the round must report as changed.
TEST_P(GhostExchangeParam, DenseRoundsMatchExpectedValues) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  for (const unsigned nthreads : {1u, 3u}) {
    with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                        parcomm::Communicator& comm) {
      ThreadPool pool(nthreads);
      // kBoth: every ghost is read, so every ghost is refreshed.
      GhostExchange gx(g, comm, Adjacency::kBoth,
                       nthreads > 1 ? &pool : nullptr);

      std::vector<std::uint64_t> vals(g.n_total()), expect(g.n_total());
      for (lvid_t l = 0; l < g.n_total(); ++l)
        vals[l] = expect[l] = f(g.global_id(l));

      const int densities[] = {0, 20, 300, 1000, 0};  // permil per round
      int round = 0;
      for (const int permil : densities) {
        ++round;
        SCOPED_TRACE("round " + std::to_string(round) + ", " +
                     std::to_string(nthreads) + " threads");
        // Owners write their locals; every rank updates its expectation
        // for locals and ghosts alike.
        std::vector<lvid_t> want_changed;
        for (lvid_t l = 0; l < g.n_total(); ++l) {
          if (!selected(g.global_id(l), round, permil)) continue;
          expect[l] =
              f(g.global_id(l)) + static_cast<std::uint64_t>(round) * 1000003;
          if (l < g.n_loc()) vals[l] = expect[l];
          else want_changed.push_back(l);
        }

        std::vector<lvid_t> changed;
        const auto before = comm.stats();
        gx.exchange<std::uint64_t>(vals, comm, &changed);
        const auto after = comm.stats();

        for (lvid_t l = 0; l < g.n_total(); ++l)
          ASSERT_EQ(vals[l], expect[l]) << "slot of vertex " << g.global_id(l);
        // Exactly the ghosts whose value changed, each reported once.
        std::sort(changed.begin(), changed.end());
        EXPECT_EQ(changed, want_changed);
        EXPECT_EQ(after.ghost_rounds_dense, before.ghost_rounds_dense + 1);
      }
    });
  }
}

// The ranks that hold local vertex v as a ghost under kBoth: rank t does
// iff t owns one of v's in/out neighbours, and v's owner sees all of them.
std::set<int> holding_ranks(const DistGraph& g, lvid_t v) {
  std::set<int> holders;
  for (const lvid_t u : g.out_neighbors(v))
    holders.insert(g.owner_of_global(g.global_id(u)));
  for (const lvid_t u : g.in_neighbors(v))
    holders.insert(g.owner_of_global(g.global_id(u)));
  holders.erase(g.rank());
  return holders;
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

    std::uint64_t sum_local = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      ASSERT_EQ(vals[v], holding_ranks(g, v).size())
          << "vertex " << g.global_id(v);
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

// One exchange object serves forward rounds of three element types and
// reverse rounds in turn, as MS-BFS uses its exchange: its retained send
// and receive buffers are resized across types and directions every round,
// and every round must still land exactly the values each rank computes
// from the global ids.
TEST_P(GhostExchangeParam, OneExchangeServesEveryTypeAndDirection) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  for (const unsigned nthreads : {1u, 3u}) {
    with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                        parcomm::Communicator& comm) {
      ThreadPool pool(nthreads);
      GhostExchange gx(g, comm, Adjacency::kBoth,
                       nthreads > 1 ? &pool : nullptr);
      std::vector<std::set<int>> holders(g.n_loc());
      for (lvid_t v = 0; v < g.n_loc(); ++v) holders[v] = holding_ranks(g, v);
      // The value rank t's replica of vertex gid sends back in a round.
      const auto replica = [](gvid_t gid, int t, std::uint64_t round) {
        return f(gid) ^ (static_cast<std::uint64_t>(t + 1) << 48) ^ round;
      };

      std::vector<std::uint64_t> u64(g.n_total());
      std::vector<std::uint8_t> u8(g.n_total());
      std::vector<double> f64(g.n_total());
      for (std::uint64_t round = 1; round <= 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round) + ", " +
                     std::to_string(nthreads) + " threads");
        for (lvid_t v = 0; v < g.n_loc(); ++v)
          u64[v] = f(g.global_id(v)) + round;
        gx.exchange<std::uint64_t>(u64, comm);
        for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
          ASSERT_EQ(u64[l], f(g.global_id(l)) + round);

        for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
          u64[l] = replica(g.global_id(l), comm.rank(), round);
        gx.reduce<std::uint64_t>(
            u64, comm, [](std::uint64_t a, std::uint64_t b) { return a + b; });
        for (lvid_t v = 0; v < g.n_loc(); ++v) {
          std::uint64_t want = f(g.global_id(v)) + round;
          for (const int t : holders[v])
            want += replica(g.global_id(v), t, round);
          ASSERT_EQ(u64[v], want) << "vertex " << g.global_id(v);
        }

        for (lvid_t v = 0; v < g.n_loc(); ++v)
          u8[v] = static_cast<std::uint8_t>(f(g.global_id(v)) + round);
        gx.exchange<std::uint8_t>(u8, comm);
        for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
          ASSERT_EQ(u8[l],
                    static_cast<std::uint8_t>(f(g.global_id(l)) + round));

        for (lvid_t v = 0; v < g.n_loc(); ++v)
          f64[v] = 0.5 * static_cast<double>(g.global_id(v)) +
                   static_cast<double>(round);
        gx.exchange<double>(f64, comm);
        for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
          ASSERT_EQ(f64[l], 0.5 * static_cast<double>(g.global_id(l)) +
                                static_cast<double>(round));
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GhostExchangeParam,
    ::testing::ValuesIn(standard_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

/// Per-task segments of a plan queue (`flat` cut by `counts`).
std::vector<std::vector<lvid_t>> segments(
    std::span<const lvid_t> flat, std::span<const std::uint64_t> counts) {
  std::vector<std::vector<lvid_t>> out;
  std::size_t at = 0;
  for (const std::uint64_t c : counts) {
    const std::size_t end = std::min<std::size_t>(at + c, flat.size());
    out.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(at),
                     flat.begin() + static_cast<std::ptrdiff_t>(end));
    at = end;
  }
  EXPECT_EQ(at, flat.size()) << "counts do not cover the queue";
  return out;
}

// The plan is a pure function of the graph: the graph's cached plan, built
// for an exchange that runs on a 4-thread pool, and an independent build
// hold the same arrays, order included, and the threaded exchange updates
// every ghost.
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
    GhostExchange threaded(g, comm, Adjacency::kBoth, &pool);
    GhostExchange serial(GhostPlan::build(g, comm, Adjacency::kBoth));
    const GhostPlan& a = serial.plan();
    const GhostPlan& b = threaded.plan();
    ASSERT_NE(&a, &b);
    EXPECT_EQ(segments(a.send_local(), a.send_counts()),
              segments(b.send_local(), b.send_counts()));
    EXPECT_EQ(segments(a.recv_local(), a.recv_counts()),
              segments(b.recv_local(), b.recv_counts()));
    std::vector<std::uint64_t> vals(g.n_total(), 0);
    for (lvid_t v = 0; v < g.n_loc(); ++v) vals[v] = f(g.global_id(v));
    threaded.exchange<std::uint64_t>(vals, comm);
    for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
      ASSERT_EQ(vals[l], f(g.global_id(l)));
  });
}

/// One rank's queues as Algorithm 1's owner-side scan finds them: per task,
/// the ascending local ids with a ghost neighbour that task owns along
/// `adj` (send), and the ascending ghosts this rank reads along `adj` that
/// the task owns (recv).
struct ScanPlan {
  std::vector<std::vector<lvid_t>> send, recv;
};

ScanPlan scan_plan(const DistGraph& g, Adjacency adj) {
  const bool out = adj != Adjacency::kIn;  // values flow along out-edges
  const bool in = adj != Adjacency::kOut;  // ... and/or along in-edges
  const auto p = static_cast<std::size_t>(g.nranks());
  ScanPlan s{std::vector<std::vector<lvid_t>>(p),
             std::vector<std::vector<lvid_t>>(p)};
  std::vector<std::uint8_t> read(g.n_total(), 0);
  for (lvid_t v = 0; v < g.n_loc(); ++v) {
    std::set<int> tasks;
    for (const lvid_t u : g.out_neighbors(v)) {
      if (!g.is_ghost(u)) continue;
      if (out) tasks.insert(g.owner_of(u));
      if (in) read[u] = 1;
    }
    for (const lvid_t u : g.in_neighbors(v)) {
      if (!g.is_ghost(u)) continue;
      if (in) tasks.insert(g.owner_of(u));
      if (out) read[u] = 1;
    }
    for (const int t : tasks) s.send[t].push_back(v);
  }
  for (lvid_t l = g.n_loc(); l < g.n_total(); ++l)
    if (read[l]) s.recv[g.owner_of(l)].push_back(l);
  return s;
}

// The reader-side build yields the queues of the owner-side scan, on every
// configuration and adjacency, whatever the pool of the exchange that first
// asks the graph for its plan.
TEST(GhostPlan, MatchesAdjacencyScan) {
  gen::RmatParams rp;
  rp.scale = 9;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  for (const DistConfig& cfg : standard_configs())
    for (const unsigned threads : {1u, 4u})
      with_dist_graph(el, cfg, [&](const DistGraph& g,
                                   parcomm::Communicator& comm) {
        ThreadPool pool(threads);
        for (const Adjacency adj :
             {Adjacency::kOut, Adjacency::kIn, Adjacency::kBoth}) {
          SCOPED_TRACE(cfg.label() + ", " + std::to_string(threads) +
                       " threads, adjacency " +
                       std::to_string(static_cast<int>(adj)) + ", rank " +
                       std::to_string(comm.rank()));
          const GhostExchange gx(g, comm, adj, &pool);
          const GhostPlan& plan = gx.plan();
          const ScanPlan want = scan_plan(g, adj);
          EXPECT_EQ(segments(plan.send_local(), plan.send_counts()),
                    want.send);
          EXPECT_EQ(segments(plan.recv_local(), plan.recv_counts()),
                    want.recv);
        }
      });
}

// ---- The graph's plan cache. ----

/// The outputs of the analytics a plan is shared across, on one rank.
struct SharedRun {
  std::vector<std::uint64_t> lp;
  std::vector<gvid_t> wcc;
  std::vector<std::uint64_t> kcore;
  std::vector<analytics::ScoredVertex> harmonic;
  std::vector<std::vector<std::int64_t>> bfs;
};

// LP, WCC, k-core and harmonic share the kBoth plan and the three
// direction-optimizing BFS calls share the kOut plan: two builds per rank
// for the whole sequence, and the same outputs as each call on a freshly
// built graph.
TEST(GhostPlan, BuiltOncePerGraphAndAdjacency) {
  gen::RmatParams rp;
  rp.scale = 10;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  constexpr int kRanks = 2;
  const std::vector<gvid_t> roots = {0, 7, 300};

  analytics::BfsOptions bo;
  bo.dir = analytics::Dir::kOut;
  bo.direction_optimizing = true;
  using Step = std::function<void(const DistGraph&, parcomm::Communicator&,
                                  SharedRun&)>;
  std::vector<Step> steps = {
      [](const DistGraph& g, parcomm::Communicator& comm, SharedRun& r) {
        r.lp = analytics::label_propagation(g, comm).labels;
      },
      [](const DistGraph& g, parcomm::Communicator& comm, SharedRun& r) {
        r.wcc = analytics::wcc(g, comm).comp;
      },
      [](const DistGraph& g, parcomm::Communicator& comm, SharedRun& r) {
        r.kcore = analytics::kcore_approx(g, comm).bound;
      },
      [](const DistGraph& g, parcomm::Communicator& comm, SharedRun& r) {
        r.harmonic = analytics::harmonic_top_k(g, comm, 16);
      }};
  for (const gvid_t root : roots)
    steps.push_back([&bo, root](const DistGraph& g,
                                parcomm::Communicator& comm, SharedRun& r) {
      r.bfs.push_back(analytics::bfs(g, comm, root, bo).level);
    });

  std::vector<SharedRun> shared(kRanks), fresh(kRanks);
  obs::Tracer tracer;
  tracer.install();
  parcomm::CommWorld world(kRanks);
  world.run([&](parcomm::Communicator& comm) {
    obs::RankGuard guard(comm.rank());
    const DistGraph g =
        Builder::from_edge_list(comm, el, PartitionKind::kRandom);
    for (const Step& step : steps) step(g, comm, shared[comm.rank()]);
  });
  obs::Tracer::uninstall();
  for (int rank = 0; rank < kRanks; ++rank) {
    for (const obs::Lane* lane : tracer.rank_lanes(rank))
      ASSERT_EQ(lane->dropped(), 0u);
    EXPECT_EQ(span_count(tracer, rank, obs::span_name::kGhostPlan), 2u)
        << "rank " << rank;
  }

  world.run([&](parcomm::Communicator& comm) {
    for (const Step& step : steps) {
      const DistGraph g =
          Builder::from_edge_list(comm, el, PartitionKind::kRandom);
      step(g, comm, fresh[comm.rank()]);
    }
  });
  for (int rank = 0; rank < kRanks; ++rank) {
    SCOPED_TRACE(rank);
    EXPECT_EQ(shared[rank].lp, fresh[rank].lp);
    EXPECT_EQ(shared[rank].wcc, fresh[rank].wcc);
    EXPECT_EQ(shared[rank].kcore, fresh[rank].kcore);
    ASSERT_EQ(shared[rank].harmonic.size(), fresh[rank].harmonic.size());
    for (std::size_t i = 0; i < shared[rank].harmonic.size(); ++i) {
      EXPECT_EQ(shared[rank].harmonic[i].gid, fresh[rank].harmonic[i].gid);
      EXPECT_EQ(shared[rank].harmonic[i].score,
                fresh[rank].harmonic[i].score);
    }
    EXPECT_EQ(shared[rank].bfs, fresh[rank].bfs);
  }
}

// The rebuild ablation must still rebuild: with retain_queues off, every
// PageRank round exchanges through a freshly built plan and the graph
// caches none; with it on, the run builds exactly one.
TEST(GhostPlan, RebuildAblationBuildsAFreshPlanEachRound) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);
  for (const bool retain : {false, true}) {
    SCOPED_TRACE(retain ? "retained" : "rebuilt");
    obs::Tracer tracer;
    tracer.install();
    with_dist_graph(el, {2, PartitionKind::kVertexBlock},
                    [&](const DistGraph& g, parcomm::Communicator& comm) {
                      obs::RankGuard guard(comm.rank());
                      analytics::PageRankOptions po;
                      po.max_iterations = 5;
                      po.retain_queues = retain;
                      (void)analytics::pagerank(g, comm, po);
                      if (!retain) {
                        EXPECT_EQ(g.ghost_plan_bytes(), 0u);
                      }
                    });
    obs::Tracer::uninstall();
    for (int rank = 0; rank < 2; ++rank) {
      const std::size_t rounds =
          span_count(tracer, rank, obs::span_name::kSuperstep);
      const std::size_t plans =
          span_count(tracer, rank, obs::span_name::kGhostPlan);
      ASSERT_EQ(rounds, 5u);
      EXPECT_EQ(plans, retain ? 1u : rounds);
    }
  }
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
