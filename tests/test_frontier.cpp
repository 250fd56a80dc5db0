// The unified distributed frontier layer (engine/frontier.hpp):
// representation round-trips, the pure crossover decision, deterministic
// chunk-order emission, owner routing, and — the refactor contract —
// frozen copies of the pre-refactor SSSP / BFS-tree loops pinned
// bit-for-bit against the DistFrontier-based implementations across rank
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>

#include "analytics/bfs.hpp"
#include "analytics/bfs_tree.hpp"
#include "analytics/scc.hpp"
#include "analytics/sssp.hpp"
#include "engine/frontier.hpp"
#include "gen/rmat.hpp"
#include "obs/tracer.hpp"
#include "ref/ref_analytics.hpp"
#include "test_helpers.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph::engine {
namespace {

using dgraph::DistGraph;
using hpcgraph::testing::DistConfig;
using hpcgraph::testing::small_configs;
using hpcgraph::testing::tiny_graph;
using hpcgraph::testing::with_dist_graph;

// ---------------------------------------------------------------------------
// DistFrontier representation semantics
// ---------------------------------------------------------------------------

TEST(DistFrontier, QueueKeepsDuplicatesAndInsertionOrder) {
  DistFrontier f(100, FrontierRep::kQueue);
  for (const lvid_t v : {7u, 3u, 7u, 99u, 0u}) f.push(v);
  EXPECT_EQ(f.size(), 5u);  // duplicates count, as in the seed loops
  const auto l = f.as_list();
  EXPECT_EQ(std::vector<lvid_t>(l.begin(), l.end()),
            (std::vector<lvid_t>{7, 3, 7, 99, 0}));
}

TEST(DistFrontier, BitmapIsIdempotentAndAscending) {
  DistFrontier f(130, FrontierRep::kBitmap);
  for (const lvid_t v : {129u, 64u, 3u, 64u, 3u}) f.push(v);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.test(3));
  EXPECT_TRUE(f.test(64));
  EXPECT_TRUE(f.test(129));
  EXPECT_FALSE(f.test(0));
  const auto l = f.as_list();
  EXPECT_EQ(std::vector<lvid_t>(l.begin(), l.end()),
            (std::vector<lvid_t>{3, 64, 129}));
}

TEST(DistFrontier, RoundTripCanonicalizes) {
  DistFrontier f(80, FrontierRep::kQueue);
  for (const lvid_t v : {42u, 5u, 42u, 17u}) f.push(v);
  f.set_rep(FrontierRep::kBitmap);  // collapses the duplicate 42
  EXPECT_EQ(f.size(), 3u);
  f.set_rep(FrontierRep::kQueue);  // ascending member list
  const auto l = f.as_list();
  EXPECT_EQ(std::vector<lvid_t>(l.begin(), l.end()),
            (std::vector<lvid_t>{5, 17, 42}));
  f.set_rep(FrontierRep::kQueue);  // no-op conversion
  EXPECT_EQ(f.size(), 3u);
}

TEST(DistFrontier, ForEachWeightSumMarkBytesAgreeAcrossReps) {
  const std::vector<lvid_t> members{1, 9, 63, 64, 70};
  for (const FrontierRep rep : {FrontierRep::kQueue, FrontierRep::kBitmap}) {
    DistFrontier f(128, rep);
    for (const lvid_t v : members) f.push(v);
    std::uint64_t visited = 0;
    f.for_each([&](lvid_t v) {
      visited += v;
    });
    const std::uint64_t want =
        std::accumulate(members.begin(), members.end(), std::uint64_t{0});
    EXPECT_EQ(visited, want) << frontier_rep_label(rep);
    EXPECT_EQ(f.weight_sum([](lvid_t v) { return 2 * v; }), 2 * want);
    std::vector<std::uint8_t> flags(128, 0);
    f.mark_bytes(flags);
    for (lvid_t v = 0; v < 128; ++v)
      EXPECT_EQ(flags[v] != 0,
                std::find(members.begin(), members.end(), v) != members.end());
  }
}

TEST(DistFrontier, ClearAndSwap) {
  DistFrontier a(64, FrontierRep::kBitmap), b(64, FrontierRep::kQueue);
  a.push(7);
  b.push(3);
  b.push(3);
  a.swap(b);
  EXPECT_EQ(a.rep(), FrontierRep::kQueue);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.rep(), FrontierRep::kBitmap);
  EXPECT_TRUE(b.test(7));
  a.clear();
  b.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
  b.push(5);  // bitmap reusable after clear
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.test(5));
}

// ---------------------------------------------------------------------------
// Crossover decision: pure, hysteresis
// ---------------------------------------------------------------------------

TEST(FrontierDecide, BeamerHysteresis) {
  FrontierPolicy p;
  p.allow_pull = true;  // alpha = 15, beta = 20
  const std::uint64_t n = 10000, m = 150000;
  // From push: switch on degree > m/alpha = 10000 (strict).
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPush, 50, 10000, n, m).dir,
            FrontierDir::kPush);
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPush, 50, 10001, n, m).dir,
            FrontierDir::kPull);
  // From pull: stay while active >= n/beta = 500 (inclusive).
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPull, 500, 0, n, m).dir,
            FrontierDir::kPull);
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPull, 499, 0, n, m).dir,
            FrontierDir::kPush);
  // Pull implies the dense representation.
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPull, 500, 0, n, m).rep,
            FrontierRep::kBitmap);
}

TEST(FrontierDecide, DensityRuleAndHybridRep) {
  FrontierPolicy p;
  p.allow_pull = true;
  p.pull_density = 0.25;
  const std::uint64_t n = 1000, m = 16000;
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPush, 250, 0, n, m).dir,
            FrontierDir::kPush);  // 250 > 0.25*1000 is false
  EXPECT_EQ(frontier_decide(p, FrontierDir::kPush, 251, 0, n, m).dir,
            FrontierDir::kPull);

  // Hybrid representation: dense when degree > m/rep_fraction = 250,
  // unless the analytic is order-sensitive.
  FrontierPolicy h;
  EXPECT_EQ(frontier_decide(h, FrontierDir::kPush, 10, 250, n, m).rep,
            FrontierRep::kQueue);
  EXPECT_EQ(frontier_decide(h, FrontierDir::kPush, 10, 251, n, m).rep,
            FrontierRep::kBitmap);
  h.order_sensitive = true;
  EXPECT_EQ(frontier_decide(h, FrontierDir::kPush, 10, 251, n, m).rep,
            FrontierRep::kQueue);
}

TEST(FrontierDecide, PureFunction) {
  FrontierPolicy p;
  p.allow_pull = true;
  for (int i = 0; i < 3; ++i) {
    const auto a = frontier_decide(p, FrontierDir::kPush, 777, 12345, 4096,
                                   65536);
    const auto b = frontier_decide(p, FrontierDir::kPush, 777, 12345, 4096,
                                   65536);
    EXPECT_EQ(a.rep, b.rep);
    EXPECT_EQ(a.dir, b.dir);
  }
}

// ---------------------------------------------------------------------------
// Deterministic chunk-order emission across thread counts
// ---------------------------------------------------------------------------

TEST(DistFrontier, ChunkOrderEmissionIsThreadCountInvariant) {
  // Emit every third vertex from a parallel sweep over the span grid;
  // assembling the per-chunk lists in chunk order must give the same
  // frontier for 1..8 threads, although the spans differ with the width.
  const std::uint64_t n = 5000;
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::uint64_t i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + 1 + (i % 17);  // skewed "degrees"
  std::vector<lvid_t> baseline;
  for (unsigned nt = 1; nt <= 8; ++nt) {
    ThreadPool tp(nt);
    const ChunkGrid grid = span_grid(n, prefix, nt);
    std::vector<std::vector<lvid_t>> chunk_lists(grid.size());
    tp.for_chunks(grid, [&](unsigned, std::uint64_t c, const Chunk& ck) {
      for (std::uint64_t i = ck.begin; i < ck.end; ++i)
        if (i % 3 == 0) chunk_lists[c].push_back(static_cast<lvid_t>(i));
    });
    DistFrontier f(n, FrontierRep::kQueue);
    f.append_chunks(chunk_lists);
    const auto l = f.as_list();
    std::vector<lvid_t> got(l.begin(), l.end());
    if (nt == 1) {
      baseline = got;
    } else {
      ASSERT_EQ(got, baseline) << "nt=" << nt;
    }
  }
}

// ---------------------------------------------------------------------------
// Owner routing
// ---------------------------------------------------------------------------

class FrontierParam : public ::testing::TestWithParam<DistConfig> {};

TEST_P(FrontierParam, RouteToOwnersDeliversEverything) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    // Every rank addresses every global vertex once; each owner must
    // receive exactly (nranks x its locals), and recv_counts must mirror
    // the per-source layout.
    std::vector<gvid_t> all(g.n_global());
    std::iota(all.begin(), all.end(), gvid_t{0});
    std::vector<std::uint64_t> rcounts;
    const std::vector<gvid_t> recv = route_to_owners<gvid_t>(
        comm, all, [&](gvid_t v) { return g.owner_of_global(v); }, 64,
        &rcounts);
    ASSERT_EQ(recv.size(),
              static_cast<std::size_t>(comm.size()) * g.n_loc());
    for (const gvid_t v : recv)
      EXPECT_EQ(g.owner_of_global(v), comm.rank());
    ASSERT_EQ(rcounts.size(), static_cast<std::size_t>(comm.size()));
    for (const std::uint64_t c : rcounts) EXPECT_EQ(c, g.n_loc());

    // Wire projection: ship only the low byte.
    const std::vector<std::uint8_t> bytes = route_to_owners(
        comm, std::span<const gvid_t>(all),
        [&](gvid_t v) { return g.owner_of_global(v); },
        [](const gvid_t& v) { return static_cast<std::uint8_t>(v & 0xff); });
    ASSERT_EQ(bytes.size(), recv.size());
  });
}

TEST_P(FrontierParam, RouteToOwnersShardedMatchesSerialAsMultiset) {
  const gen::EdgeList el = tiny_graph();
  with_dist_graph(el, GetParam(), [&](const DistGraph& g,
                                      parcomm::Communicator& comm) {
    std::vector<gvid_t> all(g.n_global());
    std::iota(all.begin(), all.end(), gvid_t{0});
    std::vector<gvid_t> serial = route_to_owners<gvid_t>(
        comm, all, [&](gvid_t v) { return g.owner_of_global(v); });
    for (const unsigned nt : {1u, 3u}) {
      ThreadPool pool(nt);
      std::vector<std::vector<gvid_t>> shards(nt);
      for (std::size_t i = 0; i < all.size(); ++i)
        shards[i % nt].push_back(all[i]);
      std::vector<gvid_t> sharded = route_to_owners_sharded<gvid_t, gvid_t>(
          comm, pool, shards,
          [&](gvid_t v) { return g.owner_of_global(v); },
          [](const gvid_t& v) { return v; });
      // Segment contents are a permutation fixed by flush interleaving.
      std::sort(sharded.begin(), sharded.end());
      std::vector<gvid_t> want = serial;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(sharded, want) << "nt=" << nt;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FrontierParam, ::testing::ValuesIn(small_configs()),
    [](const ::testing::TestParamInfo<DistConfig>& pinfo) {
      return pinfo.param.label();
    });

// ---------------------------------------------------------------------------
// Frozen-output equivalence pins: the pre-refactor loops, verbatim
// ---------------------------------------------------------------------------

struct SeedSsspOut {
  std::vector<std::uint64_t> dist;
  int rounds = 0;
};

/// The seed's SSSP superstep body (bespoke count/pack/Alltoallv exchange),
/// frozen at the pre-DistFrontier revision.
SeedSsspOut seed_sssp(const DistGraph& g, parcomm::Communicator& comm,
                      gvid_t root, std::uint64_t max_weight,
                      std::size_t qsize) {
  SeedSsspOut out;
  out.dist.assign(g.n_loc(), analytics::kInfDistance);
  std::vector<std::uint8_t> active(g.n_loc(), 0);
  std::vector<lvid_t> frontier, frontier_next;
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    out.dist[l] = 0;
    active[l] = 1;
    frontier.push_back(l);
  }
  const int p = comm.size();
  std::uint64_t global = comm.allreduce_sum<std::uint64_t>(frontier.size());
  while (global != 0) {
    ++out.rounds;
    struct Relax {
      gvid_t gid;
      std::uint64_t dist;
    };
    std::vector<Relax> remote;
    frontier_next.clear();
    const auto relax_local = [&](lvid_t u, std::uint64_t cand) {
      if (cand < out.dist[u]) {
        out.dist[u] = cand;
        if (!active[u]) {
          active[u] = 1;
          frontier_next.push_back(u);
        }
      }
    };
    for (const lvid_t v : frontier) {
      active[v] = 0;
      const gvid_t vg = g.global_id(v);
      const std::uint64_t base = out.dist[v];
      for (const lvid_t u : g.out_neighbors(v)) {
        const gvid_t ug = g.global_id(u);
        const std::uint64_t cand =
            base + analytics::edge_weight(vg, ug, max_weight);
        if (g.is_ghost(u)) {
          remote.push_back({ug, cand});
        } else {
          relax_local(u, cand);
        }
      }
    }
    std::vector<std::uint64_t> counts(p, 0);
    for (const Relax& r : remote) ++counts[g.owner_of_global(r.gid)];
    MultiQueue<Relax> q(counts);
    {
      MultiQueue<Relax>::Sink sink(q, qsize);
      for (const Relax& r : remote)
        sink.push(static_cast<std::uint32_t>(g.owner_of_global(r.gid)), r);
    }
    const std::vector<Relax> recv = comm.alltoallv<Relax>(q.buffer(), counts);
    for (const Relax& r : recv)
      relax_local(g.local_id_checked(r.gid), r.dist);
    std::swap(frontier, frontier_next);
    global = comm.allreduce_sum<std::uint64_t>(frontier.size());
  }
  return out;
}

struct SeedBfsTreeOut {
  std::vector<std::int64_t> level;
  std::vector<gvid_t> parent;
  int num_levels = 0;
};

/// The seed's BFS-tree loop (first-claimer-wins parents), frozen at the
/// pre-DistFrontier revision.
SeedBfsTreeOut seed_bfs_tree(const DistGraph& g, parcomm::Communicator& comm,
                             gvid_t root, std::size_t qsize) {
  SeedBfsTreeOut out;
  out.level.assign(g.n_loc(), analytics::kUnvisited);
  out.parent.assign(g.n_loc(), kNullGvid);
  std::vector<std::uint8_t> ghost_claimed(g.n_gst(), 0);
  const int p = comm.size();
  std::vector<lvid_t> q, q_next;
  if (g.owner_of_global(root) == comm.rank()) {
    const lvid_t l = g.local_id_checked(root);
    out.level[l] = 0;
    out.parent[l] = root;
    q.push_back(l);
  }
  struct Discovery {
    gvid_t child;
    gvid_t parent;
  };
  std::int64_t level = 0;
  std::uint64_t global = comm.allreduce_sum<std::uint64_t>(q.size());
  while (global != 0) {
    ++out.num_levels;
    q_next.clear();
    std::vector<Discovery> remote;
    for (const lvid_t v : q) {
      const gvid_t vg = g.global_id(v);
      for (const lvid_t u : g.out_neighbors(v)) {
        if (g.is_ghost(u)) {
          std::uint8_t& claimed = ghost_claimed[u - g.n_loc()];
          if (!claimed) {
            claimed = 1;
            remote.push_back({g.global_id(u), vg});
          }
        } else if (out.level[u] == analytics::kUnvisited) {
          out.level[u] = level + 1;
          out.parent[u] = vg;
          q_next.push_back(u);
        }
      }
    }
    std::vector<std::uint64_t> counts(p, 0);
    for (const Discovery& d : remote) ++counts[g.owner_of_global(d.child)];
    MultiQueue<Discovery> sq(counts);
    {
      MultiQueue<Discovery>::Sink sink(sq, qsize);
      for (const Discovery& d : remote)
        sink.push(static_cast<std::uint32_t>(g.owner_of_global(d.child)), d);
    }
    const std::vector<Discovery> recv =
        comm.alltoallv<Discovery>(sq.buffer(), counts);
    for (const Discovery& d : recv) {
      const lvid_t l = g.local_id_checked(d.child);
      if (out.level[l] == analytics::kUnvisited) {
        out.level[l] = level + 1;
        out.parent[l] = d.parent;  // first claimer wins (rank order)
        q_next.push_back(l);
      }
    }
    std::swap(q, q_next);
    global = comm.allreduce_sum<std::uint64_t>(q.size());
    ++level;
  }
  return out;
}

/// Parameter: the rank count.
class FrontierPin : public ::testing::TestWithParam<int> {};

TEST_P(FrontierPin, SsspMatchesSeedBitForBit) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, {GetParam(), dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    analytics::SsspOptions opts;
    const SeedSsspOut want =
        seed_sssp(g, comm, 3, opts.max_weight, opts.common.qsize);
    // The run reproduces the seed loop bit-for-bit: SSSP is order-sensitive,
    // so its push rounds keep the queue representation.
    const analytics::SsspResult res = analytics::sssp(g, comm, 3, opts);
    ASSERT_EQ(res.dist, want.dist);
    EXPECT_EQ(res.rounds, want.rounds);
  });
}

TEST_P(FrontierPin, BfsTreeMatchesSeedBitForBit) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  with_dist_graph(el, {GetParam(), dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    analytics::BfsOptions opts;
    const SeedBfsTreeOut want = seed_bfs_tree(g, comm, 0, opts.common.qsize);
    const analytics::BfsTreeResult res =
        analytics::bfs_tree(g, comm, 0, opts);
    ASSERT_EQ(res.level, want.level);
    ASSERT_EQ(res.parent, want.parent);  // first-claimer-wins order pinned
    EXPECT_EQ(res.num_levels, want.num_levels);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, FrontierPin, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// Outputs of the engine-chosen (hybrid) frontier
// ---------------------------------------------------------------------------

// Both BFS kinds cross between representations (and the direction-
// optimizing one between directions) as the engine decides; their levels
// must equal the sequential oracle's.
TEST(FrontierModes, BfsLevelsInvariant) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const auto want =
      ref::bfs_levels(ref::SeqGraph::from(el), 0, /*directed=*/true);
  for (const bool diropt : {false, true}) {
    with_dist_graph(el, {4, dgraph::PartitionKind::kRandom},
                    [&](const DistGraph& g, parcomm::Communicator& comm) {
      analytics::BfsOptions opts;
      opts.direction_optimizing = diropt;
      const analytics::BfsResult res = analytics::bfs(g, comm, 0, opts);
      for (lvid_t v = 0; v < g.n_loc(); ++v) {
        const gvid_t gid = g.global_id(v);
        const std::int64_t w =
            want[gid] < 0 ? analytics::kUnvisited : want[gid];
        ASSERT_EQ(res.level[v], w) << "vertex " << gid
                                   << " diropt=" << diropt;
      }
    });
  }
}

TEST(FrontierModes, SccMembershipInvariant) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  std::vector<std::uint8_t> want;
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    analytics::SccOptions opts;
    const analytics::SccResult res = analytics::largest_scc(g, comm, opts);
    const auto member =
        analytics::gather_global<std::uint8_t>(g, comm, res.member);
    if (comm.rank() == 0) want = member;
  });
  ASSERT_FALSE(want.empty());
  with_dist_graph(el, {4, dgraph::PartitionKind::kRandom},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    analytics::SccOptions opts;  // different layout
    const analytics::SccResult res = analytics::largest_scc(g, comm, opts);
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      ASSERT_EQ(res.member[v], want[g.global_id(v)]);
  });
}

// Every rank stamps the round's direction: a direction-optimizing BFS from
// an R-MAT hub crosses over to pull under the engine's own decision, and
// each rank's lane shows it.
TEST(FrontierCounters, DiroptBfsStampsPullOnEveryRank) {
  gen::RmatParams rp;
  rp.scale = 10;
  rp.avg_degree = 16;
  const gen::EdgeList el = gen::rmat(rp);
  std::vector<std::uint32_t> odeg(el.n, 0);
  for (const gen::Edge& e : el.edges) ++odeg[e.src];
  const gvid_t hub = static_cast<gvid_t>(
      std::max_element(odeg.begin(), odeg.end()) - odeg.begin());

  constexpr int kRanks = 3;
  obs::Tracer tracer;
  tracer.install();
  with_dist_graph(el, {kRanks, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, parcomm::Communicator& comm) {
    obs::RankGuard guard(comm.rank());
    analytics::BfsOptions opts;
    opts.direction_optimizing = true;
    (void)analytics::bfs(g, comm, hub, opts);
  });
  obs::Tracer::uninstall();

  for (int rank = 0; rank < kRanks; ++rank) {
    std::size_t rounds = 0, pull_rounds = 0;
    for (const obs::Event& e : tracer.rank_events(rank)) {
      if (e.kind != obs::EventKind::kCounter ||
          std::string_view(e.name) != obs::counter_name::kFrontierPull)
        continue;
      ++rounds;
      if (e.value == 1.0) ++pull_rounds;
    }
    EXPECT_GT(rounds, 1u) << "rank " << rank;
    EXPECT_GE(pull_rounds, 1u) << "rank " << rank;
  }
}

}  // namespace
}  // namespace hpcgraph::engine
