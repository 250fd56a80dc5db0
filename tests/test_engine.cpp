// The SuperstepEngine: unit tests on synthetic kernels (iteration cutoff,
// immediate convergence, empty-frontier exit), per-round telemetry (one
// superstep span and one sample of each round counter per round, on every
// rank), and the engine-port equivalence matrix —
// all five ported analytics bit-for-bit identical across rank counts,
// partitions and pool widths against the one-rank, one-thread baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/analytics.hpp"
#include "engine/superstep.hpp"
#include "gen/rmat.hpp"
#include "obs/tracer.hpp"
#include "test_helpers.hpp"

namespace hpcgraph::engine {
namespace {

using dgraph::DistGraph;
using hpcgraph::testing::DistConfig;
using hpcgraph::testing::tiny_graph;
using hpcgraph::testing::with_dist_graph;
using parcomm::Communicator;

// ---- Synthetic kernels. ----

/// Minimal ValueKernel that counts rounds; `stop` drives converged().
struct CountingKernel {
  std::vector<double> vals;
  int computes = 0;
  bool stop = false;

  using Value = double;
  explicit CountingKernel(const DistGraph& g) : vals(g.n_total(), 0.0) {}
  std::span<double> values() { return vals; }
  dgraph::Adjacency adjacency() const { return dgraph::Adjacency::kOut; }
  void compute(StepContext& ctx) {
    ++computes;
    ctx.active_local = 1;
    ctx.touched_local = ctx.g.n_loc();
    ctx.residual_local = 0.5;
  }
  bool converged(std::uint64_t, double) const { return stop; }
};

/// FrontierKernel whose frontier starts (and stays) empty; step() must
/// never run.
struct EmptyFrontierKernel {
  bool stepped = false;
  std::uint64_t active_local() const { return 0; }
  void step(StepContext&) { stepped = true; }
};

TEST(SuperstepEngine, MaxSuperstepCutoff) {
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    CountingKernel k(g);
                    EngineConfig cfg;
                    cfg.max_supersteps = 3;
                    SuperstepEngine eng(g, comm, cfg);
                    const EngineResult r = eng.run_value(k);
                    EXPECT_EQ(r.supersteps, 3u);
                    EXPECT_FALSE(r.converged);  // cutoff, not kernel stop
                    EXPECT_EQ(k.computes, 3);
                    EXPECT_EQ(r.last_active, 2u);  // 1 per rank
                  });
}

TEST(SuperstepEngine, ImmediateConvergenceRunsOneSuperstep) {
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    CountingKernel k(g);
                    k.stop = true;
                    SuperstepEngine eng(g, comm, {});
                    const EngineResult r = eng.run_value(k);
                    EXPECT_EQ(r.supersteps, 1u);
                    EXPECT_TRUE(r.converged);
                    EXPECT_EQ(k.computes, 1);
                  });
}

/// Events of `rank` named `name` of the given kind, across its lanes.
std::vector<obs::Event> events_named(const obs::Tracer& tracer, int rank,
                                     const char* name, obs::EventKind kind) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : tracer.rank_events(rank))
    if (e.kind == kind && std::string_view(e.name) == name) out.push_back(e);
  return out;
}

TEST(SuperstepEngine, EmptyFrontierExitsWithZeroSupersteps) {
  obs::Tracer tracer;
  tracer.install();
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    obs::RankGuard guard(comm.rank());
                    EmptyFrontierKernel k;
                    SuperstepEngine eng(g, comm, {});
                    const EngineResult r = eng.run_frontier(k);
                    EXPECT_EQ(r.supersteps, 0u);
                    EXPECT_TRUE(r.converged);
                    EXPECT_FALSE(k.stepped);
                  });
  obs::Tracer::uninstall();
  for (int rank = 0; rank < 2; ++rank)  // no rounds, no superstep spans
    EXPECT_TRUE(events_named(tracer, rank, obs::span_name::kSuperstep,
                             obs::EventKind::kSpan)
                    .empty());
}

// ---- Per-round telemetry: spans and counters on every rank's lane. ----

TEST(EngineTrace, EveryRankRecordsEveryRound) {
  obs::Tracer tracer;
  tracer.install();
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    obs::RankGuard guard(comm.rank());
                    CountingKernel k(g);
                    EngineConfig cfg;
                    cfg.max_supersteps = 4;
                    SuperstepEngine eng(g, comm, cfg);
                    (void)eng.run_value(k);
                  });
  obs::Tracer::uninstall();

  namespace cn = obs::counter_name;
  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE(rank);
    EXPECT_EQ(events_named(tracer, rank, obs::span_name::kSuperstep,
                           obs::EventKind::kSpan)
                  .size(),
              4u);
    // The counters carry the fused allreduce's globals: every rank stamps
    // the same record.  tiny_graph has 10 vertices; each rank reports
    // active 1 and residual 0.5.
    for (const auto& [name, want] :
         {std::pair{cn::kTouched, 10.0}, std::pair{cn::kFrontierActive, 2.0},
          std::pair{cn::kResidual, 1.0}}) {
      const std::vector<obs::Event> samples =
          events_named(tracer, rank, name, obs::EventKind::kCounter);
      ASSERT_EQ(samples.size(), 4u) << name;
      for (const obs::Event& e : samples) EXPECT_EQ(e.value, want) << name;
    }
  }
}

TEST(EngineTrace, PageRankRoundsRecordTheirExchange) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);

  obs::Tracer tracer;
  tracer.install();
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    obs::RankGuard guard(comm.rank());
                    analytics::PageRankOptions po;
                    po.max_iterations = 5;
                    (void)analytics::pagerank(g, comm, po);
                  });
  obs::Tracer::uninstall();

  for (int rank = 0; rank < 2; ++rank) {
    SCOPED_TRACE(rank);
    const std::vector<obs::Event> rounds = events_named(
        tracer, rank, obs::span_name::kSuperstep, obs::EventKind::kSpan);
    const std::vector<obs::Event> exchanges = events_named(
        tracer, rank, obs::span_name::kExchange, obs::EventKind::kSpan);
    ASSERT_EQ(rounds.size(), 5u);
    ASSERT_EQ(exchanges.size(), 5u);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      // Each round's ghost exchange lies inside it and takes real time.
      EXPECT_GT(exchanges[i].dur_ns, 0);
      EXPECT_GE(exchanges[i].ts_ns, rounds[i].ts_ns);
      EXPECT_LE(exchanges[i].ts_ns + exchanges[i].dur_ns,
                rounds[i].ts_ns + rounds[i].dur_ns);
    }
  }
}

// ---- Equivalence matrix: engine ports vs the single-rank dense run. ----
//
// The engine's contract is that porting an analytic changes nothing
// observable: same collective schedule, same FP order, same results at
// every rank count.  The baseline (1 rank, dense wire) is the
// configuration the pre-engine suites pinned against the sequential
// references, so matching it bit-for-bit pins the ports to the
// pre-refactor outputs.

/// The pre-engine PageRank loop, frozen verbatim: the bit-for-bit baseline
/// for the engine port.  (PageRank is the one ported analytic whose output
/// is *not* rank-count invariant — the dangling-mass allreduce sums in rank
/// order, so its last ulp varies with p.  The engine contract is therefore
/// "identical to the old loop at the same configuration", which this
/// reproduces.)
std::vector<double> handrolled_pagerank(const DistGraph& g, Communicator& comm,
                                        int iters) {
  const double n = static_cast<double>(g.n_global());
  dgraph::GhostExchange gx(g, comm, dgraph::Adjacency::kOut, nullptr);
  std::vector<double> rank(g.n_loc(), 1.0 / n);
  std::vector<double> next(g.n_loc());
  std::vector<double> contrib(g.n_total(), 0.0);
  constexpr double damping = 0.85;
  for (int it = 0; it < iters; ++it) {
    double dangling_local = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (g.out_degree(v) == 0) dangling_local += rank[v];
    const double dangling = comm.allreduce_sum(dangling_local);
    const double base = (1.0 - damping) / n + damping * dangling / n;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const std::uint64_t d = g.out_degree(v);
      contrib[v] = d ? damping * rank[v] / static_cast<double>(d) : 0.0;
    }
    gx.exchange<double>(contrib, comm);
    double delta_local = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      double sum = base;
      for (const lvid_t u : g.in_neighbors(v)) sum += contrib[u];
      next[v] = sum;
      delta_local += std::abs(sum - rank[v]);
    }
    rank.swap(next);
    (void)comm.allreduce_sum(delta_local);
  }
  return rank;
}

struct GlobalResults {
  std::vector<double> pr;
  std::vector<std::uint64_t> lp;
  std::vector<gvid_t> wcc_comp;
  std::vector<std::uint64_t> kcore;
  std::vector<std::uint64_t> sssp;
  std::uint64_t wcc_largest = 0;
  int wcc_coloring = 0;
  int sssp_rounds = 0;
};

GlobalResults run_all(const gen::EdgeList& el, const DistConfig& cfg,
                      unsigned nthreads = 1) {
  GlobalResults r;
  r.pr.assign(el.n, 0.0);
  r.lp.assign(el.n, 0);
  r.wcc_comp.assign(el.n, 0);
  r.kcore.assign(el.n, 0);
  r.sssp.assign(el.n, 0);
  with_dist_graph(el, cfg, [&](const DistGraph& g, Communicator& comm) {
    ThreadPool pool(nthreads);
    analytics::PageRankOptions po;
    po.max_iterations = 10;
    po.common.pool = &pool;
    const auto pr = analytics::pagerank(g, comm, po);
    // Engine port vs frozen pre-engine loop, same config: bit-for-bit.
    const std::vector<double> old_pr = handrolled_pagerank(g, comm, 10);
    ASSERT_EQ(pr.scores.size(), old_pr.size());
    EXPECT_EQ(std::memcmp(pr.scores.data(), old_pr.data(),
                          old_pr.size() * sizeof(double)),
              0)
        << "engine PageRank diverged from the pre-engine loop";

    analytics::LabelPropOptions lo;
    lo.iterations = 10;
    lo.common.pool = &pool;
    const auto lp = analytics::label_propagation(g, comm, lo);

    analytics::WccOptions wo;
    wo.common.pool = &pool;
    const auto wc = analytics::wcc(g, comm, wo);

    analytics::KCoreOptions ko;
    ko.max_i = 6;
    ko.common.pool = &pool;
    const auto kc = analytics::kcore_approx(g, comm, ko);

    const auto ss = analytics::sssp(g, comm, 0);

    // Ranks own disjoint gid sets, so concurrent writes target distinct
    // slots.
    for (lvid_t v = 0; v < g.n_loc(); ++v) {
      const gvid_t gid = g.global_id(v);
      r.pr[gid] = pr.scores[v];
      r.lp[gid] = lp.labels[v];
      r.wcc_comp[gid] = wc.comp[v];
      r.kcore[gid] = kc.bound[v];
      r.sssp[gid] = ss.dist[v];
    }
    if (comm.rank() == 0) {
      r.wcc_largest = wc.largest_size;
      r.wcc_coloring = wc.coloring_iters;
      r.sssp_rounds = ss.rounds;
    }
  });
  return r;
}

TEST(EngineEquivalence, BitIdenticalAcrossRanks) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);

  const GlobalResults ref =
      run_all(el, {1, dgraph::PartitionKind::kVertexBlock});

  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const GlobalResults got =
        run_all(el, {p, dgraph::PartitionKind::kVertexBlock});
    // Integer-valued analytics are rank-count invariant: exact match.
    // PageRank's dangling allreduce order varies with p (pre-engine
    // behavior too), so across configs it gets an ulp-scale tolerance;
    // the bit-for-bit pin versus the frozen loop ran inside run_all.
    for (gvid_t v = 0; v < el.n; ++v)
      ASSERT_NEAR(got.pr[v], ref.pr[v], std::abs(ref.pr[v]) * 1e-12)
          << "vertex " << v;
    EXPECT_EQ(got.lp, ref.lp);
    EXPECT_EQ(got.wcc_comp, ref.wcc_comp);
    EXPECT_EQ(got.kcore, ref.kcore);
    EXPECT_EQ(got.sssp, ref.sssp);
    EXPECT_EQ(got.wcc_largest, ref.wcc_largest);
    EXPECT_EQ(got.wcc_coloring, ref.wcc_coloring);
    EXPECT_EQ(got.sssp_rounds, ref.sssp_rounds);
  }
}

TEST(EngineEquivalence, BitIdenticalAcrossThreadCounts) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  rp.scramble_ids = false;  // hubs clustered at low ids: skewed spans
  const gen::EdgeList el = gen::rmat(rp);
  const GlobalResults ref =
      run_all(el, {2, dgraph::PartitionKind::kVertexBlock});
  const GlobalResults got =
      run_all(el, {2, dgraph::PartitionKind::kVertexBlock}, 4);
  // Same rank count, so even PageRank is pinned bit-for-bit: the per-vertex
  // gather order and the cross-rank reductions do not depend on the pool
  // width.  Every sweep keeps its serial semantics, so the round counts
  // match too.
  EXPECT_EQ(std::memcmp(got.pr.data(), ref.pr.data(),
                        ref.pr.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.lp, ref.lp);
  EXPECT_EQ(got.wcc_comp, ref.wcc_comp);
  EXPECT_EQ(got.kcore, ref.kcore);
  EXPECT_EQ(got.sssp, ref.sssp);
  EXPECT_EQ(got.wcc_largest, ref.wcc_largest);
  EXPECT_EQ(got.wcc_coloring, ref.wcc_coloring);
  EXPECT_EQ(got.sssp_rounds, ref.sssp_rounds);
}

TEST(EngineEquivalence, RandomPartitionMatchesBlockBaseline) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const GlobalResults ref =
      run_all(el, {1, dgraph::PartitionKind::kVertexBlock});
  const GlobalResults got =
      run_all(el, {4, dgraph::PartitionKind::kRandom});
  for (gvid_t v = 0; v < el.n; ++v)
    ASSERT_NEAR(got.pr[v], ref.pr[v], std::abs(ref.pr[v]) * 1e-12)
        << "vertex " << v;
  EXPECT_EQ(got.lp, ref.lp);
  EXPECT_EQ(got.wcc_comp, ref.wcc_comp);
  EXPECT_EQ(got.kcore, ref.kcore);
  EXPECT_EQ(got.sssp, ref.sssp);
}

}  // namespace
}  // namespace hpcgraph::engine
