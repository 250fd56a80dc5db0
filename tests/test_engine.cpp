// The SuperstepEngine: unit tests on synthetic kernels (iteration cutoff,
// immediate convergence, empty-frontier exit), per-superstep trace
// validation (one record per round, monotone indices, well-formed JSON,
// populated comm/phase deltas), and the engine-port equivalence matrix —
// all five ported analytics bit-for-bit identical across rank counts and
// ghost wire formats against the single-rank dense baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "analytics/analytics.hpp"
#include "engine/superstep.hpp"
#include "engine/trace.hpp"
#include "gen/rmat.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace hpcgraph::engine {
namespace {

using dgraph::DistGraph;
using dgraph::GhostMode;
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

TEST(SuperstepEngine, EmptyFrontierExitsWithZeroSupersteps) {
  SuperstepTrace trace;
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    EmptyFrontierKernel k;
                    EngineConfig cfg;
                    cfg.trace = &trace;
                    cfg.name = "empty";
                    SuperstepEngine eng(g, comm, cfg);
                    const EngineResult r = eng.run_frontier(k);
                    EXPECT_EQ(r.supersteps, 0u);
                    EXPECT_TRUE(r.converged);
                    EXPECT_FALSE(k.stepped);
                  });
  EXPECT_TRUE(trace.empty());  // no rounds, no records
}

// ---- Trace validation. ----

TEST(SuperstepTrace, OneRecordPerRoundMonotoneAndWellFormed) {
  SuperstepTrace trace;
  with_dist_graph(tiny_graph(), {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    CountingKernel k(g);
                    EngineConfig cfg;
                    cfg.max_supersteps = 4;
                    cfg.trace = &trace;
                    cfg.name = "counting";
                    SuperstepEngine eng(g, comm, cfg);
                    (void)eng.run_value(k);
                  });
  ASSERT_EQ(trace.size(), 4u);  // exactly one record per round, rank 0 only
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SuperstepRecord& rec = trace.records()[i];
    EXPECT_EQ(rec.index, i);
    EXPECT_EQ(rec.superstep, i);
    EXPECT_EQ(rec.analytic, "counting");
    EXPECT_EQ(rec.active, 2u);
    EXPECT_EQ(rec.touched, 10u);  // tiny_graph has 10 vertices
    EXPECT_DOUBLE_EQ(rec.residual, 1.0);
    EXPECT_FALSE(rec.converged);
    EXPECT_EQ(rec.wire, "dense");
    // The round's delta includes its ghost exchange + fused allreduce.
    // (No received == remote + self check here: that conservation law
    // holds summed over all ranks, and the record is rank 0's view only.)
    EXPECT_GE(rec.comm.collective_calls, 2u);
    EXPECT_GT(rec.comm.bytes_received, 0u);
    EXPECT_GT(rec.comm.bytes_sent, 0u);
    EXPECT_GE(rec.phase.total, 0.0);
  }
  const std::string json = trace.to_json();
  EXPECT_TRUE(util::JsonChecker::valid(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"schema\":\"hpcgraph-superstep-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"exchange_us\""), std::string::npos);
}

TEST(SuperstepTrace, IndicesStayMonotoneAcrossEngineRuns) {
  gen::RmatParams rp;
  rp.scale = 7;
  rp.avg_degree = 6;
  const gen::EdgeList el = gen::rmat(rp);

  SuperstepTrace trace;
  with_dist_graph(el, {2, dgraph::PartitionKind::kVertexBlock},
                  [&](const DistGraph& g, Communicator& comm) {
                    analytics::PageRankOptions po;
                    po.max_iterations = 5;
                    po.common.trace = &trace;
                    (void)analytics::pagerank(g, comm, po);
                    analytics::SsspOptions so;
                    so.common.trace = &trace;
                    (void)analytics::sssp(g, comm, 0, so);
                  });
  ASSERT_GT(trace.size(), 5u);  // 5 PageRank rounds + >=1 SSSP round
  bool saw_pr = false, saw_sssp = false;
  std::uint64_t pr_exchange_us = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.records()[i].index, i);  // trace-global, monotone
    saw_pr |= trace.records()[i].analytic == "pagerank";
    saw_sssp |= trace.records()[i].analytic == "sssp";
    if (trace.records()[i].analytic == "pagerank")
      pr_exchange_us += trace.records()[i].exchange_us;
  }
  EXPECT_TRUE(saw_pr);
  EXPECT_TRUE(saw_sssp);
  // Five ghost exchanges take well over a microsecond: the timer must be
  // populated, not just present.
  EXPECT_GT(pr_exchange_us, 0u);
  // Within each run the superstep counter restarts at 0 and increments.
  EXPECT_EQ(trace.records()[0].superstep, 0u);
  EXPECT_EQ(trace.records()[5].superstep, 0u);  // first SSSP round
  EXPECT_TRUE(util::JsonChecker::valid(trace.to_json()));
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
                      GhostMode mode, Schedule sched = Schedule::kStatic,
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
    po.common.schedule = sched;
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
    lo.common.ghost_mode = mode;
    lo.common.pool = &pool;
    lo.common.schedule = sched;
    const auto lp = analytics::label_propagation(g, comm, lo);

    analytics::WccOptions wo;
    wo.common.ghost_mode = mode;
    wo.common.pool = &pool;
    wo.common.schedule = sched;
    const auto wc = analytics::wcc(g, comm, wo);

    analytics::KCoreOptions ko;
    ko.max_i = 6;
    ko.common.ghost_mode = mode;
    ko.common.pool = &pool;
    ko.common.schedule = sched;
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

TEST(EngineEquivalence, BitIdenticalAcrossRanksAndWireFormats) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);

  const GlobalResults ref =
      run_all(el, {1, dgraph::PartitionKind::kVertexBlock}, GhostMode::kDense);

  for (const int p : {1, 2, 4}) {
    for (const auto mode :
         {GhostMode::kDense, GhostMode::kSparse, GhostMode::kAdaptive}) {
      SCOPED_TRACE("p=" + std::to_string(p) + " mode=" +
                   dgraph::ghost_mode_label(mode));
      const GlobalResults got =
          run_all(el, {p, dgraph::PartitionKind::kVertexBlock}, mode);
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
}

TEST(EngineEquivalence, BitIdenticalAcrossSchedules) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  rp.scramble_ids = false;  // hubs clustered at low ids: skewed chunks
  const gen::EdgeList el = gen::rmat(rp);
  const GlobalResults ref =
      run_all(el, {2, dgraph::PartitionKind::kVertexBlock}, GhostMode::kDense);
  for (const Schedule sched : {Schedule::kDynamic, Schedule::kEdgeBalanced}) {
    for (const unsigned nt : {1u, 4u}) {
      SCOPED_TRACE(std::string("sched=") + schedule_label(sched) +
                   " nt=" + std::to_string(nt));
      const GlobalResults got =
          run_all(el, {2, dgraph::PartitionKind::kVertexBlock},
                  GhostMode::kDense, sched, nt);
      // Same rank count, so even PageRank is pinned bit-for-bit: the
      // per-vertex gather order and the cross-rank reductions are
      // schedule-independent.
      EXPECT_EQ(std::memcmp(got.pr.data(), ref.pr.data(),
                            ref.pr.size() * sizeof(double)),
                0);
      EXPECT_EQ(got.lp, ref.lp);
      EXPECT_EQ(got.wcc_comp, ref.wcc_comp);
      EXPECT_EQ(got.kcore, ref.kcore);
      EXPECT_EQ(got.sssp, ref.sssp);
      EXPECT_EQ(got.wcc_largest, ref.wcc_largest);
      // wcc_coloring / sssp_rounds are deliberately NOT compared: the
      // non-static WCC sweep is a Jacobi pass over the previous round's
      // labels (no in-sweep propagation), so it may converge in a
      // different number of rounds while producing the same components.
    }
  }
}

TEST(EngineEquivalence, RandomPartitionMatchesBlockBaseline) {
  gen::RmatParams rp;
  rp.scale = 8;
  rp.avg_degree = 8;
  const gen::EdgeList el = gen::rmat(rp);
  const GlobalResults ref =
      run_all(el, {1, dgraph::PartitionKind::kVertexBlock}, GhostMode::kDense);
  const GlobalResults got =
      run_all(el, {4, dgraph::PartitionKind::kRandom}, GhostMode::kAdaptive);
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
