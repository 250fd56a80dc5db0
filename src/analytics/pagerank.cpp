#include "analytics/pagerank.hpp"

#include <cmath>

#include "engine/superstep.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using engine::StepContext;

namespace {

/// ValueKernel: one power-iteration round.  The exchanged value is the
/// per-vertex out-contribution `damping * rank(v) / outdeg(v)`; the apply
/// hook gathers in-neighbour contributions into the next rank vector and
/// accumulates the L1 delta the engine's fused allreduce turns into the
/// global residual.
struct PageRankKernel {
  using Value = double;

  const DistGraph& g;
  const PageRankOptions& opts;
  double n;                      // n_global as double
  std::vector<double> rank;      // locals only
  std::vector<double> next;      // locals only
  std::vector<double> contrib;   // locals + ghosts (the exchanged array)
  double base = 0;               // this round's teleport + dangling share
  ChunkGrid gather_grid;         // in-degree-weighted grid (built lazily)

  PageRankKernel(const DistGraph& g_, const PageRankOptions& o)
      : g(g_),
        opts(o),
        n(static_cast<double>(g_.n_global())),
        rank(g_.n_loc(), 1.0 / n),
        next(g_.n_loc()),
        contrib(g_.n_total(), 0.0) {}

  Adjacency adjacency() const { return Adjacency::kOut; }
  bool retain_queues() const { return opts.retain_queues; }
  std::span<double> values() { return contrib; }

  void compute(StepContext& ctx) {
    // Dangling mass (vertices with no out-edges leak rank otherwise).
    double dangling_local = 0;
    for (lvid_t v = 0; v < g.n_loc(); ++v)
      if (g.out_degree(v) == 0) dangling_local += rank[v];
    const double dangling = ctx.comm.allreduce_sum(dangling_local);
    base = (1.0 - opts.damping) / n + opts.damping * dangling / n;

    ctx.pool.for_ranges(0, g.n_loc(),
                        [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t v = lo; v < hi; ++v) {
        const std::uint64_t d = g.out_degree(static_cast<lvid_t>(v));
        contrib[v] = d ? opts.damping * rank[v] / static_cast<double>(d) : 0.0;
      }
    });
  }

  void apply(StepContext& ctx) {
    // The in-neighbour gather costs in-degree per vertex, so its span grid
    // is weighted by the in-CSR prefix (the sweep telemetry counts edges).
    // next[v] is a pure per-vertex function — bit-identical at every pool
    // width — and the L1 delta folds per-span partials in span order,
    // making the residual a pure function of the grid.
    if (gather_grid.empty() && g.n_loc() > 0)
      gather_grid =
          span_grid(g.n_loc(), g.in_index(), ctx.pool.num_threads());
    const double delta_local = ctx.pool.reduce_chunks(
        gather_grid, [&](const Chunk& ck) {
          double delta_chunk = 0;
          for (std::uint64_t v = ck.begin; v < ck.end; ++v) {
            double sum = base;
            for (const lvid_t u : g.in_neighbors(static_cast<lvid_t>(v)))
              sum += contrib[u];
            next[v] = sum;
            delta_chunk += std::fabs(sum - rank[v]);
          }
          return delta_chunk;
        });
    rank.swap(next);
    ctx.active_local = g.n_loc();
    ctx.touched_local = g.n_loc();
    ctx.residual_local = delta_local;
  }

  bool converged(std::uint64_t, double residual_global) const {
    return opts.tolerance > 0 && residual_global < opts.tolerance;
  }
};

}  // namespace

PageRankResult pagerank(const DistGraph& g, parcomm::Communicator& comm,
                        const PageRankOptions& opts) {
  HG_CHECK(g.n_global() > 0);

  PageRankKernel kernel(g, opts);
  engine::SuperstepEngine eng(
      g, comm,
      engine_config(opts.common,
                    static_cast<std::uint64_t>(opts.max_iterations)));
  const engine::EngineResult er = eng.run_value(kernel);

  PageRankResult res;
  res.iterations_run = static_cast<int>(er.supersteps);
  res.l1_delta = er.last_residual;
  res.scores = std::move(kernel.rank);
  return res;
}

}  // namespace hpcgraph::analytics
