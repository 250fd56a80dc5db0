#include "analytics/label_prop.hpp"

#include <vector>

#include "engine/superstep.hpp"
#include "util/atomics.hpp"
#include "util/label_counter.hpp"

namespace hpcgraph::analytics {

using dgraph::Adjacency;
using dgraph::DistGraph;
using engine::StepContext;

namespace {

/// Elementwise sum of the out- and in-CSR prefix arrays: the weight prefix
/// of the sweep's span grid (the sum of two prefix arrays is the prefix
/// array of the summed degrees).
std::vector<std::uint64_t> both_degree_prefix(const DistGraph& g) {
  const auto out = g.out_index();
  const auto in = g.in_index();
  std::vector<std::uint64_t> p(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) p[i] = out[i] + in[i];
  return p;
}

/// ValueKernel: one label-update sweep (paper Algorithm 1).  Exchanged value
/// is the per-vertex label.
struct LabelPropKernel {
  const DistGraph& g;
  const LabelPropOptions& opts;
  std::vector<std::uint64_t> labels;  // locals + ghosts (exchanged)
  std::vector<std::uint64_t> prev;    // pre-round snapshot (Jacobi reads it)
  ChunkGrid grid;                     // degree-weighted (built lazily)

  using Value = std::uint64_t;

  LabelPropKernel(const DistGraph& g_, const LabelPropOptions& o)
      : g(g_), opts(o), labels(g_.n_total()) {
    for (lvid_t l = 0; l < g.n_total(); ++l) labels[l] = g.global_id(l);
  }

  // Labels flow both directions -> boundary set w.r.t. in+out adjacency.
  Adjacency adjacency() const { return Adjacency::kBoth; }
  bool retain_queues() const { return opts.retain_queues; }
  std::span<std::uint64_t> values() { return labels; }

  void compute(StepContext& ctx) {
    const std::uint64_t round_seed = opts.tie_seed + ctx.superstep;

    // Jacobi reads the pre-round snapshot (locals + ghosts) and writes
    // labels[] directly — equivalent to the classic next-buffer + copy.
    const bool jacobi = !opts.in_place;
    if (jacobi) prev.assign(labels.begin(), labels.end());
    const std::vector<std::uint64_t>& read = jacobi ? prev : labels;

    RelaxedCounter changed;
    const auto sweep = [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
      LabelCounter lmap;
      std::uint64_t changed_chunk = 0;
      for (std::uint64_t vi = lo; vi < hi; ++vi) {
        const lvid_t v = static_cast<lvid_t>(vi);
        lmap.clear();
        for (const lvid_t u : g.out_neighbors(v)) lmap.add(read[u]);
        for (const lvid_t u : g.in_neighbors(v)) lmap.add(read[u]);
        const std::uint64_t picked = lmap.argmax(round_seed, read[v]);
        if (picked != read[v]) ++changed_chunk;
        labels[v] = picked;  // Gauss-Seidel when read aliases labels
      }
      if (changed_chunk) changed.add(changed_chunk);
    };
    if (jacobi) {
      // Every vertex's new label is a pure function of the pre-round
      // snapshot, so labels are bit-identical at every pool width.  The
      // per-vertex cost is out+in degree, so the span grid is weighted by
      // the combined-degree prefix.
      if (grid.empty() && g.n_loc() > 0)
        grid = span_grid(g.n_loc(), both_degree_prefix(g),
                         ctx.pool.num_threads());
      ctx.pool.for_ranges(grid, sweep);
    } else {
      // Gauss-Seidel reads labels this same sweep writes, so pool threads
      // would race on them: it runs serially on the rank thread.
      sweep(0, 0, g.n_loc());
    }

    ctx.active_local = changed.load();
    ctx.touched_local = g.n_loc();
  }

  bool converged(std::uint64_t active_global, double) const {
    return opts.stop_when_stable && active_global == 0;
  }
};

}  // namespace

LabelPropResult label_propagation(const DistGraph& g,
                                  parcomm::Communicator& comm,
                                  const LabelPropOptions& opts) {
  LabelPropKernel kernel(g, opts);
  engine::SuperstepEngine eng(
      g, comm,
      engine_config(opts.common, static_cast<std::uint64_t>(opts.iterations)));
  const engine::EngineResult er = eng.run_value(kernel);

  LabelPropResult res;
  res.iterations_run = static_cast<int>(er.supersteps);
  res.labels.assign(kernel.labels.begin(), kernel.labels.begin() + g.n_loc());
  return res;
}

}  // namespace hpcgraph::analytics
