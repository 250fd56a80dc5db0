#include "engine/trace.hpp"

#include "obs/emit.hpp"
#include "util/json.hpp"

namespace hpcgraph::engine {

std::string SuperstepTrace::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("schema", "hpcgraph-superstep-trace-v1");
  w.kv("supersteps_total", static_cast<std::uint64_t>(records_.size()));
  w.key("supersteps");
  w.begin_array();
  for (const SuperstepRecord& r : records_) {
    w.begin_object();
    w.kv("index", r.index);
    w.kv("analytic", r.analytic);
    w.kv("superstep", r.superstep);
    w.kv("active", r.active);
    w.kv("touched", r.touched);
    w.kv("residual", r.residual);
    w.kv("converged", r.converged);
    w.kv("wire", r.wire);
    w.kv("exchange_us", r.exchange_us);
    if (!r.frontier_rep.empty()) {
      w.key("frontier");
      w.begin_object();
      w.kv("rep", r.frontier_rep);
      w.kv("dir", r.frontier_dir);
      w.kv("density", r.density);
      w.kv("degree", r.degree);
      w.kv("crossover", r.crossover);
      w.end_object();
    }
    w.key("sweep");
    w.begin_object();
    w.kv("schedule", r.schedule);
    w.kv("threads", static_cast<std::uint64_t>(r.sweep_threads));
    w.kv("busy_max_us", r.sweep_busy_max_us);
    w.kv("busy_total_us", r.sweep_busy_total_us);
    w.kv("edges_max", r.sweep_edges_max);
    w.kv("edges_total", r.sweep_edges_total);
    w.kv("imbalance", r.sweep_imbalance());
    w.end_object();
    // CommStats / PhaseBreakdown field emission is shared with the obs
    // metrics dump (obs/emit.hpp): one spelling per field, defined next to
    // the structs.
    w.key("comm");
    w.begin_object();
    obs::write_comm_stats(w, r.comm);
    w.end_object();
    w.key("phase");
    w.begin_object();
    obs::write_phase(w, r.phase);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void SuperstepTrace::write_json(const std::string& path) const {
  obs::write_text_file(path, to_json());
}

}  // namespace hpcgraph::engine
