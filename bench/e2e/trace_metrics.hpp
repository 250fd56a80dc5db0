#pragma once
/// \file trace_metrics.hpp
/// Per-layer numbers derived from the traced repetition's merged obs
/// events.  The benchmark opens one `bench.<stage>` span per stage on every
/// rank; everything here is computed inside those windows, on each rank's
/// main lane:
///
///   * engine compute / exchange — per superstep, the critical-path rank's
///     time (max over ranks), summed over supersteps.  Compute is the
///     engine.compute* spans plus the self time of engine.frontier_step
///     (its frontier.route / ghost.* children removed).
///   * engine idle — per superstep, max minus mean rank compute: the time
///     the other ranks wait on the slowest one (the paper's Fig. 3 idle).
///   * ghost pack / scatter, frontier route — max over ranks of the summed
///     span time in the window.
///   * covered — the union of the library's own spans inside the window;
///     covered / window is the accounted fraction (low = an uninstrumented
///     layer did the work).

#include <cstdint>
#include <span>
#include <vector>

#include "obs/tracer.hpp"

namespace hpcgraph::e2e {

struct TraceStage {
  double compute = 0, exchange = 0, idle = 0;
  double pack = 0, scatter = 0, route = 0;
  double window = 0, covered = 0;  ///< summed over ranks
};

struct TraceMetrics {
  std::vector<TraceStage> stages;  ///< parallel to `windows`
  std::uint64_t dropped = 0;       ///< ring-buffer overwrites, all lanes
};

/// Call after the traced run joined and the tracer was finalized.
TraceMetrics analyze_trace(const obs::Tracer& tracer,
                           std::span<const char* const> windows, int nranks);

}  // namespace hpcgraph::e2e
