// Fixture: raw timing primitive inside a hot loop.  Per-iteration timing in
// algorithm code must go through obs::Span, so the measurement lands on
// every rank's --trace-events timeline; a bare util::Timer is invisible to
// the tracer.
// EXPECT-LINT: raw-timer-in-hot-loop

#include <cstdint>
#include <vector>

#include "util/timer.hpp"

namespace hpcgraph::analytics {

inline double time_rounds(const std::vector<std::uint64_t>& work) {
  double pack_s = 0;
  // A region-level timer OUTSIDE the loop is fine — only the in-loop
  // declaration below is a finding.
  Timer region;
  for (std::size_t round = 0; round < work.size(); ++round) {
    Timer t;  // per-round timing bypasses the span tracer
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < work[round]; ++i) sink = sink + i;
    pack_s += t.elapsed();
  }
  return pack_s + region.elapsed();
}

}  // namespace hpcgraph::analytics
