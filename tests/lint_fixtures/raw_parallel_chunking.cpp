// Fixture: hand-rolled thread-id partitioning in algorithm code.  Loop
// decomposition must go through ThreadPool::for_chunks / for_ranges over a
// ChunkGrid so sweeps follow the pool's span schedule, feed the sweep
// telemetry, and keep the deterministic chunk-order reduction contract.
// EXPECT-LINT: raw-parallel-chunking

#include <cstdint>
#include <vector>

namespace hpcgraph::analytics {

inline std::uint64_t sum_degrees(const std::vector<std::uint64_t>& deg,
                                 unsigned tid, unsigned nthreads) {
  // Equal-count split computed by hand: thread `tid` takes
  // [tid * per, (tid + 1) * per).  That is the pool's span_grid, spelled
  // out by hand, so the pool's sweep telemetry never sees the loop.
  const std::uint64_t per = (deg.size() + nthreads - 1) / nthreads;
  const std::uint64_t lo = tid * per;
  const std::uint64_t hi = std::min<std::uint64_t>(deg.size(), lo + per);
  std::uint64_t total = 0;
  for (std::uint64_t i = lo; i < hi; ++i) total += deg[i];
  return total;
}

}  // namespace hpcgraph::analytics
