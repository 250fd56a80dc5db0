// Fixture: a flow finding silenced by a reasoned lint:allow on the comment
// line directly above the loop.  The allow both suppresses the finding and
// is counted as used (no stale-suppression).
// EXPECT-CLEAN

#include <cstdint>

namespace hpcgraph::analytics {

struct Comm {
  std::uint64_t allreduce_max(std::uint64_t v);
};

void rounds(Comm& comm, std::uint64_t local_rounds) {
  // lint:allow(flow-rank-dependent-loop-collective: fixture exercising the suppression path)
  for (std::uint64_t i = 0; i < local_rounds; ++i) comm.allreduce_max(i);
}

}  // namespace hpcgraph::analytics
