// Fixture: raw MPI nonblocking primitives in algorithm code.  No
// nonblocking path is sanctioned: every exchange uses the blocking
// parcomm::Communicator collectives, and a raw MPI_Ialltoallv/MPI_Wait
// bypasses the PARCOMM_VERIFY fingerprint rendezvous and flowlint.
// EXPECT-LINT: raw-nonblocking-mpi

#include <cstdint>
#include <vector>

namespace hpcgraph::analytics {

void overlap_exchange(const std::vector<std::uint8_t>& payload,
                      const std::vector<int>& counts,
                      const std::vector<int>& displs,
                      std::vector<std::uint8_t>& recv) {
  MPI_Request req;  // raw nonblocking handle in analytics code
  MPI_Ialltoallv(payload.data(), counts.data(), displs.data(), MPI_BYTE,
                 recv.data(), counts.data(), displs.data(), MPI_BYTE,
                 MPI_COMM_WORLD, &req);
  // ... interior compute would go here ...
  MPI_Wait(&req, MPI_STATUS_IGNORE);
}

}  // namespace hpcgraph::analytics
