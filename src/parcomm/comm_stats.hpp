#pragma once
/// \file comm_stats.hpp
/// Per-rank communication counters.
///
/// Wall-clock times on a 1-core simulation machine are only part of the
/// story; bytes and message counts are machine-independent, so the scaling
/// benches report both.
///
/// Accounting rules (uniform across every collective):
///   * `bytes_sent`     — payload bytes this rank contributes to the
///                        collective, counted once regardless of how many
///                        ranks receive a copy.
///   * `bytes_remote`   — bytes a real network would have to carry from this
///                        rank: the sum over *remote* receivers of the bytes
///                        delivered to them.  Self-delivery is never remote.
///   * `bytes_self`     — bytes this rank delivered to itself (the self
///                        segment of alltoallv, a root reading its own
///                        broadcast, every rank's own allgather slot, ...).
///   * `bytes_received` — all payload bytes copied into this rank's result,
///                        self segments included.  Every receiver counts.
///
/// These imply the global conservation law asserted by test_parcomm:
///   sum over ranks of bytes_received ==
///   sum over ranks of (bytes_remote + bytes_self).
///
/// The ghost_* counters are fed by dgraph::GhostExchange and make the
/// sparse/dense delta-exchange protocol observable per rank: how many
/// exchange rounds used each wire format, and how many send-side remote
/// bytes the sparse format saved relative to a dense round (negative if a
/// forced-sparse round cost more than dense would have).

#include <cstdint>

namespace hpcgraph::parcomm {

/// Canonical serialized field names for CommStats, shared by every emitter
/// (SuperstepTrace JSON via obs::write_comm_stats, the obs metrics registry).
namespace comm_field {
inline constexpr const char* kBytesSent = "bytes_sent";
inline constexpr const char* kBytesRemote = "bytes_remote";
inline constexpr const char* kBytesSelf = "bytes_self";
inline constexpr const char* kBytesReceived = "bytes_received";
inline constexpr const char* kCollectiveCalls = "collective_calls";
inline constexpr const char* kBarrierCalls = "barrier_calls";
inline constexpr const char* kGhostRoundsDense = "ghost_rounds_dense";
inline constexpr const char* kGhostRoundsSparse = "ghost_rounds_sparse";
inline constexpr const char* kGhostRoundsReduce = "ghost_rounds_reduce";
inline constexpr const char* kGhostBytesSaved = "ghost_bytes_saved";
}  // namespace comm_field

struct CommStats {
  std::uint64_t bytes_sent = 0;         ///< payload bytes posted (once)
  std::uint64_t bytes_remote = 0;       ///< payload bytes to *other* ranks
  std::uint64_t bytes_self = 0;         ///< payload bytes delivered to self
  std::uint64_t bytes_received = 0;     ///< all payload bytes copied in
  std::uint64_t collective_calls = 0;   ///< alltoallv/allreduce/... count
  std::uint64_t barrier_calls = 0;      ///< explicit + internal barriers

  std::uint64_t ghost_rounds_dense = 0;   ///< ghost exchanges on dense wire
  std::uint64_t ghost_rounds_sparse = 0;  ///< ghost exchanges on sparse wire
  std::uint64_t ghost_rounds_reduce = 0;  ///< reverse (ghost->owner) rounds
  std::int64_t ghost_bytes_saved = 0;     ///< dense-equivalent minus actual

  void reset() { *this = CommStats{}; }

  CommStats& operator+=(const CommStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_remote += o.bytes_remote;
    bytes_self += o.bytes_self;
    bytes_received += o.bytes_received;
    collective_calls += o.collective_calls;
    barrier_calls += o.barrier_calls;
    ghost_rounds_dense += o.ghost_rounds_dense;
    ghost_rounds_sparse += o.ghost_rounds_sparse;
    ghost_rounds_reduce += o.ghost_rounds_reduce;
    ghost_bytes_saved += o.ghost_bytes_saved;
    return *this;
  }

  /// Counter-wise difference: what happened between an earlier snapshot `o`
  /// and this one.  Counters are monotone within a run (ghost_bytes_saved is
  /// signed and may go either way), so telemetry code takes a snapshot before
  /// a region and calls `now.delta(before)` after instead of hand-subtracting
  /// ten fields.  The conservation law (sum received == sum remote + self)
  /// holds for deltas of a common region because subtraction is linear.
  CommStats operator-(const CommStats& o) const {
    CommStats d;
    d.bytes_sent = bytes_sent - o.bytes_sent;
    d.bytes_remote = bytes_remote - o.bytes_remote;
    d.bytes_self = bytes_self - o.bytes_self;
    d.bytes_received = bytes_received - o.bytes_received;
    d.collective_calls = collective_calls - o.collective_calls;
    d.barrier_calls = barrier_calls - o.barrier_calls;
    d.ghost_rounds_dense = ghost_rounds_dense - o.ghost_rounds_dense;
    d.ghost_rounds_sparse = ghost_rounds_sparse - o.ghost_rounds_sparse;
    d.ghost_rounds_reduce = ghost_rounds_reduce - o.ghost_rounds_reduce;
    d.ghost_bytes_saved = ghost_bytes_saved - o.ghost_bytes_saved;
    return d;
  }

  /// `now.delta(before)` == `now - before`; named form for call sites where
  /// the subtraction order would otherwise need a comment.
  CommStats delta(const CommStats& before) const { return *this - before; }
};

}  // namespace hpcgraph::parcomm
