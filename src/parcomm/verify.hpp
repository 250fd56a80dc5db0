#pragma once
/// \file verify.hpp
/// Debug-mode collective-matching verifier (DESIGN.md §8).
///
/// The runtime's correctness rests on MPI collective discipline: every rank
/// calls the *same* collective, in the *same* order, with agreeing
/// signatures.  A violation in real MPI is a deadlock or silent corruption;
/// in this simulated runtime it is silent board corruption (most collectives
/// use the same two-barrier skeleton, so mismatched calls still "complete" —
/// reading each other's unrelated buffers).
///
/// When compiled with `PARCOMM_VERIFY` (CMake `HPCGRAPH_PARCOMM_VERIFY`,
/// AUTO-on in Debug and sanitizer builds), every collective first performs a
/// *fingerprint rendezvous*: each rank posts
///
///     { seq, op kind, element size, root, counts-checksum, call site }
///
/// to a shared slot, barriers, and cross-checks all ranks' fingerprints with
/// the same pure function.  On divergence every rank throws
/// CollectiveMismatch naming the diverging rank and *both* call sites
/// (std::source_location captured at the user's call) instead of hanging or
/// corrupting.  The `seq` field (a per-rank collective counter) additionally
/// catches ranks that skipped or double-issued an earlier collective even if
/// the op kinds happen to line up now.
///
/// Two data-level checks ride on the same machinery:
///   * Alltoallv count symmetry: the sender's counts row is checksummed at
///     the rendezvous and re-verified by every receiver at copy time, so a
///     rank that mutates its counts buffer mid-collective (a retained-buffer
///     reuse bug) is caught at the exact round it happens.
///   * Allreduce NaN poisoning: floating-point allreduce inputs are checked
///     before they can contaminate the global fold; the poisoning rank and
///     call site are reported.
///
/// Everything in this header is plain inline code with no dependency on the
/// communicator, so the pure checks are unit-testable in any build; the
/// *hooks* in comm.hpp compile away entirely when PARCOMM_VERIFY is off
/// (signatures carry no extra arguments, no fingerprint state is touched).

#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#if defined(PARCOMM_VERIFY) && PARCOMM_VERIFY
#define HPCGRAPH_VERIFY_ENABLED 1
#else
#define HPCGRAPH_VERIFY_ENABLED 0
#endif

namespace hpcgraph::parcomm::verify {

/// Collective kinds fingerprinted by the verifier.
enum class Op : std::uint8_t {
  kBarrier,
  kAlltoallv,
  kAllreduce,
  kAllgather,
  kAllgatherv,
  kBroadcast,
  kBroadcastVec,
  kGatherv,
};

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kBarrier: return "barrier";
    case Op::kAlltoallv: return "alltoallv";
    case Op::kAllreduce: return "allreduce";
    case Op::kAllgather: return "allgather";
    case Op::kAllgatherv: return "allgatherv";
    case Op::kBroadcast: return "broadcast";
    case Op::kBroadcastVec: return "broadcast_vec";
    case Op::kGatherv: return "gatherv";
  }
  return "?";
}

/// What one rank claims it is about to do.  `seq`, `op`, `elem_size` and
/// `root` must agree across ranks; `aux` is per-rank data (the Alltoallv
/// counts checksum) consumed by pairwise checks, and the call-site fields
/// are for reporting only (ranks may legitimately reach the same collective
/// from different source lines, e.g. a root-only branch).
struct Fingerprint {
  std::uint64_t seq = 0;          ///< per-rank collective counter
  Op op = Op::kBarrier;           ///< collective kind
  std::uint32_t elem_size = 0;    ///< sizeof(T); 0 for barrier
  std::int32_t root = -1;         ///< rooted collectives; -1 otherwise
  std::uint64_t aux = 0;          ///< counts checksum (not cross-checked)
  const char* file = "";          ///< call-site file (string literal)
  std::uint32_t line = 0;         ///< call-site line
  const char* func = "";          ///< call-site enclosing function
};

/// Fields MPI requires to agree at a matched collective.
inline bool agree(const Fingerprint& a, const Fingerprint& b) {
  return a.seq == b.seq && a.op == b.op && a.elem_size == b.elem_size &&
         a.root == b.root;
}

/// A collective-discipline violation detected by the verifier.  Thrown by
/// every rank that observes the divergence, so CommWorld::run surfaces it
/// (never WorldAborted) with the full report in what().
class CollectiveMismatch : public std::runtime_error {
 public:
  explicit CollectiveMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// A NaN fed into a floating-point Allreduce (poisons every rank's result).
class CollectivePoisoned : public std::runtime_error {
 public:
  explicit CollectivePoisoned(const std::string& what)
      : std::runtime_error(what) {}
};

inline void format_one(std::ostringstream& os, int rank,
                       const Fingerprint& f) {
  os << "  rank " << rank << ": seq=" << f.seq << " " << op_name(f.op)
     << " elem=" << f.elem_size << "B";
  if (f.root >= 0) os << " root=" << f.root;
  os << " at " << f.file << ":" << f.line;
  if (f.func && f.func[0] != '\0') os << " [" << f.func << "]";
  os << "\n";
}

/// Pure cross-rank agreement check: fps[r] is rank r's fingerprint for the
/// collective all ranks just rendezvoused at.  Returns "" when all agree,
/// otherwise a report naming the diverging rank and both call sites.  Every
/// rank evaluates this on identical data, so all ranks reach the same
/// verdict (no rank is left waiting in a barrier).
inline std::string check_fingerprints(std::span<const Fingerprint> fps) {
  if (fps.size() <= 1) return {};
  for (std::size_t r = 1; r < fps.size(); ++r) {
    if (agree(fps[0], fps[r])) continue;
    std::ostringstream os;
    os << "parcomm verify: collective mismatch (diverging rank " << r
       << "):\n";
    format_one(os, 0, fps[0]);
    format_one(os, static_cast<int>(r), fps[r]);
    if (fps[0].seq != fps[r].seq)
      os << "  (seq differs: a rank skipped or double-issued an earlier "
            "collective)";
    return os.str();
  }
  return {};
}

/// FNV-1a over a counts row — the Alltoallv count signature posted at the
/// rendezvous and re-verified by receivers at copy time.
inline std::uint64_t counts_checksum(std::span<const std::uint64_t> counts) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t c : counts) {
    const auto* p = reinterpret_cast<const unsigned char*>(&c);
    for (std::size_t i = 0; i < sizeof(c); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Pure Alltoallv count-matrix validation: rows[i] is rank i's sendcounts.
/// MPI symmetry requires rank j to receive exactly rows[i][j] items from
/// rank i, which is only well-defined when every rank posts one count per
/// peer.  Returns "" when the matrix is well-formed, else a diagnostic
/// naming the offending rank (used by tests to inject asymmetric counts
/// and by alternative backends that carry explicit recvcounts).
inline std::string check_alltoallv_matrix(
    const std::vector<std::vector<std::uint64_t>>& rows) {
  const std::size_t n = rows.size();
  for (std::size_t r = 0; r < n; ++r) {
    if (rows[r].size() != n) {
      std::ostringstream os;
      os << "parcomm verify: asymmetric alltoallv counts: rank " << r
         << " posted " << rows[r].size() << " counts for a " << n
         << "-rank world";
      return os.str();
    }
  }
  return {};
}

/// Report for a counts row that changed between the rendezvous and the
/// receivers' copy phase (sender reused its counts buffer mid-collective).
inline std::string mutation_report(int source_rank, const Fingerprint& f) {
  std::ostringstream os;
  os << "parcomm verify: alltoallv counts of rank " << source_rank
     << " changed mid-collective (posted checksum does not match the row "
        "read at copy time)\n";
  format_one(os, source_rank, f);
  return os.str();
}

/// Allreduce input poisoning check: NaN in any rank's contribution makes
/// every rank's result NaN, usually far from the root cause.  Only
/// floating-point payloads are inspected; aggregate T is left alone.
template <typename T>
inline void check_allreduce_input(const T& value, int rank, const char* file,
                                  std::uint32_t line) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(value)) {
      std::ostringstream os;
      os << "parcomm verify: NaN fed into allreduce by rank " << rank
         << " at " << file << ":" << line;
      throw CollectivePoisoned(os.str());
    }
  } else {
    (void)value;
    (void)rank;
    (void)file;
    (void)line;
  }
}

}  // namespace hpcgraph::parcomm::verify
