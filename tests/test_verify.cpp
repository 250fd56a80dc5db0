/// \file test_verify.cpp
/// Collective-matching verifier (DESIGN.md §8, src/parcomm/verify.hpp).
///
/// Two layers:
///   * VerifyPure.*    — the pure check functions, compiled in every build.
///   * VerifyRuntime.* — live ranks committing discipline violations; these
///     need the fingerprint rendezvous compiled in and GTEST_SKIP otherwise
///     (with PARCOMM_VERIFY off a mismatched collective silently corrupts,
///     which is exactly the behavior the verifier exists to replace).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "parcomm/comm.hpp"
#include "parcomm/verify.hpp"

namespace {

using hpcgraph::parcomm::CommWorld;
using hpcgraph::parcomm::Communicator;
namespace verify = hpcgraph::parcomm::verify;

verify::Fingerprint fp(std::uint64_t seq, verify::Op op,
                       std::uint32_t elem_size, std::int32_t root,
                       const char* file, std::uint32_t line) {
  verify::Fingerprint f;
  f.seq = seq;
  f.op = op;
  f.elem_size = elem_size;
  f.root = root;
  f.file = file;
  f.line = line;
  f.func = "test_fn";
  return f;
}

// ---------------------------------------------------------------------------
// Pure checks (always compiled, no ranks involved).
// ---------------------------------------------------------------------------

TEST(VerifyPure, TrivialWorldsAlwaysAgree) {
  EXPECT_EQ(verify::check_fingerprints({}), "");
  const std::vector<verify::Fingerprint> one = {
      fp(3, verify::Op::kAlltoallv, 8, -1, "a.cpp", 10)};
  EXPECT_EQ(verify::check_fingerprints(one), "");
}

TEST(VerifyPure, MatchingFingerprintsAgreeEvenFromDifferentCallSites) {
  // Call site is report-only: a root-only branch legitimately reaches the
  // same collective from a different source line.
  const std::vector<verify::Fingerprint> fps = {
      fp(7, verify::Op::kBroadcast, 4, 2, "root_path.cpp", 100),
      fp(7, verify::Op::kBroadcast, 4, 2, "other_path.cpp", 200),
  };
  EXPECT_EQ(verify::check_fingerprints(fps), "");
}

TEST(VerifyPure, OpMismatchNamesDivergingRankAndBothCallSites) {
  const std::vector<verify::Fingerprint> fps = {
      fp(0, verify::Op::kAllreduce, 8, -1, "reducer.cpp", 42),
      fp(0, verify::Op::kAllreduce, 8, -1, "reducer.cpp", 42),
      fp(0, verify::Op::kAllgather, 8, -1, "gatherer.cpp", 99),
  };
  const std::string msg = verify::check_fingerprints(fps);
  EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("diverging rank 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allgather"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reducer.cpp:42"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gatherer.cpp:99"), std::string::npos) << msg;
}

TEST(VerifyPure, SeqMismatchExplainsSkippedCollective) {
  const std::vector<verify::Fingerprint> fps = {
      fp(5, verify::Op::kBarrier, 0, -1, "a.cpp", 1),
      fp(4, verify::Op::kBarrier, 0, -1, "b.cpp", 2),
  };
  const std::string msg = verify::check_fingerprints(fps);
  EXPECT_NE(msg.find("diverging rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("seq differs"), std::string::npos) << msg;
}

TEST(VerifyPure, ElemSizeAndRootMismatchesAreCaught) {
  const std::vector<verify::Fingerprint> size_clash = {
      fp(0, verify::Op::kAllreduce, 4, -1, "a.cpp", 1),
      fp(0, verify::Op::kAllreduce, 8, -1, "a.cpp", 1),
  };
  std::string msg = verify::check_fingerprints(size_clash);
  EXPECT_NE(msg.find("elem=4B"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elem=8B"), std::string::npos) << msg;

  const std::vector<verify::Fingerprint> root_clash = {
      fp(0, verify::Op::kBroadcast, 4, 0, "a.cpp", 1),
      fp(0, verify::Op::kBroadcast, 4, 1, "a.cpp", 1),
  };
  msg = verify::check_fingerprints(root_clash);
  EXPECT_NE(msg.find("root=0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root=1"), std::string::npos) << msg;
}

TEST(VerifyPure, CountsChecksumIsOrderAndValueSensitive) {
  const std::vector<std::uint64_t> a = {1, 2, 3, 4};
  const std::vector<std::uint64_t> b = {1, 2, 3, 5};
  const std::vector<std::uint64_t> c = {4, 3, 2, 1};
  EXPECT_EQ(verify::counts_checksum(a), verify::counts_checksum(a));
  EXPECT_NE(verify::counts_checksum(a), verify::counts_checksum(b));
  EXPECT_NE(verify::counts_checksum(a), verify::counts_checksum(c));
  // Zero-length rows still hash deterministically.
  EXPECT_EQ(verify::counts_checksum({}), verify::counts_checksum({}));
}

TEST(VerifyPure, AlltoallvMatrixAcceptsSquareCounts) {
  const std::vector<std::vector<std::uint64_t>> rows = {
      {0, 5, 2}, {1, 0, 9}, {4, 4, 0}};
  EXPECT_EQ(verify::check_alltoallv_matrix(rows), "");
  EXPECT_EQ(verify::check_alltoallv_matrix({}), "");
}

TEST(VerifyPure, AlltoallvMatrixRejectsAsymmetricCounts) {
  // Injected violation: rank 1 posts 3 counts in a 4-rank world, so "how
  // much does rank 3 receive from rank 1" has no answer.
  std::vector<std::vector<std::uint64_t>> rows = {
      {0, 1, 2, 3}, {0, 1, 2}, {3, 2, 1, 0}, {1, 1, 1, 1}};
  std::string msg = verify::check_alltoallv_matrix(rows);
  EXPECT_NE(msg.find("asymmetric alltoallv counts"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1 posted 3 counts for a 4-rank world"),
            std::string::npos)
      << msg;

  // Over-posting is just as malformed as under-posting.
  rows[1] = {0, 1, 2, 3, 4};
  msg = verify::check_alltoallv_matrix(rows);
  EXPECT_NE(msg.find("rank 1 posted 5 counts"), std::string::npos) << msg;
}

TEST(VerifyPure, MutationReportNamesSourceRank) {
  const std::string msg = verify::mutation_report(
      2, fp(11, verify::Op::kAlltoallv, 8, -1, "exchange.cpp", 77));
  EXPECT_NE(msg.find("counts of rank 2 changed mid-collective"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("exchange.cpp:77"), std::string::npos) << msg;
}

TEST(VerifyPure, AllreduceInputCheckOnlyRejectsNaN) {
  EXPECT_NO_THROW(verify::check_allreduce_input(1.5, 0, "f.cpp", 1));
  EXPECT_NO_THROW(verify::check_allreduce_input(
      std::numeric_limits<double>::infinity(), 0, "f.cpp", 1));
  EXPECT_NO_THROW(
      verify::check_allreduce_input(std::uint64_t{42}, 0, "f.cpp", 1));
  try {
    verify::check_allreduce_input(std::numeric_limits<double>::quiet_NaN(), 7,
                                  "poison.cpp", 123);
    FAIL() << "NaN input must throw CollectivePoisoned";
  } catch (const verify::CollectivePoisoned& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NaN fed into allreduce by rank 7"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("poison.cpp:123"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Live ranks.  The conforming pipeline runs in every build (the verifier
// must be transparent); the violation tests need the rendezvous compiled in.
// ---------------------------------------------------------------------------

TEST(VerifyRuntime, ConformingPipelineRunsUnchanged) {
  constexpr int kRanks = 4;
  CommWorld world(kRanks);
  std::vector<std::uint64_t> reduced(kRanks);
  std::vector<std::uint64_t> gathered_total(kRanks);
  std::vector<std::uint64_t> bcast_out(kRanks);
  std::vector<std::uint64_t> a2a_sum(kRanks);
  world.run([&](Communicator& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const auto n = static_cast<std::uint64_t>(comm.size());
    comm.barrier();

    // Alltoallv with ragged-but-square counts: rank r sends (r+d)%3 items
    // to rank d, each encoding its source.
    std::vector<std::uint64_t> counts(comm.size());
    for (int d = 0; d < comm.size(); ++d)
      counts[static_cast<std::size_t>(d)] =
          (r + static_cast<std::uint64_t>(d)) % 3;
    const std::uint64_t total =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    const std::vector<std::uint64_t> payload(total, r * 1000);
    std::vector<std::uint64_t> rcounts;
    const std::vector<std::uint64_t> got =
        comm.alltoallv<std::uint64_t>(payload, counts, &rcounts);
    std::uint64_t expect_items = 0;
    for (std::uint64_t s = 0; s < n; ++s) expect_items += (s + r) % 3;
    a2a_sum[r] = (got.size() == expect_items) ? std::accumulate(
        got.begin(), got.end(), std::uint64_t{0}) : ~std::uint64_t{0};

    reduced[r] = comm.allreduce_sum(r);
    const std::vector<std::uint64_t> all = comm.allgather(r * r);
    gathered_total[r] =
        std::accumulate(all.begin(), all.end(), std::uint64_t{0});

    const std::vector<std::uint64_t> mine(r, r);
    const std::vector<std::uint64_t> cat =
        comm.allgatherv<std::uint64_t>(mine, nullptr);
    EXPECT_EQ(cat.size(), n * (n - 1) / 2);

    bcast_out[r] =
        comm.broadcast(r == 2 ? std::uint64_t{777} : std::uint64_t{0}, 2);
    const std::vector<std::uint64_t> seed = {r, r + 1};
    const std::vector<std::uint64_t> vec =
        comm.broadcast_vec<std::uint64_t>(seed, 1);
    EXPECT_EQ(vec, (std::vector<std::uint64_t>{1, 2}));
    (void)comm.gatherv<std::uint64_t>(mine, 0, nullptr);
    comm.barrier();
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(reduced[r], 6u) << "rank " << r;
    EXPECT_EQ(gathered_total[r], 0u + 1 + 4 + 9) << "rank " << r;
    EXPECT_EQ(bcast_out[r], 777u) << "rank " << r;
    std::uint64_t expect_sum = 0;
    for (std::uint64_t s = 0; s < kRanks; ++s)
      expect_sum += ((s + static_cast<std::uint64_t>(r)) % 3) * s * 1000;
    EXPECT_EQ(a2a_sum[r], expect_sum) << "rank " << r;
  }
}

TEST(VerifyRuntime, MismatchedCollectivesAbortWithReport) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(2);
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        (void)comm.allreduce_sum(std::uint64_t{1});
      } else {
        (void)comm.allgather(std::uint64_t{1});
      }
    });
    FAIL() << "mismatched collectives must abort the world";
  } catch (const verify::CollectiveMismatch& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("diverging rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allgather"), std::string::npos) << msg;
    // Both call sites must point back into this file.
    const std::size_t first = msg.find("test_verify.cpp");
    ASSERT_NE(first, std::string::npos) << msg;
    EXPECT_NE(msg.find("test_verify.cpp", first + 1), std::string::npos)
        << msg;
  }
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: mismatch detection compiled out";
#endif
}

TEST(VerifyRuntime, MismatchAtFourRanksNamesTheDivergingRank) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(4);
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 2) {
        comm.barrier();  // rank 2 forgot the broadcast
      } else {
        (void)comm.broadcast(std::uint64_t{5}, 0);
      }
    });
    FAIL() << "mismatched collectives must abort the world";
  } catch (const verify::CollectiveMismatch& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diverging rank 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("broadcast"), std::string::npos) << msg;
  }
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: mismatch detection compiled out";
#endif
}

TEST(VerifyRuntime, ElementSizeMismatchIsACollectiveMismatch) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(2);
  try {
    world.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        (void)comm.allreduce_sum(std::uint32_t{1});
      } else {
        (void)comm.allreduce_sum(std::uint64_t{1});
      }
    });
    FAIL() << "element-size mismatch must abort the world";
  } catch (const verify::CollectiveMismatch& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("elem=4B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("elem=8B"), std::string::npos) << msg;
  }
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: mismatch detection compiled out";
#endif
}

TEST(VerifyRuntime, RootMismatchIsACollectiveMismatch) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(4);
  try {
    world.run([](Communicator& comm) {
      const int root = comm.rank() == 3 ? 1 : 0;
      (void)comm.broadcast(std::uint64_t{9}, root);
    });
    FAIL() << "root mismatch must abort the world";
  } catch (const verify::CollectiveMismatch& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diverging rank 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("root=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("root=1"), std::string::npos) << msg;
  }
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: mismatch detection compiled out";
#endif
}

TEST(VerifyRuntime, NaNAllreduceInputNamesThePoisoningRank) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(2);
  try {
    world.run([](Communicator& comm) {
      const double mine = comm.rank() == 1
                              ? std::numeric_limits<double>::quiet_NaN()
                              : 1.0;
      (void)comm.allreduce_sum(mine);
    });
    FAIL() << "NaN allreduce input must abort the world";
  } catch (const verify::CollectivePoisoned& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("NaN fed into allreduce by rank 1"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("test_verify.cpp"), std::string::npos) << msg;
  }
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: NaN check compiled out";
#endif
}

TEST(VerifyRuntime, WorldIsReusableAfterAMismatchAbort) {
#if HPCGRAPH_VERIFY_ENABLED
  CommWorld world(2);
  EXPECT_THROW(world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allgather(std::uint64_t{1});
    }
  }),
               verify::CollectiveMismatch);
  // run() re-arms the barrier and boards; a conforming program must work.
  std::vector<std::uint64_t> out(2);
  world.run([&out](Communicator& comm) {
    out[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce_sum(std::uint64_t{21});
  });
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(out[1], 42u);
#else
  GTEST_SKIP() << "PARCOMM_VERIFY off: mismatch detection compiled out";
#endif
}

}  // namespace
