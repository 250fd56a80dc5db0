// Tests for the simulated message-passing runtime: every collective across
// several world sizes, abort propagation, statistics, and phase timing.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "parcomm/comm.hpp"

namespace hpcgraph::parcomm {
namespace {

class WorldParam : public ::testing::TestWithParam<int> {};

TEST_P(WorldParam, RanksSeeCorrectIdentity) {
  const int p = GetParam();
  CommWorld world(p);
  std::vector<int> seen(p, -1);
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.size(), p);
    seen[comm.rank()] = comm.rank();
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(seen[r], r);
}

TEST_P(WorldParam, BarrierSynchronizes) {
  const int p = GetParam();
  CommWorld world(p);
  std::atomic<int> phase_counter{0};
  world.run([&](Communicator& comm) {
    phase_counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all p arrivals.
    EXPECT_EQ(phase_counter.load(), p);
  });
}

TEST_P(WorldParam, AllreduceSumMaxMin) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce_sum(r), p * (p - 1) / 2);
    EXPECT_EQ(comm.allreduce_max(r), p - 1);
    EXPECT_EQ(comm.allreduce_min(r), 0);
    EXPECT_TRUE(comm.allreduce_lor(r == p - 1));
    EXPECT_FALSE(comm.allreduce_lor(false));
  });
}

TEST_P(WorldParam, AllreduceCustomCombinerRankOrder) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    // Non-commutative combiner exposes reduction order: must be rank order.
    const std::uint64_t out = comm.allreduce<std::uint64_t>(
        comm.rank() + 1,
        [](std::uint64_t a, std::uint64_t b) { return a * 10 + b; });
    std::uint64_t expect = 1;
    for (int r = 1; r < p; ++r) expect = expect * 10 + (r + 1);
    EXPECT_EQ(out, expect);
  });
}

TEST_P(WorldParam, AllgatherCollectsInRankOrder) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    const auto all = comm.allgather(comm.rank() * 3);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r * 3);
  });
}

TEST_P(WorldParam, AllgathervVariableLengths) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    // Rank r contributes r items of value r.
    std::vector<int> mine(comm.rank(), comm.rank());
    std::vector<std::uint64_t> counts;
    const auto all = comm.allgatherv<int>(mine, &counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
    std::size_t at = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(counts[r], static_cast<std::uint64_t>(r));
      for (int i = 0; i < r; ++i) EXPECT_EQ(all[at++], r);
    }
    EXPECT_EQ(at, all.size());
  });
}

TEST_P(WorldParam, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    const int me = comm.rank();
    // Send (me*100 + dst) repeated (dst+1) times to each dst.
    std::vector<int> send;
    std::vector<std::uint64_t> counts(p);
    for (int dst = 0; dst < p; ++dst) {
      counts[dst] = dst + 1;
      for (int i = 0; i <= dst; ++i) send.push_back(me * 100 + dst);
    }
    std::vector<std::uint64_t> rcounts;
    const auto recv = comm.alltoallv<int>(send, counts, &rcounts);
    // From each source we receive (me+1) copies of src*100+me, rank order.
    ASSERT_EQ(rcounts.size(), static_cast<std::size_t>(p));
    std::size_t at = 0;
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(rcounts[src], static_cast<std::uint64_t>(me + 1));
      for (int i = 0; i <= me; ++i) EXPECT_EQ(recv[at++], src * 100 + me);
    }
    EXPECT_EQ(at, recv.size());
  });
}

TEST_P(WorldParam, AlltoallvEmptySegmentsAreFine) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    // Only rank 0 sends, and only to the last rank.
    std::vector<std::uint64_t> counts(p, 0);
    std::vector<double> send;
    if (comm.rank() == 0) {
      counts[p - 1] = 2;
      send = {1.5, 2.5};
    }
    const auto recv = comm.alltoallv<double>(send, counts);
    if (comm.rank() == p - 1) {
      ASSERT_EQ(recv.size(), 2u);
      EXPECT_DOUBLE_EQ(recv[0], 1.5);
      EXPECT_DOUBLE_EQ(recv[1], 2.5);
    } else {
      EXPECT_TRUE(recv.empty());
    }
  });
}

TEST_P(WorldParam, AlltoallFixedSize) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    std::vector<int> send(p);
    for (int d = 0; d < p; ++d) send[d] = comm.rank() * p + d;
    const auto recv = comm.alltoall<int>(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) EXPECT_EQ(recv[s], s * p + comm.rank());
  });
}

TEST_P(WorldParam, BroadcastScalarAndVector) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    const int root = p - 1;
    const double v = (comm.rank() == root) ? 2.75 : -1.0;
    EXPECT_DOUBLE_EQ(comm.broadcast(v, root), 2.75);

    std::vector<std::uint32_t> payload;
    if (comm.rank() == root) payload = {10, 20, 30};
    const auto got = comm.broadcast_vec<std::uint32_t>(payload, root);
    EXPECT_EQ(got, (std::vector<std::uint32_t>{10, 20, 30}));
  });
}

TEST_P(WorldParam, GathervCollectsAtRootOnly) {
  const int p = GetParam();
  CommWorld world(p);
  world.run([&](Communicator& comm) {
    std::vector<int> mine{comm.rank(), comm.rank()};
    std::vector<std::uint64_t> counts;
    const auto got = comm.gatherv<int>(mine, 0, &counts);
    if (comm.rank() == 0) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(got[2 * r], r);
        EXPECT_EQ(got[2 * r + 1], r);
        EXPECT_EQ(counts[r], 2u);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldParam, ::testing::Values(1, 2, 3, 4, 8));

TEST(CommWorld, RejectsZeroRanks) {
  EXPECT_THROW(CommWorld(0), CheckError);
}

TEST(CommWorld, RankExceptionPropagatesAndReleasesPeers) {
  CommWorld world(4);
  EXPECT_THROW(
      world.run([&](Communicator& comm) {
        if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
        // Peers park in a barrier; the abort must release them.
        comm.barrier();
        comm.barrier();
      }),
      std::runtime_error);
}

TEST(CommWorld, ReusableAfterAbort) {
  CommWorld world(2);
  EXPECT_THROW(world.run([](Communicator&) {
    throw std::logic_error("boom");
  }),
               std::logic_error);
  // A fresh run must work.
  world.run([](Communicator& comm) { comm.barrier(); });
}

TEST(CommWorld, SequentialRunsOnSameWorld) {
  CommWorld world(3);
  for (int round = 0; round < 5; ++round) {
    world.run([&](Communicator& comm) {
      EXPECT_EQ(comm.allreduce_sum(1), 3);
    });
  }
}

TEST(CommStats, CountsBytesAndCalls) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    std::vector<std::uint64_t> counts{1, 1};
    const std::vector<std::uint32_t> send{1u, 2u};
    (void)comm.alltoallv<std::uint32_t>(send, counts);
    const CommStats& s = comm.stats();
    EXPECT_EQ(s.collective_calls, 1u);
    EXPECT_EQ(s.bytes_sent, 8u);            // 2 items * 4 bytes
    EXPECT_EQ(s.bytes_remote, 4u);          // 1 item to the peer
    EXPECT_EQ(s.bytes_received, 8u);
  });
  // Stats captured per rank at world level.
  ASSERT_EQ(world.last_stats().size(), 2u);
  EXPECT_EQ(world.last_stats()[0].collective_calls, 1u);
}

TEST(CommStats, SelfBytesAreNeverRemote) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    // One item kept, one shipped: the self segment must land in bytes_self.
    std::vector<std::uint64_t> counts{1, 1};
    const std::vector<std::uint32_t> send{1u, 2u};
    (void)comm.alltoallv<std::uint32_t>(send, counts);
    const CommStats& s = comm.stats();
    EXPECT_EQ(s.bytes_self, 4u);
    EXPECT_EQ(s.bytes_remote, 4u);
    EXPECT_EQ(s.bytes_received, s.bytes_remote + s.bytes_self);
  });
}

// The conservation law every collective must satisfy under the unified
// accounting rules: globally, everything received was delivered either
// remotely or to self.  Exercises every collective in one region, with
// asymmetric payloads so miscounting any rank's share breaks the sums.
TEST(CommStats, ReceivedEqualsRemotePlusSelfAcrossCollectives) {
  for (const int p : {1, 2, 3, 4}) {
    CommWorld world(p);
    world.run([&](Communicator& comm) {
      const int me = comm.rank();
      // alltoallv with ragged counts: rank r sends r+1 items to each rank.
      std::vector<std::uint64_t> counts(p,
                                        static_cast<std::uint64_t>(me) + 1);
      std::vector<std::uint32_t> payload(
          static_cast<std::size_t>(p) * (me + 1),
          static_cast<std::uint32_t>(me));
      (void)comm.alltoallv<std::uint32_t>(payload, counts);
      (void)comm.allreduce_sum(static_cast<std::uint64_t>(me));
      (void)comm.allgather(me);
      // Ragged allgatherv: rank r contributes r+1 doubles.
      (void)comm.allgatherv<double>(std::vector<double>(me + 1, 1.5));
      int bval = me == 0 ? 42 : 0;
      comm.broadcast(bval, 0);
      std::vector<std::uint16_t> bvec;
      if (me == 0) bvec.assign(5, 7);
      comm.broadcast_vec<std::uint16_t>(bvec, 0);
      (void)comm.gatherv<std::uint8_t>(
          std::vector<std::uint8_t>(2 * me + 1, 9), 0);
    });
    std::uint64_t received = 0, remote = 0, self = 0;
    for (const CommStats& s : world.last_stats()) {
      received += s.bytes_received;
      remote += s.bytes_remote;
      self += s.bytes_self;
    }
    EXPECT_EQ(received, remote + self) << "p=" << p;
    if (p == 1) {
      EXPECT_EQ(remote, 0u) << "single rank sends nothing remote";
    }
  }
}

TEST(CommStats, DeltaSubtractsEveryCounter) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    std::vector<std::uint64_t> counts{1, 1};
    const std::vector<std::uint32_t> send{1u, 2u};
    (void)comm.alltoallv<std::uint32_t>(send, counts);
    const CommStats before = comm.stats();
    (void)comm.alltoallv<std::uint32_t>(send, counts);
    (void)comm.allreduce_sum(1);
    comm.barrier();
    const CommStats d = comm.stats().delta(before);
    // The delta sees only the second region: one alltoallv (8 B sent,
    // 4 B remote / 4 B self each way), one allreduce, one barrier.
    EXPECT_EQ(d.collective_calls, 2u);
    EXPECT_EQ(d.barrier_calls, 1u);
    EXPECT_EQ(d.bytes_remote, 4u + sizeof(int));  // alltoallv + allreduce
    EXPECT_EQ(d.bytes_self, 4u + sizeof(int));
    // operator- and delta() agree.
    const CommStats d2 = comm.stats() - before;
    EXPECT_EQ(d2.bytes_sent, d.bytes_sent);
    EXPECT_EQ(d2.bytes_received, d.bytes_received);
  });
}

// Conservation must hold on deltas too: subtraction is field-wise, so the
// law received == remote + self carries over to any [t0, t1) window by
// linearity.  Regression guard for per-superstep telemetry, which reports
// exactly such windows.
TEST(CommStats, ConservationHoldsOnDeltas) {
  for (const int p : {1, 2, 3, 4}) {
    CommWorld world(p);
    std::vector<CommStats> deltas(p);
    world.run([&](Communicator& comm) {
      const int me = comm.rank();
      // Pollute the pre-window counters with an asymmetric collective.
      (void)comm.allgatherv<double>(std::vector<double>(me + 1, 0.5));
      const CommStats before = comm.stats();
      std::vector<std::uint64_t> counts(p,
                                        static_cast<std::uint64_t>(me) + 1);
      std::vector<std::uint32_t> payload(
          static_cast<std::size_t>(p) * (me + 1),
          static_cast<std::uint32_t>(me));
      (void)comm.alltoallv<std::uint32_t>(payload, counts);
      (void)comm.allreduce_sum(static_cast<std::uint64_t>(me));
      (void)comm.allgather(me);
      deltas[me] = comm.stats().delta(before);
    });
    std::uint64_t received = 0, remote = 0, self = 0;
    for (const CommStats& s : deltas) {
      received += s.bytes_received;
      remote += s.bytes_remote;
      self += s.bytes_self;
    }
    EXPECT_EQ(received, remote + self) << "p=" << p;
    EXPECT_GT(received, 0u) << "p=" << p;
  }
}

TEST(PhaseTimer, BreakdownComponentsSumToTotal) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    comm.phase_timer().reset();
    // Unbalanced compute: rank 1 works, rank 0 idles at the barrier.
    if (comm.rank() == 1) {
      volatile double sink = 0;
      for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
    }
    comm.barrier();
    const PhaseBreakdown b = comm.phase_timer().snapshot();
    EXPECT_GE(b.total, b.comm + b.idle - 1e-9);
    EXPECT_GE(b.comp, 0.0);
    EXPECT_NEAR(b.comp_ratio() + b.comm_ratio() + b.idle_ratio(), 1.0, 1e-6);
    if (comm.rank() == 0) {
      // The idle rank spent most of its region waiting.
      EXPECT_GT(b.idle, 0.0);
    }
  });
}

TEST(PhaseTimer, CommTimeAttributedDuringExchange) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    comm.phase_timer().reset();
    std::vector<std::uint64_t> counts{1u << 18, 1u << 18};
    std::vector<std::uint64_t> send(1u << 19, comm.rank());
    (void)comm.alltoallv<std::uint64_t>(send, counts);
    const PhaseBreakdown b = comm.phase_timer().snapshot();
    EXPECT_GT(b.comm, 0.0);  // 4 MiB copied
  });
}

}  // namespace
}  // namespace hpcgraph::parcomm
