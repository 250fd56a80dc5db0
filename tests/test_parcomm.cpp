// Tests for the simulated message-passing runtime: every collective across
// several world sizes, abort propagation, statistics, and the wait/copy
// spans the collectives trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>

#include "obs/tracer.hpp"
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

// Items rank `src` sends rank `dst` in round `round`: 0 to 4, about one
// segment in five empty, and none at all in round 2.  A pure function, so
// every rank knows what it must receive.
std::uint64_t ragged_count(int round, int src, int dst) {
  if (round == 2) return 0;
  std::uint64_t x = static_cast<std::uint64_t>(round * 1000003 + src * 1009 +
                                               dst) *
                        0x9e3779b97f4a7c15ULL +
                    1;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return x % 5;
}

// The receive form fills the caller's buffer exactly as the returning form
// fills its vector, with the same counts and the same CommStats, over
// ragged rounds (empty segments, an all-empty round), inline and with the
// per-source copy fanned out on a pool.
TEST_P(WorldParam, AlltoallvReceiveFormMatchesReturningForm) {
  const int p = GetParam();
  CommWorld world(p);
  for (const unsigned nthreads : {1u, 4u}) {
    world.run([&](Communicator& comm) {
      ThreadPool pool(nthreads);
      ThreadPool* fan_in = nthreads > 1 ? &pool : nullptr;
      const int me = comm.rank();
      std::vector<std::uint64_t> recv;  // one buffer, reused every round
      for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE("round " + std::to_string(round) + ", " +
                     std::to_string(nthreads) + " threads");
        std::vector<std::uint64_t> counts(p), send, want;
        for (int dst = 0; dst < p; ++dst) {
          counts[dst] = ragged_count(round, me, dst);
          for (std::uint64_t i = 0; i < counts[dst]; ++i)
            send.push_back((static_cast<std::uint64_t>(me) << 40) |
                           (static_cast<std::uint64_t>(dst) << 20) | i);
        }
        for (int src = 0; src < p; ++src)
          for (std::uint64_t i = 0; i < ragged_count(round, src, me); ++i)
            want.push_back((static_cast<std::uint64_t>(src) << 40) |
                           (static_cast<std::uint64_t>(me) << 20) | i);

        std::vector<std::uint64_t> rc_returned, rc_received;
        const CommStats s0 = comm.stats();
        const std::vector<std::uint64_t> returned =
            comm.alltoallv<std::uint64_t>(send, counts, &rc_returned, fan_in);
        const CommStats s1 = comm.stats();
        recv.assign(want.size(), ~std::uint64_t{0});
        comm.alltoallv<std::uint64_t>(send, counts, recv, &rc_received,
                                      fan_in);
        const CommStats s2 = comm.stats();

        EXPECT_EQ(returned, want);
        EXPECT_EQ(recv, want);
        EXPECT_EQ(rc_received, rc_returned);
        const CommStats d1 = s1 - s0, d2 = s2 - s1;
        EXPECT_EQ(d2.collective_calls, d1.collective_calls);
        EXPECT_EQ(d2.bytes_sent, d1.bytes_sent);
        EXPECT_EQ(d2.bytes_remote, d1.bytes_remote);
        EXPECT_EQ(d2.bytes_self, d1.bytes_self);
        EXPECT_EQ(d2.bytes_received, d1.bytes_received);
      }
    });
  }
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

// A receive buffer of the wrong size on one rank is a named error out of
// run() that names both sizes.  The rank skips the copy (under asan a short
// buffer would otherwise overflow) and throws only after the collective's
// second barrier, so its peers finish copying from its send buffer; they
// are then released from the barrier they wait in next.
TEST(CommWorld, WronglySizedReceiveBufferIsANamedError) {
  constexpr int kRanks = 3;
  CommWorld world(kRanks);
  for (const std::size_t wrong : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(wrong);
    try {
      world.run([&](Communicator& comm) {
        // Every rank sends one item to each rank: 3 arrive everywhere.
        const std::vector<std::uint64_t> counts(kRanks, 1);
        const std::vector<std::uint32_t> send(kRanks, 7u);
        std::vector<std::uint32_t> recv(comm.rank() == 1 ? wrong : kRanks);
        comm.alltoallv<std::uint32_t>(send, counts, recv);
        EXPECT_NE(comm.rank(), 1) << "the wrongly sized rank returned";
        EXPECT_EQ(recv, std::vector<std::uint32_t>(kRanks, 7u));
        comm.barrier();
      });
      ADD_FAILURE() << "no error";
    } catch (const CheckError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 1's receive buffer holds " +
                         std::to_string(wrong) + " items, but 3 arrive"),
                std::string::npos)
          << msg;
    }
  }
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

// ---- Figure 3's split as spans: barrier waits (idle) and payload copies
// (communication). ----

/// Longest span named `name` on `rank`'s lanes (0 if there is none).
std::int64_t longest_span(const obs::Tracer& tracer, int rank,
                          const char* name) {
  std::int64_t longest = 0;
  for (const obs::Event& e : tracer.rank_events(rank))
    if (e.kind == obs::EventKind::kSpan && std::string_view(e.name) == name)
      longest = std::max(longest, e.dur_ns);
  return longest;
}

TEST(ParcommSpans, WaitingRankRecordsAWaitSpan) {
  obs::Tracer tracer;
  tracer.install();
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    obs::RankGuard guard(comm.rank());
    // Rank 1 works, rank 0 idles at the barrier.
    if (comm.rank() == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    comm.barrier();
  });
  obs::Tracer::uninstall();
  EXPECT_GT(longest_span(tracer, 0, obs::span_name::kWait), 0);
}

TEST(ParcommSpans, AlltoallvRecordsACopySpan) {
  obs::Tracer tracer;
  tracer.install();
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    obs::RankGuard guard(comm.rank());
    std::vector<std::uint64_t> counts{1u << 18, 1u << 18};
    std::vector<std::uint64_t> send(1u << 19, comm.rank());
    (void)comm.alltoallv<std::uint64_t>(send, counts);  // 4 MiB copied
  });
  obs::Tracer::uninstall();
  for (int rank = 0; rank < 2; ++rank)
    EXPECT_GT(longest_span(tracer, rank, obs::span_name::kCopy), 0) << rank;
}

}  // namespace
}  // namespace hpcgraph::parcomm
