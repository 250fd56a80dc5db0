// Tests for the worker pool (OpenMP substitute) and the Algorithm-3
// two-level queue machinery, including multi-thread races.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "util/parallel_for.hpp"
#include "util/thread_queue.hpp"

namespace hpcgraph {
namespace {

// ---------- ThreadPool ----------

class ThreadPoolParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolParam, ForEachCoversEveryIndexExactlyOnce) {
  ThreadPool tp(GetParam());
  constexpr std::uint64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  tp.for_each(0, kN, [&](unsigned, std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ThreadPoolParam, ForRangeChunksArePartition) {
  ThreadPool tp(GetParam());
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  tp.for_range(5, 105, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard lk(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::uint64_t covered = 0;
  std::uint64_t expect_lo = 5;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_GE(lo, expect_lo);
    EXPECT_LE(lo, hi);
    covered += hi - lo;
    expect_lo = hi;
  }
  EXPECT_EQ(covered, 100u);
}

TEST_P(ThreadPoolParam, RunInvokesEveryThreadOnce) {
  ThreadPool tp(GetParam());
  std::vector<std::atomic<int>> calls(tp.num_threads());
  tp.run([&](unsigned tid) {
    calls[tid].fetch_add(1, std::memory_order_relaxed);
  });
  for (unsigned t = 0; t < tp.num_threads(); ++t)
    EXPECT_EQ(calls[t].load(), 1);
}

TEST_P(ThreadPoolParam, ReusableAcrossManyRegions) {
  ThreadPool tp(GetParam());
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round)
    tp.for_each(0, 100, [&](unsigned, std::uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  EXPECT_EQ(sum.load(), 50u * 4950u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

// Satellite edge cases: empty ranges never call fn, and n < nthreads never
// hands a thread a zero-width [lo, hi) span.

TEST_P(ThreadPoolParam, EmptyRangeNeverCallsBody) {
  ThreadPool tp(GetParam());
  std::atomic<int> calls{0};
  tp.for_range(10, 10, [&](unsigned, std::uint64_t, std::uint64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  tp.for_each(7, 7, [&](unsigned, std::uint64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  tp.for_ranges(3, 3, [&](unsigned, std::uint64_t, std::uint64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(tp.sweep_stats().loops, 0u);
}

TEST_P(ThreadPoolParam, SingleElementRangeRunsExactlyOnce) {
  ThreadPool tp(GetParam());
  std::atomic<int> calls{0};
  tp.for_range(42, 43, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
    calls.fetch_add(1);
    EXPECT_EQ(lo, 42u);
    EXPECT_EQ(hi, 43u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST_P(ThreadPoolParam, RangeSmallerThanPoolSkipsEmptySpans) {
  ThreadPool tp(GetParam());
  // n = 3 items across up to 8 threads: every invocation must carry work.
  std::atomic<int> calls{0};
  std::atomic<std::uint64_t> covered{0};
  tp.for_range(100, 103, [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
    EXPECT_LT(lo, hi);
    calls.fetch_add(1);
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(covered.load(), 3u);
  EXPECT_LE(calls.load(), 3);
}

// The HPCGRAPH_POOL_THREADS parse: whole numbers clamp to [1, 64]; any
// other text is a named error, so a typo cannot silently change the width.
TEST(PoolThreadsEnv, WholeNumbersClampAndOtherTextIsANamedError) {
  EXPECT_EQ(parse_pool_threads("4"), 4u);
  EXPECT_EQ(parse_pool_threads("0"), 1u);
  EXPECT_EQ(parse_pool_threads("100"), 64u);
  for (const char* bad : {"four", "4x", ""}) {
    try {
      (void)parse_pool_threads(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("HPCGRAPH_POOL_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
  }
}

// ---------- MultiQueue ----------

struct Item {
  std::uint64_t value;
  std::uint32_t origin;
};

class MultiQueueParam
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(MultiQueueParam, AllItemsLandInCorrectSegments) {
  const auto [nthreads, qsize] = GetParam();
  constexpr std::uint32_t kTasks = 5;
  constexpr std::uint64_t kPerThread = 4000;

  ThreadPool tp(nthreads);
  // Destination of item i from thread t: (i * 7 + t) % kTasks.
  std::vector<std::uint64_t> counts(kTasks, 0);
  for (unsigned t = 0; t < nthreads; ++t)
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      ++counts[(i * 7 + t) % kTasks];

  MultiQueue<Item> q(counts);
  tp.run([&](unsigned tid) {
    MultiQueue<Item>::Sink sink(q, qsize);
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      sink.push((i * 7 + tid) % kTasks, Item{i, tid});
  });

  EXPECT_TRUE(q.complete());
  EXPECT_EQ(q.total(), nthreads * kPerThread);

  // Every pushed item appears exactly once, in its destination's segment.
  std::vector<std::vector<int>> seen(nthreads,
                                     std::vector<int>(kPerThread, 0));
  for (std::uint32_t task = 0; task < kTasks; ++task) {
    for (const Item& it : q.task_segment(task)) {
      ASSERT_LT(it.origin, nthreads);
      ASSERT_LT(it.value, kPerThread);
      ASSERT_EQ((it.value * 7 + it.origin) % kTasks, task);
      ++seen[it.origin][it.value];
    }
  }
  for (unsigned t = 0; t < nthreads; ++t)
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      ASSERT_EQ(seen[t][i], 1);
}

INSTANTIATE_TEST_SUITE_P(
    Queues, MultiQueueParam,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{2048})));

TEST(MultiQueue, CountsAndOffsetsConsistent) {
  const std::vector<std::uint64_t> counts{3, 0, 2};
  MultiQueue<int> q(counts);
  EXPECT_EQ(q.ntasks(), 3u);
  EXPECT_EQ(q.total(), 5u);
  EXPECT_EQ(q.counts(), counts);
  const auto offs = q.offsets();
  EXPECT_EQ(offs[0], 0u);
  EXPECT_EQ(offs[1], 3u);
  EXPECT_EQ(offs[2], 3u);
  EXPECT_EQ(offs[3], 5u);
}

TEST(MultiQueue, IncompleteUntilAllPushed) {
  const std::vector<std::uint64_t> counts{2};
  MultiQueue<int> q(counts);
  EXPECT_FALSE(q.complete());
  q.push_shared(0, 1);
  EXPECT_FALSE(q.complete());
  q.push_shared(0, 2);
  EXPECT_TRUE(q.complete());
}

TEST(MultiQueue, SharedPushAblationPathWorks) {
  constexpr std::uint32_t kTasks = 3;
  const std::vector<std::uint64_t> counts{10, 10, 10};
  MultiQueue<std::uint64_t> q(counts);
  ThreadPool tp(4);
  std::atomic<std::uint64_t> next{0};
  tp.run([&](unsigned) {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (i >= 30) break;
      q.push_shared(static_cast<std::uint32_t>(i % kTasks), i);
    }
  });
  EXPECT_TRUE(q.complete());
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    auto seg = q.task_segment(t);
    ASSERT_EQ(seg.size(), 10u);
    for (const auto v : seg) EXPECT_EQ(v % kTasks, t);
  }
}

TEST(MultiQueue, SinkFlushOnDestruction) {
  const std::vector<std::uint64_t> counts{1};
  MultiQueue<int> q(counts);
  {
    MultiQueue<int>::Sink sink(q, 1000);  // large qsize: no auto-flush
    sink.push(0, 42);
  }  // destructor flushes
  EXPECT_TRUE(q.complete());
  EXPECT_EQ(q.task_segment(0)[0], 42);
}

}  // namespace
}  // namespace hpcgraph
