#include "calibrate.hpp"

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hpcgraph::e2e {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 23;  // 32 MiB
constexpr std::uint64_t kGathers = std::uint64_t{1} << 22;  // per thread, per part
constexpr int kPhases = 16;

std::uint64_t gather(const std::vector<std::uint32_t>& table,
                     std::uint64_t stream, std::uint64_t n) {
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    sum += table[splitmix64(stream ^ (i << 8)) & (kTableWords - 1)];
  return sum;
}

}  // namespace

double calibrate(unsigned threads) {
  std::vector<std::uint32_t> table(kTableWords);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint32_t>(splitmix64(i));
  std::vector<std::uint64_t> sums(threads);
  std::vector<double> own(threads);
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));

  // Part 1: gathers in lockstep phases, as ranks run supersteps; the wall
  // time includes thread start-up and every wait on the slowest thread.
  Timer t;
  {
    std::vector<std::jthread> pool;
    for (unsigned i = 0; i < threads; ++i)
      pool.emplace_back([&, i] {
        for (int p = 0; p < kPhases; ++p) {
          sums[i] += gather(table, i + threads * p, kGathers / kPhases);
          sync.arrive_and_wait();
        }
      });
  }
  const double lockstep = t.elapsed();

  // Part 2: free-running gathers, each thread timing itself: the memory
  // latency alone, averaged over threads.
  {
    std::vector<std::jthread> pool;
    for (unsigned i = 0; i < threads; ++i)
      pool.emplace_back([&, i] {
        const Timer own_t;
        sums[i] += gather(table, i + 1000, kGathers);
        own[i] = own_t.elapsed();
      });
  }
  double free_running = 0;
  for (const double s : own) free_running += s / threads;

  // Keep the loads observable so the loops cannot be dropped.
  volatile std::uint64_t sink = 0;
  for (const std::uint64_t x : sums) sink = sink + x;
  return lockstep + free_running;
}

double calibrate_arith() {
  const Timer t;
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 24); ++i) x = splitmix64(x + i);
  volatile std::uint64_t sink = x;
  (void)sink;
  return t.elapsed();
}

}  // namespace hpcgraph::e2e
