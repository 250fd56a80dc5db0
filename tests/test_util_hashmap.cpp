// Tests for the linear-probing hash map (Table II `map`) and the label
// counter (`lmap` of Algorithm 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/label_counter.hpp"
#include "util/lp_hash_map.hpp"
#include "util/rng.hpp"

namespace hpcgraph {
namespace {

// ---------- LpHashMap ----------

TEST(LpHashMap, EmptyFindsNothing) {
  LpHashMap m;
  EXPECT_EQ(m.find(0), LpHashMap::kNotFound);
  EXPECT_EQ(m.find(12345), LpHashMap::kNotFound);
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.size(), 0u);
}

TEST(LpHashMap, InsertThenFind) {
  LpHashMap m;
  m.insert(42, 7);
  EXPECT_EQ(m.find(42), 7u);
  EXPECT_EQ(m.at(42), 7u);
  EXPECT_TRUE(m.contains(42));
  EXPECT_EQ(m.size(), 1u);
}

TEST(LpHashMap, OverwriteExistingKey) {
  LpHashMap m;
  m.insert(5, 1);
  m.insert(5, 2);
  EXPECT_EQ(m.find(5), 2u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(LpHashMap, AtThrowsOnMissingKey) {
  LpHashMap m;
  m.insert(1, 1);
  EXPECT_THROW(m.at(2), CheckError);
}

TEST(LpHashMap, GrowsBeyondInitialCapacity) {
  LpHashMap m(4);
  const std::size_t initial_cap = m.capacity();
  for (std::uint64_t k = 0; k < 10000; ++k) m.insert(k * 3 + 1, static_cast<std::uint32_t>(k));
  EXPECT_GT(m.capacity(), initial_cap);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_EQ(m.find(k * 3 + 1), static_cast<std::uint32_t>(k)) << k;
  }
  EXPECT_EQ(m.size(), 10000u);
}

TEST(LpHashMap, MatchesStdUnorderedMapOnRandomWorkload) {
  LpHashMap m;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(5000) * 1315423911ULL;
    const auto val = static_cast<std::uint32_t>(rng.below(1 << 30));
    m.insert(key, val);
    oracle[key] = val;
  }
  EXPECT_EQ(m.size(), oracle.size());
  for (const auto& [k, v] : oracle) ASSERT_EQ(m.find(k), v);
  // Absent keys still miss.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = (rng.below(5000) + 6000) * 1315423911ULL;
    if (!oracle.count(key)) {
      ASSERT_EQ(m.find(key), LpHashMap::kNotFound);
    }
  }
}

TEST(LpHashMap, ReserveResetsContents) {
  LpHashMap m;
  m.insert(1, 1);
  m.reserve(100);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), LpHashMap::kNotFound);
}

TEST(LpHashMap, HandlesAdversarialCollidingKeys) {
  // Keys chosen to collide in low bits; linear probing must still resolve,
  // whether the keys arrive through insert or find_or_insert.
  LpHashMap m(8), f(8);
  for (std::uint64_t k = 0; k < 512; ++k) {
    m.insert(k << 32, static_cast<std::uint32_t>(k));
    ASSERT_EQ(f.find_or_insert(k << 32, static_cast<std::uint32_t>(k)),
              static_cast<std::uint32_t>(k));
  }
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(m.find(k << 32), static_cast<std::uint32_t>(k));
    ASSERT_EQ(f.find_or_insert(k << 32, 9999), static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(f.size(), 512u);
}

TEST(LpHashMap, FindOrInsertReturnsExistingValueUnchanged) {
  LpHashMap m;
  EXPECT_EQ(m.find_or_insert(9, 4), 4u);  // absent: inserted
  EXPECT_EQ(m.find_or_insert(9, 5), 4u);  // present: kept, not overwritten
  EXPECT_EQ(m.find(9), 4u);
  EXPECT_EQ(m.size(), 1u);
  m.insert(9, 6);
  EXPECT_EQ(m.find_or_insert(9, 7), 6u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(LpHashMap, FindOrInsertMatchesStdUnorderedMapAcrossGrowth) {
  // Hand out ids on first sight, as the builder does for ghosts, over a
  // stream with repeats that takes the table through several grow() calls.
  LpHashMap m(4);
  const std::size_t initial_cap = m.capacity();
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  Rng rng(123);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.below(20000) * 2654435761ULL + 1;
    const auto next = static_cast<std::uint32_t>(oracle.size());
    const std::uint32_t want = oracle.try_emplace(key, next).first->second;
    ASSERT_EQ(m.find_or_insert(key, next), want) << "step " << i;
    ASSERT_EQ(m.size(), oracle.size());
  }
  EXPECT_GE(m.capacity(), initial_cap << 8);  // grew at least eight times
  for (const auto& [k, v] : oracle) ASSERT_EQ(m.find(k), v);
}

TEST(LpHashMap, GrowthDependsOnKeyCountOnly) {
  // Capacity after n distinct keys is the same whether or not hits and
  // overwrites are interleaved, so a map filled by find_or_insert is as large
  // as one filled by insert.
  for (std::size_t n = 1; n < 200; ++n) {
    LpHashMap a(4), b(4);
    for (std::uint64_t k = 0; k < n; ++k) {
      a.insert(k + 1, 0);
      b.find_or_insert(k + 1, 0);
      b.find_or_insert(1, 0);
      b.insert(1, 7);
    }
    ASSERT_EQ(a.capacity(), b.capacity()) << n;
  }
}

// ---------- LabelCounter ----------

TEST(LabelCounter, CountsOccurrences) {
  LabelCounter c;
  c.add(5);
  c.add(5);
  EXPECT_EQ(c.add(5), 3u);
  EXPECT_EQ(c.add(7), 1u);
  EXPECT_EQ(c.distinct(), 2u);
}

TEST(LabelCounter, ArgmaxPicksMostFrequent) {
  LabelCounter c;
  c.add(1);
  c.add(2);
  c.add(2);
  c.add(3);
  EXPECT_EQ(c.argmax(0, 999), 2u);
}

TEST(LabelCounter, ArgmaxFallbackWhenEmpty) {
  LabelCounter c;
  EXPECT_EQ(c.argmax(0, 42), 42u);
  c.add(1);
  c.clear();
  EXPECT_EQ(c.argmax(0, 43), 43u);
}

TEST(LabelCounter, ClearIsConstantTimeReset) {
  LabelCounter c;
  for (int round = 0; round < 1000; ++round) {
    c.clear();
    c.add(static_cast<std::uint64_t>(round));
    EXPECT_EQ(c.distinct(), 1u);
    EXPECT_EQ(c.argmax(0, 0), static_cast<std::uint64_t>(round));
  }
}

TEST(LabelCounter, TieBreakIsDeterministicPerSeed) {
  LabelCounter c;
  c.add(10);
  c.add(20);  // tie: both count 1
  const std::uint64_t pick1 = c.argmax(123, 0);
  const std::uint64_t pick2 = c.argmax(123, 0);
  EXPECT_EQ(pick1, pick2);
  EXPECT_TRUE(pick1 == 10 || pick1 == 20);
}

TEST(LabelCounter, TieBreakVariesWithSeed) {
  // With two tied labels, different seeds should pick both sides at least
  // once over many seeds.
  int picked10 = 0, picked20 = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    LabelCounter c;
    c.add(10);
    c.add(20);
    (c.argmax(seed, 0) == 10 ? picked10 : picked20)++;
  }
  EXPECT_GT(picked10, 0);
  EXPECT_GT(picked20, 0);
}

TEST(LabelCounter, WeightedAdds) {
  LabelCounter c;
  c.add(1, 5);
  c.add(2, 3);
  c.add(2, 3);
  EXPECT_EQ(c.argmax(0, 0), 2u);  // 6 > 5
}

TEST(LabelCounter, GrowsPastInitialCapacity) {
  LabelCounter c(4);
  for (std::uint64_t l = 0; l < 5000; ++l) c.add(l, l + 1);
  EXPECT_EQ(c.distinct(), 5000u);
  EXPECT_EQ(c.argmax(0, 0), 4999u);  // highest weight wins
}

TEST(LabelCounter, MatchesStdMapOracle) {
  // One counter serves many vertices in turn, as in the LP kernel: small
  // neighbourhoods interleaved with ever larger hubs, so grow() fires in the
  // middle of a hub and every later small vertex runs on the grown table.
  LabelCounter c;
  Rng rng(7);
  int fallback_ties = 0;  // fallback among several maxima: it wins
  int hash_ties = 0;      // several maxima, fallback not one: the hash decides
  int hubs = 0;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    c.clear();
    std::map<std::uint64_t, std::uint64_t> oracle;
    const bool hub = cycle % 100 == 50;
    const std::uint64_t range = hub ? 100 + 300 * hubs++ : 1 + rng.below(12);
    const std::uint64_t n_adds = hub ? 3 * range : rng.below(40);
    const std::uint64_t base = rng();
    for (std::uint64_t i = 0; i < n_adds; ++i) {
      const std::uint64_t label = base + rng.below(range);
      const std::uint64_t w = rng.below(4) == 0 ? 2 : 1;
      ASSERT_EQ(c.add(label, w), oracle[label] += w);
    }
    ASSERT_EQ(c.distinct(), oracle.size());

    std::uint64_t max_count = 0;
    std::vector<std::uint64_t> maxima;
    for (const auto& [l, n] : oracle) {
      if (n > max_count) maxima.clear();
      if (n >= max_count) maxima.push_back(l);
      max_count = std::max(max_count, n);
    }
    // Fallback: one of the maxima, any present label, or an absent one.
    const std::uint64_t tie_seed = rng();
    std::uint64_t fallback = base + range;
    const std::uint64_t pick = rng.below(3);
    if (!oracle.empty() && pick == 0)
      fallback = maxima[rng.below(maxima.size())];
    if (!oracle.empty() && pick == 1)
      fallback = std::next(oracle.begin(), rng.below(oracle.size()))->first;

    std::uint64_t expected = fallback;
    const auto f = oracle.find(fallback);
    if (f != oracle.end() && f->second == max_count) {
      fallback_ties += maxima.size() > 1;
    } else if (!maxima.empty()) {
      hash_ties += maxima.size() > 1;
      expected = maxima[0];
      for (const std::uint64_t l : maxima)
        if (splitmix64(l ^ tie_seed) > splitmix64(expected ^ tie_seed))
          expected = l;
    }
    ASSERT_EQ(c.argmax(tie_seed, fallback), expected) << "cycle " << cycle;
  }
  EXPECT_EQ(hubs, 20);
  EXPECT_GT(fallback_ties, 50);
  EXPECT_GT(hash_ties, 50);
}

}  // namespace
}  // namespace hpcgraph
