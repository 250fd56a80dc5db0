#pragma once
/// \file label_counter.hpp
/// The `lmap` of the paper's Label Propagation inner loop (Algorithm 1,
/// line 32): for one vertex, count occurrences of each neighbour label and
/// return the most frequent one.
///
/// The map is rebuilt for every vertex, and one counter serves many vertices
/// in turn.  Its capacity only grows, so it ends up sized to the largest hub
/// it has seen.  Invariant: `clear()` and `argmax()` cost O(entries added
/// since the last clear), never O(capacity), so a low-degree vertex after a
/// hub pays for its own neighbourhood only.  We use open addressing plus an
/// epoch counter (bumping the epoch invalidates all slots in O(1)) and a list
/// of the slots filled since the last clear, which `argmax()` walks instead
/// of the table.  Ties are broken by a caller-supplied hash so results are
/// deterministic yet unbiased ("ties are broken randomly" in the paper), and
/// independent of the order in which slots are visited.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace hpcgraph {

/// Counting map keyed by 64-bit labels, with O(1) reset.
class LabelCounter {
 public:
  explicit LabelCounter(std::size_t capacity_hint = 64) {
    std::size_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots_.assign(cap, Slot{});
    live_.reserve(cap / 2);  // the load-factor cap: no regrowth before grow()
    mask_ = cap - 1;
  }

  /// Forget all counts in O(1).
  void clear() {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: do the expensive reset once per 2^32 clears
      for (auto& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    live_.clear();
  }

  /// Increment the count for `label` by `w`; returns the new count.
  std::uint64_t add(std::uint64_t label, std::uint64_t w = 1) {
    if ((live_.size() + 1) * 2 > slots_.size()) grow();
    std::size_t i = splitmix64(label) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.epoch = epoch_;
        s.label = label;
        s.count = w;
        live_.push_back(i);
        return w;
      }
      if (s.label == label) {
        s.count += w;
        return s.count;
      }
      i = (i + 1) & mask_;
    }
  }

  /// The label with the maximum count.  Ties are broken by (1) preferring
  /// `fallback` (the caller's current label) when it is among the maxima —
  /// the standard Label Propagation stabilization rule, without which
  /// synchronous updates can oscillate on tied neighbourhoods forever —
  /// then (2) comparing splitmix64(label ^ tie_seed), i.e. pseudo-randomly
  /// but deterministically for a given seed ("ties are broken randomly" in
  /// the paper).  Returns `fallback` when the counter is empty.
  std::uint64_t argmax(std::uint64_t tie_seed, std::uint64_t fallback) const {
    std::uint64_t best_label = fallback;
    std::uint64_t best_count = 0;
    std::uint64_t best_tie = 0;
    bool fallback_is_max = false;
    for (const std::size_t i : live_) {
      const Slot& s = slots_[i];
      if (s.count > best_count) fallback_is_max = false;
      if (s.label == fallback && s.count >= best_count) fallback_is_max = true;
      const std::uint64_t tie = splitmix64(s.label ^ tie_seed);
      if (s.count > best_count ||
          (s.count == best_count && tie > best_tie)) {
        best_count = s.count;
        best_label = s.label;
        best_tie = tie;
      }
    }
    return fallback_is_max ? fallback : best_label;
  }

  std::size_t distinct() const { return live_.size(); }

 private:
  struct Slot {
    std::uint64_t label = 0;
    std::uint64_t count = 0;
    std::uint32_t epoch = 0;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    epoch_ = 1;
    for (std::size_t& li : live_) {
      // re-insert preserving counts; the list keeps its insertion order
      const Slot& s = old[li];
      std::size_t i = splitmix64(s.label) & mask_;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask_;
      slots_[i] = Slot{s.label, s.count, epoch_};
      li = i;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::size_t> live_;  // slots filled since the last clear
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 1;
};

}  // namespace hpcgraph
