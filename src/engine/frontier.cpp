#include "engine/frontier.hpp"

namespace hpcgraph::engine {

FrontierDecision frontier_decide(const FrontierPolicy& policy,
                                 FrontierDir prev_dir,
                                 std::uint64_t active_global,
                                 std::uint64_t degree_global,
                                 std::uint64_t n_global,
                                 std::uint64_t m_global) {
  FrontierDecision d;

  // ---- Direction: the pre-refactor direction-optimizing BFS formulas
  // verbatim (enter pull on `>`, stay on `>=` — the asymmetry is Beamer's
  // hysteresis). ----
  if (policy.allow_pull) {
    if (policy.pull_density >= 0.0) {
      d.dir = static_cast<double>(active_global) >
                      policy.pull_density * static_cast<double>(n_global)
                  ? FrontierDir::kPull
                  : FrontierDir::kPush;
    } else if (prev_dir == FrontierDir::kPush) {
      d.dir = static_cast<double>(degree_global) >
                      static_cast<double>(m_global) / policy.alpha
                  ? FrontierDir::kPull
                  : FrontierDir::kPush;
    } else {
      d.dir = static_cast<double>(active_global) >=
                      static_cast<double>(n_global) / policy.beta
                  ? FrontierDir::kPull
                  : FrontierDir::kPush;
    }
  }

  // ---- Representation.  Pull implies dense; push crosses over on the
  // global frontier-degree sum (kernels that report no degree sum stay
  // sparse).  Order-sensitive analytics keep the queue so their
  // insertion-order tie-breaks — and hence their outputs — match the
  // pre-refactor loops bit-for-bit. ----
  d.rep = d.dir == FrontierDir::kPull ||
                  (!policy.order_sensitive &&
                   static_cast<double>(degree_global) >
                       static_cast<double>(m_global) / policy.rep_fraction)
              ? FrontierRep::kBitmap
              : FrontierRep::kQueue;
  return d;
}

void DistFrontier::set_rep(FrontierRep r) {
  if (r == rep_) return;
  if (r == FrontierRep::kBitmap) {
    // Queue → bitmap: duplicates collapse, insertion order is dropped.
    words_.assign(word_count(), 0);
    count_ = 0;
    for (const lvid_t v : list_) {
      std::uint64_t& w = words_[v >> 6];
      const std::uint64_t b = bits::bit(v & 63);
      if (!(w & b)) {
        w |= b;
        ++count_;
      }
    }
    list_.clear();
    list_valid_ = false;
  } else {
    // Bitmap → queue: the canonical ascending member list.
    materialize_list();
    words_.clear();
    count_ = 0;
    list_valid_ = true;
  }
  rep_ = r;
}

void DistFrontier::materialize_list() const {
  list_.clear();
  list_.reserve(count_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    bits::for_each_set_bit(words_[w], [&](std::size_t j) {
      list_.push_back(static_cast<lvid_t>((w << 6) + j));
    });
  list_valid_ = true;
}

}  // namespace hpcgraph::engine
