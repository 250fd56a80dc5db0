#pragma once
/// \file lp_hash_map.hpp
/// Fast linear-probing hash map, global-id -> local-id.
///
/// This is the `map` structure of the paper's distributed graph
/// representation (Table II): it is consulted when decoding global vertex ids
/// received from neighbouring tasks, and when building send queues.  The
/// paper's optimization story hinges on touching this map rarely (ghost
/// relabeling + retained queues); when it *is* touched it must be fast, hence
/// open addressing with linear probing rather than std::unordered_map's
/// chained buckets.
///
/// Insert-only (graph construction inserts, analytics only look up), no
/// tombstones needed.  Capacity is a power of two; probing uses the high bits
/// of a SplitMix64 hash.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hpcgraph {

/// Open-addressing hash map from gvid_t keys to a 32-bit value.
class LpHashMap {
 public:
  /// \param expected  Expected number of keys; the table is sized to keep
  ///                  the load factor below ~0.7 without growth.
  explicit LpHashMap(std::size_t expected = 0) { reserve(expected); }

  /// Re-initialize for `expected` keys, discarding all contents.
  void reserve(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < (expected + 1) * 10) cap <<= 1;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
    size_ = 0;
  }

  /// Insert key -> val.  If the key exists its value is overwritten.
  void insert(gvid_t key, std::uint32_t val) {
    const std::size_t i = probe(key);
    if (keys_[i] == key) {
      vals_[i] = val;
    } else {
      put(i, key, val);
    }
  }

  /// The value of `key`, inserting key -> val first if it is absent; an
  /// existing value is returned unchanged.  One probe sequence either way,
  /// so a caller that hands out ids on first sight translates each key once.
  std::uint32_t find_or_insert(gvid_t key, std::uint32_t val) {
    const std::size_t i = probe(key);
    if (keys_[i] == key) return vals_[i];
    put(i, key, val);
    return val;
  }

  /// Look up a key; returns kNotFound when absent.
  std::uint32_t find(gvid_t key) const {
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  /// Look up a key that must be present (checked).
  std::uint32_t at(gvid_t key) const {
    const std::uint32_t v = find(key);
    HG_CHECK_MSG(v != kNotFound, "LpHashMap: missing key " << key);
    return v;
  }

  bool contains(gvid_t key) const { return find(key) != kNotFound; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return keys_.size(); }

  static constexpr std::uint32_t kNotFound = 0xffffffffu;

 private:
  // gvid_t(-1) is kNullGvid, never a real vertex id; reuse it as empty marker.
  static constexpr gvid_t kEmpty = kNullGvid;

  std::size_t slot(gvid_t key) const { return splitmix64(key) & mask_; }

  /// The slot holding `key`, or the empty slot that ends its probe sequence
  /// (`key` must not be the empty marker).
  std::size_t probe(gvid_t key) const {
    HG_DCHECK(key != kEmpty);
    std::size_t i = slot(key);
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  /// Store a new key at `i`, the empty slot probe(key) returned, growing
  /// first if it would pass the ~0.7 load factor.  Growth depends on the
  /// number of keys alone, so it never fires on an overwrite or a hit.
  void put(std::size_t i, gvid_t key, std::uint32_t val) {
    if ((size_ + 1) * 10 > capacity() * 7) {
      grow();
      i = probe(key);
    }
    keys_[i] = key;
    vals_[i] = val;
    ++size_;
  }

  void grow() {
    std::vector<gvid_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    const std::size_t cap = old_keys.size() * 2;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i)
      if (old_keys[i] != kEmpty) insert(old_keys[i], old_vals[i]);
  }

  std::vector<gvid_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hpcgraph
