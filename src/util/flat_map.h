// FlatMap64: a minimal open-addressing hash map over 64-bit keys.
//
// The admission hot paths need find/upsert/erase in O(1) average with
// zero per-entry heap allocations: the cross-shard coordinator's
// `pair_index_` (transaction pair -> live or dead mirrored arc) and each
// shard's `arc_state` (transaction pair -> recorded locally or also
// mirrored). Dense ids (objects, operations) index plain vectors instead.
// std::unordered_map's node-per-entry allocation and pointer chasing are
// exactly what the perf-trajectory benches flag. Storage is two parallel
// vectors (keys, values) with linear probing, power-of-two capacity, and
// tombstone deletion; growth is the only allocation and is amortized
// away by Reserve().
#ifndef RELSER_UTIL_FLAT_MAP_H_
#define RELSER_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace relser {

/// Mixes a 64-bit key into a table index (SplitMix64 finalizer).
inline std::uint64_t HashKey64(std::uint64_t key) {
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

/// Open-addressing map from uint64 keys to trivially-copyable values.
/// Keys 2^64-1 and 2^64-2 are reserved as empty/tombstone sentinels.
template <typename V>
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ULL;
  static constexpr std::uint64_t kTombstoneKey = ~0ULL - 1;

  FlatMap64() = default;

  /// Pre-sizes the table for `expected` live entries.
  void Reserve(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 3 < expected * 4 + 4) cap <<= 1;
    if (cap > Capacity()) Rehash(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (live, tombstoned and empty).
  std::size_t capacity() const { return keys_.size(); }

  /// Pointer to the value for `key`, or nullptr when absent.
  V* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    const std::size_t slot = FindSlot(key);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }
  const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }

  /// Returns (value pointer, inserted?). A new entry is value-initialized.
  std::pair<V*, bool> Upsert(std::uint64_t key) {
    RELSER_DCHECK(key < kTombstoneKey);
    if ((used_ + 1) * 4 > Capacity() * 3) {
      // When tombstones fill the table, purge them at the same capacity:
      // insert/erase churn over a bounded live set must not keep
      // doubling it.
      const bool mostly_dead = (size_ + 1) * 2 <= Capacity();
      Rehash(Capacity() < 16 ? 16 : mostly_dead ? Capacity() : Capacity() * 2);
    }
    std::size_t index = Probe(key);
    std::size_t first_tombstone = kNoSlot;
    while (true) {
      const std::uint64_t k = keys_[index];
      if (k == key) return {&values_[index], false};
      if (k == kEmptyKey) {
        if (first_tombstone != kNoSlot) {
          index = first_tombstone;  // reuse the tombstone slot
        } else {
          ++used_;
        }
        keys_[index] = key;
        values_[index] = V{};
        ++size_;
        return {&values_[index], true};
      }
      if (k == kTombstoneKey && first_tombstone == kNoSlot) {
        first_tombstone = index;
      }
      index = (index + 1) & mask_;
    }
  }

  /// Removes `key`; returns true when it was present.
  bool Erase(std::uint64_t key) {
    if (keys_.empty()) return false;
    const std::size_t slot = FindSlot(key);
    if (slot == kNoSlot) return false;
    keys_[slot] = kTombstoneKey;
    --size_;
    return true;
  }

  /// Drops every entry but keeps the capacity.
  void Clear() {
    for (auto& k : keys_) k = kEmptyKey;
    size_ = 0;
    used_ = 0;
  }

  /// Calls fn(key, value&) for every live entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] < kTombstoneKey) fn(keys_[i], values_[i]);
    }
  }

 private:
  static constexpr std::size_t kNoSlot = ~static_cast<std::size_t>(0);

  std::size_t Capacity() const { return keys_.size(); }
  std::size_t Probe(std::uint64_t key) const {
    return static_cast<std::size_t>(HashKey64(key)) & mask_;
  }

  std::size_t FindSlot(std::uint64_t key) const {
    std::size_t index = Probe(key);
    while (true) {
      const std::uint64_t k = keys_[index];
      if (k == key) return index;
      if (k == kEmptyKey) return kNoSlot;
      index = (index + 1) & mask_;
    }
  }

  void Rehash(std::size_t new_cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, kEmptyKey);
    values_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    size_ = 0;
    used_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] < kTombstoneKey) {
        *Upsert(old_keys[i]).first = old_values[i];
      }
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstoned slots ever occupied
  std::size_t mask_ = 0;
};

}  // namespace relser

#endif  // RELSER_UTIL_FLAT_MAP_H_
