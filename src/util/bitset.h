// DenseBitset: a dynamically sized bitset with word-parallel bulk
// operations.
//
// The core library computes the `depends-on` relation (transitive closure
// of directly-depends-on) by propagating per-operation reachability sets
// in schedule order; DenseBitset provides the O(n/64)-per-union kernel
// that makes the closure O(n^2/64) words of work. UnionWith runs the
// OrWords loop of util/simd.h.
#ifndef RELSER_UTIL_BITSET_H_
#define RELSER_UTIL_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/simd.h"

namespace relser {

/// Fixed-universe bitset; size chosen at construction (or Resize).
class DenseBitset {
 public:
  DenseBitset() : size_(0) {}
  /// Creates an all-zero bitset over `size` bits.
  explicit DenseBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  /// Grows or shrinks to `size` bits; preserved bits keep their value,
  /// new bits are zero. Shrinking clears the dropped tail so a later
  /// grow re-exposes zeros (the words_ comparison in operator== relies
  /// on trailing bits beyond size() staying zero as well).
  void Resize(std::size_t size) {
    const std::size_t words = (size + 63) / 64;
    words_.resize(words, 0);
    size_ = size;
    const std::size_t tail = size & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (~0ULL >> (64 - tail));
    }
  }

  /// Sets bit i.
  void Set(std::size_t i) {
    RELSER_DCHECK(i < size_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  /// Clears bit i.
  void Reset(std::size_t i) {
    RELSER_DCHECK(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Tests bit i.
  bool Test(std::size_t i) const {
    RELSER_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Sets every bit to zero.
  void Clear() {
    for (auto& w : words_) w = 0;
  }

  /// this |= other. Both operands must have equal size.
  void UnionWith(const DenseBitset& other) {
    RELSER_DCHECK(size_ == other.size_);
    OrWords(words_.data(), other.words_.data(), words_.size());
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t total = 0;
    for (const auto w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  /// True when no bit is set.
  bool None() const {
    for (const auto w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t FindNext(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t wi = from >> 6;
    std::uint64_t word = words_[wi] & (~0ULL << (from & 63));
    while (true) {
      if (word != 0) {
        const std::size_t bit =
            (wi << 6) + static_cast<std::size_t>(std::countr_zero(word));
        return bit < size_ ? bit : size_;
      }
      if (++wi >= words_.size()) return size_;
      word = words_[wi];
    }
  }

  /// All set-bit indices, ascending.
  std::vector<std::size_t> ToVector() const {
    std::vector<std::size_t> out;
    for (std::size_t i = FindNext(0); i < size_; i = FindNext(i + 1)) {
      out.push_back(i);
    }
    return out;
  }

  bool operator==(const DenseBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  std::size_t size_;
  std::vector<std::uint64_t> words_;
};

}  // namespace relser

#endif  // RELSER_UTIL_BITSET_H_
