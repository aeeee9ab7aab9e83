// AtomicitySpec: the paper's relative atomicity specifications (Section 2).
//
// For every ordered pair (Ti, Tj), i != j, Atomicity(Ti, Tj) partitions
// Ti's operation sequence into contiguous *atomic units*; no operation of
// Tj may be interleaved within a unit (Definition 1). We store each
// Atomicity(Ti, Tj) as a *breakpoint set* over Ti's gaps — gap g lies
// between op g and op g+1; a breakpoint at g ends a unit — which is the
// Farrag–Özsu view and makes every published spec family (absolute,
// Garcia-Molina compatibility sets, Lynch multilevel, arbitrary
// breakpoints) a constructor over one representation.
//
// The default-constructed spec has no breakpoints anywhere: absolute
// atomicity, under which the theory collapses to classical conflict
// serializability (Lemma 1).
//
// Layout: one flat array of 64-bit words holds every breakpoint set, one
// bit per gap. Pair (Ti, Tj) owns stride(i) = ceil((|Ti|-1)/64) words
// starting at base(i) + j * stride(i), so a row i is contiguous and a pair
// of a transaction of up to 65 operations is a single word. PushForward is
// the next set bit at or after `index` and PullBackward the previous set
// bit below it: O(1) word scans (O(|Ti|/64) in general) with no per-pair
// heap object. Bits past a pair's last gap, and the diagonal pairs
// (i == j), stay zero. ProjectRow derives a row over a subsequence of
// Ti's ops (a shard's view, shard/projection.h) from the full row, a
// word at a time when the full row's pairs are one word.
#ifndef RELSER_SPEC_ATOMICITY_SPEC_H_
#define RELSER_SPEC_ATOMICITY_SPEC_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "model/operation.h"
#include "model/transaction.h"
#include "util/check.h"
#include "util/status.h"

namespace relser {

/// An atomic unit of Ti relative to Tj: the closed op-index range
/// [first, last] within Ti. AtomicUnit(k, Ti, Tj) in the paper.
struct UnitRange {
  std::uint32_t first;
  std::uint32_t last;

  bool Contains(std::uint32_t index) const {
    return first <= index && index <= last;
  }
  friend bool operator==(const UnitRange& a, const UnitRange& b) = default;
};

/// Relative atomicity specifications over a fixed TransactionSet.
class AtomicitySpec {
 public:
  /// Empty spec over zero transactions (placeholder; assign before use).
  AtomicitySpec() = default;

  /// Creates the *absolute* spec over `txns` (no breakpoints: every
  /// transaction is one atomic unit relative to every other).
  explicit AtomicitySpec(const TransactionSet& txns);

  std::size_t txn_count() const { return txn_sizes_.size(); }

  /// Number of operations of Ti (snapshot taken at construction).
  std::size_t txn_size(TxnId i) const { return txn_sizes_[i]; }

  /// Declares a unit boundary in Ti between op `gap` and op `gap+1`, as
  /// seen by Tj. Requires i != j and gap < |Ti|-1.
  void SetBreakpoint(TxnId i, TxnId j, std::uint32_t gap);

  /// Removes a unit boundary.
  void ClearBreakpoint(TxnId i, TxnId j, std::uint32_t gap);

  /// True iff Atomicity(Ti,Tj) has a boundary at `gap`.
  bool HasBreakpoint(TxnId i, TxnId j, std::uint32_t gap) const;

  /// Declares every gap of Ti a boundary for Tj (Tj may interleave
  /// anywhere in Ti).
  void RelaxFully(TxnId i, TxnId j);

  /// Overwrites every Atomicity(Ti, Tj) of this spec with the
  /// projection of `from`'s onto the ops of Ti that `kept` lists:
  /// `kept` holds strictly increasing original op indices of Ti in
  /// `from`, one per op of Ti here, and projected gap g carries a
  /// breakpoint iff some original gap in [kept[g], kept[g+1]) does.
  /// Requires the same transaction count in both specs. Keeping all of Ti
  /// is the word copy; a one-word source row costs one AND, compare and
  /// OR per observer and projected gap, against per-gap masks built once.
  void ProjectRow(const AtomicitySpec& from, TxnId i,
                  std::span<const std::uint32_t> kept);

  /// Number of atomic units in Atomicity(Ti, Tj) (breakpoints + 1).
  std::size_t UnitCount(TxnId i, TxnId j) const;

  /// Index k of the unit of Ti (relative to Tj) containing op `index`.
  std::size_t UnitOfOp(TxnId i, TxnId j, std::uint32_t index) const;

  /// Bounds of AtomicUnit(k, Ti, Tj).
  UnitRange UnitBounds(TxnId i, TxnId j, std::size_t k) const;

  /// All units of Atomicity(Ti, Tj), in order.
  std::vector<UnitRange> Units(TxnId i, TxnId j) const;

  /// PushForward(o_{i,index}, Tj): index of the *last* operation of the
  /// unit of Ti (relative to Tj) containing op `index` (Section 3).
  std::uint32_t PushForward(TxnId i, TxnId j, std::uint32_t index) const;

  /// PullBackward(o_{i,index}, Tj): index of the *first* operation of the
  /// unit of Ti (relative to Tj) containing op `index` (Section 3).
  std::uint32_t PullBackward(TxnId i, TxnId j, std::uint32_t index) const;

  /// Hints that PushForward(i, j, ·) is about to be read: prefetches the
  /// first word of Atomicity(Ti, Tj). Requires i != j.
  void PrefetchPushForward(TxnId i, TxnId j) const {
    __builtin_prefetch(words_.data() + PairBase(i, j));
  }

  /// True iff no pair has any breakpoint (the traditional model).
  bool IsAbsolute() const;

  /// True iff every breakpoint of `other` is also a breakpoint of *this
  /// (this spec permits at least the interleavings `other` permits).
  bool AtLeastAsPermissiveAs(const AtomicitySpec& other) const;

  /// Total number of breakpoints across all pairs.
  std::size_t TotalBreakpoints() const;

  /// Verifies the spec shape matches `txns` (sizes unchanged). OK even if
  /// object names changed; only structure matters.
  Status ValidateAgainst(const TransactionSet& txns) const;

  friend bool operator==(const AtomicitySpec& a,
                         const AtomicitySpec& b) = default;

 private:
  std::size_t GapCount(TxnId i) const {
    return txn_sizes_[i] == 0 ? 0 : txn_sizes_[i] - 1;
  }
  /// First word of Atomicity(Ti, Tj); stride_[i] words long.
  std::size_t PairBase(TxnId i, TxnId j) const {
    RELSER_DCHECK(i < txn_count() && j < txn_count() && i != j);
    return base_[i] + static_cast<std::size_t>(j) * stride_[i];
  }

  std::vector<std::size_t> txn_sizes_;
  std::vector<std::size_t> stride_;  // txn -> words per pair of its row
  std::vector<std::size_t> base_;    // txn -> first word of its row
  // Bit g of Atomicity(Ti,Tj)'s words is set iff Ti breaks after op g.
  std::vector<std::uint64_t> words_;
};

// PushForward / PullBackward sit on the admission hot path (one call each
// per ancestor transaction whose maximum index grew), so they are inline.

inline std::uint32_t AtomicitySpec::PushForward(TxnId i, TxnId j,
                                                std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(index < txn_sizes_[i]);
  // Last op of the containing unit: the next breakpoint at or after
  // `index`, or the transaction's last op when there is none.
  const std::uint64_t* words = words_.data() + PairBase(i, j);
  const std::size_t stride = stride_[i];
  std::size_t w = index >> 6;
  if (w < stride) {
    const std::uint64_t bits = words[w] >> (index & 63);
    if (bits != 0) {
      return index + static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    for (++w; w < stride; ++w) {
      if (words[w] != 0) {
        return static_cast<std::uint32_t>(w * 64) +
               static_cast<std::uint32_t>(std::countr_zero(words[w]));
      }
    }
  }
  return static_cast<std::uint32_t>(txn_sizes_[i] - 1);
}

inline std::uint32_t AtomicitySpec::PullBackward(TxnId i, TxnId j,
                                                 std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(index < txn_sizes_[i]);
  if (index == 0) return 0;
  // First op of the containing unit: one past the previous breakpoint
  // below `index` (gaps 0 .. index-1), or op 0 when there is none.
  const std::uint64_t* words = words_.data() + PairBase(i, j);
  const std::uint32_t top = index - 1;
  std::size_t w = top >> 6;
  std::uint64_t bits = words[w] & (~std::uint64_t{0} >> (63 - (top & 63)));
  while (bits == 0) {
    if (w == 0) return 0;
    bits = words[--w];
  }
  return static_cast<std::uint32_t>(w * 64) +
         static_cast<std::uint32_t>(64 - std::countl_zero(bits));
}

}  // namespace relser

#endif  // RELSER_SPEC_ATOMICITY_SPEC_H_
