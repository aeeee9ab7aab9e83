#include "spec/atomicity_spec.h"

#include <algorithm>
#include <array>

#include "util/strings.h"

namespace relser {

AtomicitySpec::AtomicitySpec(const TransactionSet& txns) {
  const std::size_t n = txns.txn_count();
  txn_sizes_.reserve(n);
  stride_.reserve(n);
  base_.reserve(n);
  std::size_t total_words = 0;
  for (const Transaction& txn : txns.txns()) {
    txn_sizes_.push_back(txn.size());
    const std::size_t gaps = txn.size() == 0 ? 0 : txn.size() - 1;
    stride_.push_back((gaps + 63) / 64);
    base_.push_back(total_words);
    total_words += n * stride_.back();
  }
  words_.assign(total_words, 0);
}

void AtomicitySpec::SetBreakpoint(TxnId i, TxnId j, std::uint32_t gap) {
  RELSER_CHECK_MSG(i != j, "Atomicity(Ti,Ti) is not defined");
  RELSER_CHECK_MSG(gap < GapCount(i), "gap " << gap << " out of range for T"
                                             << i + 1 << " (" << GapCount(i)
                                             << " gaps)");
  words_[PairBase(i, j) + (gap >> 6)] |= std::uint64_t{1} << (gap & 63);
}

void AtomicitySpec::ClearBreakpoint(TxnId i, TxnId j, std::uint32_t gap) {
  RELSER_CHECK(i != j);
  RELSER_CHECK(gap < GapCount(i));
  words_[PairBase(i, j) + (gap >> 6)] &= ~(std::uint64_t{1} << (gap & 63));
}

bool AtomicitySpec::HasBreakpoint(TxnId i, TxnId j, std::uint32_t gap) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK(gap < GapCount(i));
  return ((words_[PairBase(i, j) + (gap >> 6)] >> (gap & 63)) & 1) != 0;
}

void AtomicitySpec::RelaxFully(TxnId i, TxnId j) {
  RELSER_CHECK(i != j);
  const std::size_t stride = stride_[i];
  if (stride == 0) return;
  std::uint64_t* words = words_.data() + PairBase(i, j);
  std::fill(words, words + stride, ~std::uint64_t{0});
  // Keep the bits past the last gap zero.
  const std::size_t tail = GapCount(i) & 63;
  if (tail != 0) words[stride - 1] = (std::uint64_t{1} << tail) - 1;
}

namespace {

// True iff any of bits [first, last) of `words` is set; first < last.
bool AnyBitIn(const std::uint64_t* words, std::uint32_t first,
              std::uint32_t last) {
  std::size_t w = first >> 6;
  const std::size_t last_word = (last - 1) >> 6;
  std::uint64_t bits = words[w] & (~std::uint64_t{0} << (first & 63));
  for (; w < last_word; bits = words[++w]) {
    if (bits != 0) return true;
  }
  return (bits & (~std::uint64_t{0} >> (63 - ((last - 1) & 63)))) != 0;
}

}  // namespace

void AtomicitySpec::ProjectRow(const AtomicitySpec& from, TxnId i,
                               std::span<const std::uint32_t> kept) {
  RELSER_CHECK(from.txn_count() == txn_count());
  RELSER_CHECK(kept.size() == txn_sizes_[i]);
  RELSER_CHECK(kept.size() <= from.txn_sizes_[i]);
  if (kept.size() < 2) return;  // no gaps, so no words
  RELSER_DCHECK(kept.back() < from.txn_sizes_[i]);
  const std::size_t n = txn_count();
  const std::uint64_t* src = from.words_.data() + from.base_[i];
  std::uint64_t* dst = words_.data() + base_[i];
  // Strictly increasing and as long as Ti: the identity projection, and
  // equal sizes give equal strides.
  if (kept.size() == from.txn_sizes_[i]) {
    std::copy_n(src, n * stride_[i], dst);
    return;
  }
  // Every observer j, the diagonal included: its source words are zero,
  // so it projects to zero.
  const std::size_t gaps = kept.size() - 1;
  if (from.stride_[i] == 1) {
    // |Ti| <= 65 and at least one op dropped, so gaps <= 63 and every
    // window [kept[g], kept[g+1]) is 1..64 bits starting below bit 64.
    std::array<std::uint64_t, 64> masks{};
    for (std::size_t g = 0; g < gaps; ++g) {
      const std::uint32_t len = kept[g + 1] - kept[g];
      masks[g] = (~std::uint64_t{0} >> (64 - len)) << kept[g];
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t word = src[j];
      std::uint64_t out = 0;
      for (std::size_t g = 0; g < gaps; ++g) {
        out |= static_cast<std::uint64_t>((word & masks[g]) != 0) << g;
      }
      dst[j] = out;
    }
    return;
  }
  const std::size_t src_stride = from.stride_[i];
  const std::size_t dst_stride = stride_[i];
  std::fill(dst, dst + n * dst_stride, std::uint64_t{0});
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* s = src + j * src_stride;
    std::uint64_t* d = dst + j * dst_stride;
    for (std::size_t g = 0; g < gaps; ++g) {
      if (AnyBitIn(s, kept[g], kept[g + 1])) {
        d[g >> 6] |= std::uint64_t{1} << (g & 63);
      }
    }
  }
}

std::size_t AtomicitySpec::UnitCount(TxnId i, TxnId j) const {
  RELSER_CHECK(i != j);
  const std::uint64_t* words = words_.data() + PairBase(i, j);
  std::size_t count = 1;
  for (std::size_t w = 0; w < stride_[i]; ++w) {
    count += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return count;
}

std::size_t AtomicitySpec::UnitOfOp(TxnId i, TxnId j,
                                    std::uint32_t index) const {
  RELSER_CHECK(i != j);
  RELSER_CHECK_MSG(index < txn_sizes_[i],
                   "op index " << index << " out of range for T" << i + 1);
  // Breakpoints at gaps 0 .. index-1, one per unit boundary before it.
  const std::uint64_t* words = words_.data() + PairBase(i, j);
  const std::size_t full = index >> 6;
  std::size_t unit = 0;
  for (std::size_t w = 0; w < full; ++w) {
    unit += static_cast<std::size_t>(std::popcount(words[w]));
  }
  if ((index & 63) != 0) {
    const std::uint64_t below = (std::uint64_t{1} << (index & 63)) - 1;
    unit += static_cast<std::size_t>(std::popcount(words[full] & below));
  }
  return unit;
}

std::vector<UnitRange> AtomicitySpec::Units(TxnId i, TxnId j) const {
  RELSER_CHECK(i != j);
  const std::uint64_t* words = words_.data() + PairBase(i, j);
  std::vector<UnitRange> units;
  std::uint32_t first = 0;
  for (std::size_t w = 0; w < stride_[i]; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t g =
          static_cast<std::uint32_t>(w * 64) +
          static_cast<std::uint32_t>(std::countr_zero(bits));
      units.push_back(UnitRange{first, g});
      first = g + 1;
    }
  }
  units.push_back(
      UnitRange{first, static_cast<std::uint32_t>(txn_sizes_[i] - 1)});
  return units;
}

UnitRange AtomicitySpec::UnitBounds(TxnId i, TxnId j, std::size_t k) const {
  const std::vector<UnitRange> units = Units(i, j);
  RELSER_CHECK_MSG(k < units.size(), "unit " << k << " out of range");
  return units[k];
}

bool AtomicitySpec::IsAbsolute() const { return TotalBreakpoints() == 0; }

bool AtomicitySpec::AtLeastAsPermissiveAs(const AtomicitySpec& other) const {
  // Equal sizes imply an identical word layout.
  if (txn_sizes_ != other.txn_sizes_) return false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((other.words_[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

std::size_t AtomicitySpec::TotalBreakpoints() const {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

Status AtomicitySpec::ValidateAgainst(const TransactionSet& txns) const {
  if (txns.txn_count() != txn_count()) {
    return Status::FailedPrecondition(
        StrCat("spec built for ", txn_count(), " transactions, set has ",
               txns.txn_count()));
  }
  for (TxnId i = 0; i < txn_count(); ++i) {
    if (txns.txn(i).size() != txn_sizes_[i]) {
      return Status::FailedPrecondition(
          StrCat("T", i + 1, " has ", txns.txn(i).size(),
                 " operations, spec expects ", txn_sizes_[i]));
    }
  }
  return Status::Ok();
}

}  // namespace relser
