#include "spec/atomicity_spec.h"

#include <algorithm>

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

void AtomicitySpec::CopyRow(const AtomicitySpec& other, TxnId i) {
  RELSER_CHECK(other.txn_count() == txn_count());
  RELSER_CHECK(other.txn_sizes_[i] == txn_sizes_[i]);
  // Equal sizes give equal strides, so row i has the same length in both.
  std::copy_n(other.words_.data() + other.base_[i],
              txn_count() * stride_[i], words_.data() + base_[i]);
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
