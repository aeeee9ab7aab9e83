// OpIndexer: the operation numbering, the only one in the library.
//
// Maps operations to dense global op ids (the RSG's vertex ids) in O(1)
// and back in O(log T). It snapshots a finished TransactionSet's
// transaction sizes once; build it after the set stops growing.
#ifndef RELSER_MODEL_OP_INDEXER_H_
#define RELSER_MODEL_OP_INDEXER_H_

#include <algorithm>
#include <vector>

#include "model/transaction.h"

namespace relser {

/// Immutable snapshot of a TransactionSet's operation numbering.
class OpIndexer {
 public:
  /// Snapshots `txns`; the set must not grow while the indexer is in use.
  explicit OpIndexer(const TransactionSet& txns) {
    offsets_.reserve(txns.txn_count() + 1);
    offsets_.push_back(0);
    for (const Transaction& txn : txns.txns()) {
      offsets_.push_back(offsets_.back() + txn.size());
    }
  }

  /// Global id of o_{txn,index}.
  std::size_t GlobalId(TxnId txn, std::uint32_t index) const {
    RELSER_DCHECK(txn + 1 < offsets_.size());
    RELSER_DCHECK(offsets_[txn] + index < offsets_[txn + 1]);
    return offsets_[txn] + index;
  }
  std::size_t GlobalId(const Operation& op) const {
    return GlobalId(op.txn, op.index);
  }

  /// Transaction owning global id `gid` (binary search over offsets).
  TxnId TxnOf(std::size_t gid) const {
    RELSER_DCHECK(gid < offsets_.back());
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), gid);
    return static_cast<TxnId>(it - offsets_.begin() - 1);
  }

  /// True iff global id `gid` belongs to transaction `txn` (O(1)).
  bool InTxn(TxnId txn, std::size_t gid) const {
    return gid >= offsets_[txn] && gid < offsets_[txn + 1];
  }

  /// Operation with global id `gid`. `txns` must be the snapshotted set.
  const Operation& Op(const TransactionSet& txns, std::size_t gid) const {
    const TxnId txn = TxnOf(gid);
    return txns.txn(txn).op(gid - offsets_[txn]);
  }

  /// First global id of transaction `txn`.
  std::size_t TxnBegin(TxnId txn) const { return offsets_[txn]; }
  /// One past the last global id of transaction `txn`.
  std::size_t TxnEnd(TxnId txn) const { return offsets_[txn + 1]; }

  std::size_t total_ops() const { return offsets_.back(); }
  std::size_t txn_count() const { return offsets_.size() - 1; }

 private:
  std::vector<std::size_t> offsets_;
};

}  // namespace relser

#endif  // RELSER_MODEL_OP_INDEXER_H_
