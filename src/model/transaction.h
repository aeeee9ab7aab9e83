// Transaction and TransactionSet (the set T = {T1, ..., Tn} of Section 2).
//
// A Transaction is a totally ordered sequence of read/write operations.
// TransactionSet owns the transactions, assigns dense transaction ids and
// interns object names (so examples can use the paper's x, y, z, t) as
// dense object ids. OpIndexer (model/op_indexer.h) numbers the
// operations; those numbers are the RSG's vertex ids.
#ifndef RELSER_MODEL_TRANSACTION_H_
#define RELSER_MODEL_TRANSACTION_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/operation.h"
#include "util/check.h"
#include "util/status.h"

namespace relser {

/// Longest transaction, in operations, that the online certifier
/// accepts: OnlineRsrChecker (core/online.h) keeps +1-encoded operation
/// indices in 16-bit ancestor columns, so the last operation's column
/// value is at most 0xFFFE. Parsers of outside input (model/text.h,
/// audit/ingest.h) refuse a longer transaction with a Status; the
/// checker's constructor aborts on one.
inline constexpr std::uint32_t kMaxTxnOps = 65534;

/// A totally ordered sequence of operations issued by one transaction.
class Transaction {
 public:
  Transaction() = default;
  explicit Transaction(TxnId id) : id_(id) {}

  TxnId id() const { return id_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// The j-th operation (0-based); o_{i,j} in the paper's o_{ij} notation.
  const Operation& op(std::size_t j) const {
    RELSER_CHECK_MSG(j < ops_.size(), "op index " << j << " out of range");
    return ops_[j];
  }

  const std::vector<Operation>& ops() const { return ops_; }

  /// Appends a read of `object`; returns the new operation's index.
  std::uint32_t Read(ObjectId object) { return Append(OpType::kRead, object); }
  /// Appends a write of `object`; returns the new operation's index.
  std::uint32_t Write(ObjectId object) {
    return Append(OpType::kWrite, object);
  }

 private:
  friend class TransactionSet;

  std::uint32_t Append(OpType type, ObjectId object) {
    const auto index = static_cast<std::uint32_t>(ops_.size());
    ops_.push_back(Operation{id_, index, type, object});
    return index;
  }

  TxnId id_ = 0;
  std::vector<Operation> ops_;
};

/// The full set of transactions an analysis or simulation runs over,
/// together with the object-name symbol table.
class TransactionSet {
 public:
  TransactionSet() = default;

  /// Adds an empty transaction and returns a pointer for populating it.
  /// Pointers remain valid for the lifetime of the set (deque storage).
  Transaction* AddTransaction();

  std::size_t txn_count() const { return txns_.size(); }

  const Transaction& txn(TxnId id) const {
    RELSER_CHECK_MSG(id < txns_.size(), "txn id " << id << " out of range");
    return txns_[id];
  }

  const std::deque<Transaction>& txns() const { return txns_; }

  /// Returns the id of the named object, interning it on first use.
  ObjectId InternObject(const std::string& name);

  /// Name of `object`.
  const std::string& ObjectName(ObjectId object) const;

  /// Creates exactly `count` anonymous objects (workload generators),
  /// returning the first new id. Object `id` is named "o<id>", with '_'
  /// appended until the name is not already interned.
  ObjectId AddObjects(std::size_t count);

  std::size_t object_count() const { return object_names_.size(); }

  /// Validates internal consistency (op indices consecutive, objects
  /// interned, non-empty transactions); OK on success.
  Status Validate() const;

 private:
  std::deque<Transaction> txns_;
  std::vector<std::string> object_names_;
  std::unordered_map<std::string, ObjectId> object_ids_;
};

}  // namespace relser

#endif  // RELSER_MODEL_TRANSACTION_H_
