#include "core/mvcc/snapshot.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace relser {

SnapshotRsrChecker::SnapshotRsrChecker(const TransactionSet& txns,
                                       const AtomicitySpec& spec)
    : txns_(txns),
      store_(txns),
      checker_(txns, spec),
      class_(txns.txn_count(), TxnClass::kUnclassified),
      state_(txns.txn_count(), kLive),
      accepted_(txns.txn_count(), 0) {}

AdmitResult SnapshotRsrChecker::Submit(const Operation& op) {
  const TxnId txn = op.txn;
  if (state_[txn] == kDead) return AdmitResult::Aborted(txn);
  if (class_[txn] == TxnClass::kSnapshot) {
    // The whole transaction was admitted at classification; later
    // operations just acknowledge.
    return AdmitResult::Accept(txn);
  }
  if (class_[txn] == TxnClass::kUnclassified && store_.IsReadOnly(txn)) {
    RELSER_CHECK_MSG(op.index == 0,
                     "feeding contract: first op of T" << txn + 1
                                                       << " classifies it");
    if (store_.ReadSetSettled(txn)) {
      class_[txn] = TxnClass::kSnapshot;
      state_[txn] = kCommitted;
      store_.LogSnapshotAdmit(txn, store_.watermark(), next_stamp_++);
      return AdmitResult::Accept(txn);
    }
    store_.TryCountEscalation(txn);
    class_[txn] = TxnClass::kEscalated;
  } else if (class_[txn] == TxnClass::kUnclassified) {
    class_[txn] = TxnClass::kEscalated;
  }

  AdmitResult result = checker_.TryAppend(op);
  if (result.outcome == AdmitOutcome::kAccept) {
    accept_log_.push_back(StampedOp{next_stamp_++, op});
    if (++accepted_[txn] == txns_.txn(txn).size()) {
      state_[txn] = kCommitted;
      store_.NoteCommit(txn);
    }
  } else if (result.outcome == AdmitOutcome::kReject) {
    state_[txn] = kDead;
    checker_.RemoveTransactionExact(txn);
    store_.NoteAbort(txn);
  }
  return result;
}

std::vector<Operation> SnapshotRsrChecker::CommittedLog() const {
  struct Entry {
    std::uint64_t stamp;
    std::uint32_t sub;
    Operation op;
  };
  std::vector<Entry> entries;
  entries.reserve(accept_log_.size());
  for (const StampedOp& rec : accept_log_) {
    if (state_[rec.op.txn] == kCommitted) {
      entries.push_back(Entry{rec.stamp, 0, rec.op});
    }
  }
  for (const SnapshotAdmitRecord& rec : store_.SnapshotAdmits()) {
    const Transaction& txn = txns_.txn(rec.txn);
    for (std::uint32_t i = 0; i < txn.size(); ++i) {
      entries.push_back(Entry{rec.stamp, i, txn.ops()[i]});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.stamp != b.stamp ? a.stamp < b.stamp : a.sub < b.sub;
  });
  std::vector<Operation> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) out.push_back(e.op);
  return out;
}

}  // namespace relser
