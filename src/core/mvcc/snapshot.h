// SnapshotRsrChecker: the multiversion admission facade.
//
// Classifies each transaction once, at its first operation:
//
//   * snapshot-admissible — read-only and every static writer of its
//     read set has finished (VersionStore::ReadSetSettled). The whole
//     transaction admits immediately against the committed watermark:
//     zero RSG arcs, zero Pearce–Kelly work, the single-version checker
//     never sees it.
//   * escalating — everything else (writers always; read-only
//     transactions raced by a live writer of their read set). Routed to
//     the single-version checker (`OnlineRsrChecker`) unchanged, so
//     escalated decisions are bit-identical to a facade-less run.
//
// This is the *sequential* reference implementation of the fast path —
// the concurrent wiring lives in shard/sharded_admitter.cc and is
// differentially tested against the same committed-log soundness gate
// (tests/mvcc_test.cc). Feeding
// contract: operations of each transaction in program order; any
// interleaving across transactions. Rejection kills the issuing
// transaction exactly (RemoveTransactionExact); the facade does not
// model recoverability cascades — that is admitter policy, not
// certification.
//
// CommittedLog() returns the *merged* single-version history: checker
// accepts in admission order with each snapshot reader's block spliced
// at its admission stamp. Soundness of the splice (the merged history is
// relatively serializable whenever the checker's own feed was) is argued
// in docs/mvcc.md and enforced by replay in tests/mvcc_test.cc.
#ifndef RELSER_CORE_MVCC_SNAPSHOT_H_
#define RELSER_CORE_MVCC_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/admit.h"
#include "core/mvcc/version_store.h"
#include "core/online.h"
#include "model/transaction.h"
#include "spec/atomicity_spec.h"

namespace relser {

class SnapshotRsrChecker {
 public:
  enum class TxnClass : std::uint8_t {
    kUnclassified = 0,
    kSnapshot,
    kEscalated,
  };

  SnapshotRsrChecker(const TransactionSet& txns, const AtomicitySpec& spec);
  SnapshotRsrChecker(const TransactionSet&, AtomicitySpec&&) = delete;

  /// Admits or refuses `op`. kAccept / kReject from the checker path;
  /// kAborted for operations of an already-rejected transaction.
  AdmitResult Submit(const Operation& op);

  TxnClass Classification(TxnId txn) const { return class_[txn]; }
  bool TxnCommitted(TxnId txn) const { return state_[txn] == kCommitted; }
  bool TxnDead(TxnId txn) const { return state_[txn] == kDead; }

  /// Merged committed history: checker-path accepts in admission order,
  /// snapshot readers spliced at their admission stamps. Program order
  /// per transaction; dead transactions excluded.
  std::vector<Operation> CommittedLog() const;

  const VersionStore& store() const { return store_; }
  std::uint64_t snapshot_admits() const { return store_.snapshot_admits(); }
  std::uint64_t snapshot_escalations() const {
    return store_.snapshot_escalations();
  }
  /// Arcs the escalation checker submitted; snapshot admissions
  /// contribute exactly zero here.
  std::size_t checker_arcs_submitted() const {
    return checker_.arcs_submitted();
  }

 private:
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kCommitted = 1;
  static constexpr std::uint8_t kDead = 2;

  const TransactionSet& txns_;
  VersionStore store_;
  OnlineRsrChecker checker_;
  std::vector<TxnClass> class_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> accepted_;  // checker-path accepts per txn
  struct StampedOp {
    std::uint64_t stamp;
    Operation op;
  };
  std::vector<StampedOp> accept_log_;  // checker-path accepts, stamped
  std::uint64_t next_stamp_ = 0;
};

}  // namespace relser

#endif  // RELSER_CORE_MVCC_SNAPSHOT_H_
