// OnlineRsrChecker: a streaming certifier for relative serializability.
//
// Feeds one operation at a time (in each transaction's program order,
// arbitrary interleaving across transactions) and maintains the relative
// serialization graph incrementally: an operation is accepted iff the
// graph stays acyclic, i.e. iff the executed prefix remains relatively
// serializable (Theorem 1 applied online). Rejected operations leave the
// checker unchanged, so the caller may retry, drop, or abort.
//
// This is the reusable core of the paper's proposed SGT-style protocol
// (Section 3): RSGTScheduler wraps it with the simulator's abort /
// restart bookkeeping, and offline tools use FirstRejection to locate the
// earliest operation at which a schedule leaves the class.
//
// Admission is frontier-pruned and allocation-free in the steady state:
// instead of materializing each operation's transitive ancestor set as a
// bitset and emitting a D/F/B arc triple per transitive ancestor (the
// original formulation, preserved in core/online_baseline.h), the checker
// keeps per object only the conflict frontier (last writer + readers
// since it) and per operation a dense per-transaction maximum-ancestor-
// index row drawn from a reusable pool. An operation re-evaluates the F/B
// arcs of an ancestor transaction only where its row raised that
// transaction's column over its program-order predecessor's row, and
// dominated arcs are never inserted; docs/hotpath.md proves the
// transitive closure — and therefore every accept/reject decision — is
// bit-identical to the full emission.
//
// Every accepted operation also pushes one undo record, aligned with its
// feed_log() entry: the row columns it raised (with their old values),
// the object frontier it dominated, and the arcs it actually inserted.
// That makes removal exact and proportional to what changed:
// RemoveTransactionExact rolls the log back to the victim's first
// operation and re-admits only the survivors fed after it, and Truncate
// drops settled transactions in place. After either, the state is
// bit-identical (StateDigest) to a fresh checker fed feed_log() —
// differentially tested by tests/fault_test.cc and
// tests/rollback_differential_test.cc.
//
// Decisions are reported as AdmitResult (core/admit.h): kAccept commits
// the arcs, kReject leaves the state unchanged and carries the
// witnessing arc, and TryAppendIsolated's kRetry means "ineligible for
// the fast path, fall back to TryAppend".
#ifndef RELSER_CORE_ONLINE_H_
#define RELSER_CORE_ONLINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/admit.h"
#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "spec/atomicity_spec.h"
#include "util/flat_map.h"

namespace relser {

class Tracer;

/// Incremental relative-serializability certification.
class OnlineRsrChecker {
 public:
  /// One ancestor-row column: a +1-encoded operation index within one
  /// transaction (0 = no ancestor there), at most kMaxTxnOps.
  using AncestorColumn = std::uint16_t;
  static_assert(kMaxTxnOps < std::numeric_limits<AncestorColumn>::max());

  /// `txns` and `spec` must outlive the checker. Every transaction must
  /// have at most kMaxTxnOps operations (checked; parsers of outside
  /// input refuse longer ones first).
  OnlineRsrChecker(const TransactionSet& txns, const AtomicitySpec& spec);
  /// Guard against binding a temporary specification.
  OnlineRsrChecker(const TransactionSet&, AtomicitySpec&&) = delete;

  /// Attempts to append `op`, which must be the next unfed operation of
  /// its transaction. Returns kAccept (arcs committed) when the extended
  /// prefix is still relatively serializable; kReject (state unchanged,
  /// witnessing arc filled in) otherwise.
  AdmitResult TryAppend(const Operation& op);

  /// Fast-path variant for operations that provably cannot conflict:
  /// returns kAccept and commits `op` (identically to TryAppend) when
  /// its transaction is *isolated* — no cross-transaction RSG arc has
  /// ever touched any of its nodes — and its object's conflict frontier
  /// is empty or owned by the same transaction. Under those conditions
  /// the only new arc is the program-order I-arc into a fresh sink node,
  /// which cannot close a cycle, so acceptance is guaranteed and the
  /// F/B scan is skipped entirely. Returns kRetry — with the
  /// checker unchanged — when the preconditions do not hold; the caller
  /// then falls back to the full TryAppend. Never rejects. Same feeding
  /// contract as TryAppend (next unfed op, program order).
  AdmitResult TryAppendIsolated(const Operation& op);

  /// True while no cross-transaction arc has ever been incident on a
  /// node of `txn` (the TryAppendIsolated eligibility bit).
  bool TxnIsolated(TxnId txn) const { return cross_pairs_[txn] == 0; }

  /// Exact abort: forgets every fed operation of `txn` and restores the
  /// checker to the state of a fresh checker fed the surviving feed (the
  /// accepted operations, in their original admission order, minus
  /// `txn`'s). Rolls the undo log back to `txn`'s first operation, then
  /// silently re-admits the survivors fed after it — every one of them
  /// re-admits, because the survivor-restricted RSG is a subgraph of the
  /// original acyclic graph. The cost is the feed since the victim
  /// started, not the retained history, and the result is bit-identical
  /// (StateDigest) to recompute-from-scratch. Counters: rejections() is
  /// preserved; arcs_submitted()/arcs_inserted_total() keep counting
  /// through the re-admission (they meter topology traffic, which it
  /// genuinely performs), and replayed_ops() grows by the survivors
  /// re-admitted.
  void RemoveTransactionExact(TxnId txn);

  /// Epoch-driven truncation (checkpoint): forgets every fed operation
  /// whose transaction has settled per `settled` (one atomic byte per
  /// transaction, epoch/epoch.h's view; read with relaxed loads). Works
  /// in place and re-admits nothing: it isolates the settled nodes,
  /// zeroes the settled columns of the retained rows and of the undo
  /// log, and filters the settled operations out of the object
  /// frontiers, feed_log() and the log. Settledness is predecessor-closed,
  /// so no survivor's row, arc or frontier membership depends on a
  /// settled operation, and the result is bit-identical (StateDigest) to
  /// a fresh checker fed only the survivors (docs/hotpath.md gives the
  /// proof; the GC differential tests check decisions bit-for-bit).
  /// Returns the number of feed entries dropped (0 = no settled history,
  /// state untouched).
  std::size_t Truncate(const std::atomic<std::uint8_t>* settled);

  /// Retained-state gauges for long-lived memory accounting
  /// (bench_longlived): accepted operations currently remembered,
  /// ancestor-array pool rows allocated (the pool never shrinks, so this
  /// is its high water mark), and live F/B pairs — the nonzero
  /// cross-transaction entries of the transactions' newest rows, i.e. the
  /// (Ti -> Tj) pairs whose F/B arcs have been evaluated.
  std::size_t retained_ops() const { return feed_log_.size(); }
  std::size_t pool_rows() const { return slot_owner_.size(); }
  std::size_t memo_entries() const { return live_pairs_; }

  /// Cumulative operations re-admitted by RemoveTransactionExact (the
  /// survivors fed after each victim's first operation). Truncate never
  /// adds to it.
  std::size_t replayed_ops() const { return replayed_ops_; }

  /// Order-insensitive FNV-1a digest of the complete admission state:
  /// executed set, isolation counts, newest-op table, per-object
  /// frontiers (objects with no executed operation count as absent),
  /// retained ancestor rows and graph adjacency. Two
  /// checkers over the same TransactionSet/spec digest equal iff their
  /// future accept/reject behavior is identical state-wise; the
  /// fault-injection tests compare post-RemoveTransactionExact digests
  /// against rebuilt-from-scratch checkers.
  std::uint64_t StateDigest() const;

  /// True while any operation of `txn` is currently executed (fed and
  /// not removed).
  bool TxnHasExecuted(TxnId txn) const { return newest_gid_[txn] != kNoGid; }

  /// The transactions of the last accepted operation's direct-conflict
  /// (D-arc) sources: the foreign members of its object's conflict
  /// frontier just before the append — the frontier writer first, then,
  /// for a write, the readers since it in feed order (one entry per
  /// operation). Empty after a TryAppendIsolated accept. Valid until the
  /// next call that feeds, removes or truncates; unspecified after a
  /// rejection.
  const std::vector<TxnId>& last_conflicts() const { return conflict_txns_; }

  /// Global id of the frontier writer (last executed, still-present
  /// write) of `object`, or kNoOp when none / object untouched.
  static constexpr std::size_t kNoOp = ~static_cast<std::size_t>(0);
  std::size_t FrontierWriterGid(ObjectId object) const;

  /// Appends the global ids of `object`'s frontier readers (executed
  /// reads since the frontier writer, feed order) to `out`. Together
  /// with FrontierWriterGid this is the complete conflict frontier: a
  /// read-only probe for reference models of the admitter (shard_test's
  /// serial model, rollback_differential_test, perfbench's replica),
  /// and what the tests check last_conflicts() against.
  void FrontierReaders(ObjectId object, std::vector<std::size_t>* out) const;

  /// The accepted operations still present, as global ids in admission
  /// order; a fresh checker fed them reaches this checker's state.
  const std::vector<std::size_t>& feed_log() const { return feed_log_; }

  /// True iff o_{txn,index} has been fed and accepted.
  bool Executed(TxnId txn, std::uint32_t index) const {
    return executed_[indexer_.GlobalId(txn, index)] != 0;
  }

  /// Cycle rejections so far.
  std::size_t rejections() const { return rejections_; }

  /// Cumulative arcs handed to the topology (after frontier pruning).
  std::size_t arcs_submitted() const { return arcs_submitted_; }
  /// Cumulative arcs actually inserted (deduplicated, committed).
  std::size_t arcs_inserted_total() const { return arcs_inserted_total_; }

  /// The maintained graph (for diagnostics / DOT export).
  const IncrementalTopology& topology() const { return topo_; }
  const OpIndexer& indexer() const { return indexer_; }

  /// Attaches an observability collector (obs/trace.h); nullptr detaches.
  /// With no tracer (the default) every hook costs one pointer compare;
  /// at TraceLevel::kFull each arc handed to the topology is recorded
  /// with its I/D/F/B kind and each rejection attaches a TraceCause
  /// naming the witnessing arc that closed the cycle.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Streams `schedule` through a fresh checker; returns the position of
  /// the first rejected operation, or schedule.size() when the whole
  /// schedule is accepted (equivalently: is relatively serializable).
  static std::size_t FirstRejection(const TransactionSet& txns,
                                    const AtomicitySpec& spec,
                                    const Schedule& schedule);

 private:
  static constexpr std::size_t kNoGid = ~static_cast<std::size_t>(0);
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  static constexpr std::uint8_t kNewestFlag = 1;    // newest executed of txn
  static constexpr std::uint8_t kFrontierFlag = 2;  // in an object frontier

  /// Conflict frontier of one object.
  struct ObjState {
    std::vector<std::size_t> readers;  // reads since last_writer, feed order
    std::size_t last_writer = kNoGid;
  };

  /// Undo record of one accepted operation: where its entries begin in
  /// the three undo arenas (each range ends where the next record's
  /// begins).
  struct UndoRecord {
    std::size_t deltas;    // undo_deltas_: row columns it raised
    std::size_t arcs;      // undo_arcs_: arcs it inserted
    std::size_t frontier;  // undo_frontier_: frontier a write dominated
  };

  /// A column an operation's row raised over its predecessor's row.
  struct ColumnDelta {
    std::uint32_t column;
    AncestorColumn old_p1;  // the predecessor row's value
  };

  std::uint32_t ObjIndex(ObjectId object);
  std::uint32_t AcquireSlot(std::size_t gid);
  void ReleaseSlotIfAny(std::size_t gid);
  /// Shared commit tail of TryAppend / TryAppendIsolated: persists
  /// scratch_anc_ into the slot pool, updates retention flags, the object
  /// frontier, reverse indices and executed bookkeeping, and pushes the
  /// undo record whose deltas and arcs begin at the given offsets.
  void CommitOp(const Operation& op, std::size_t gid, std::uint32_t obj_idx,
                std::size_t deltas_begin, std::size_t arcs_begin);
  /// Undoes the newest undo record, restoring the exact state before
  /// that operation was accepted (topology labels aside).
  void UndoLast();
  /// Gives `gid` its ancestor row back if it was released: its
  /// transaction's newest row with the deltas of the later operations
  /// reverted (rows are cumulative along program order).
  void RestoreRow(std::size_t gid);
  /// One past record `k`'s last entry in undo_deltas_.
  std::size_t DeltasEnd(std::size_t k) const {
    return k + 1 < undo_log_.size() ? undo_log_[k + 1].deltas
                                    : undo_deltas_.size();
  }

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::size_t txn_count_;

  std::vector<std::uint8_t> executed_;
  // txn -> nonzero cross-transaction entries of newest rows that involve
  // it (as the row's or the column's transaction); 0 = isolated.
  std::vector<std::uint32_t> cross_pairs_;
  std::vector<std::uint8_t> flags_;        // retention flags per gid
  std::vector<std::uint32_t> slot_of_;     // gid -> pool slot (kNoSlot)
  std::vector<std::size_t> newest_gid_;    // txn -> newest executed gid

  // Ancestor-array pool: row `slot` holds txn_count_ +1-encoded maximum
  // ancestor indices (0 = no ancestor in that transaction), 16 bits each:
  // an index never leaves its transaction, and kMaxTxnOps bounds every
  // transaction's length. Rows are retained only for operations that can
  // still become direct predecessors: the newest executed op of each
  // transaction and the current object frontiers. The F/B scan reads and
  // writes about four rows per append, so the row width is its memory
  // traffic.
  std::vector<AncestorColumn> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> slot_owner_;  // slot -> gid (kNoGid when free)

  FlatMap64<std::uint32_t> object_index_;  // ObjectId -> objects_ index
  std::vector<ObjState> objects_;
  std::vector<std::vector<std::uint32_t>> txn_objects_;  // reverse index
  std::size_t live_pairs_ = 0;  // sum of cross_pairs_ / 2

  std::vector<std::size_t> feed_log_;  // accepted gids, admission order
  std::vector<std::uint32_t> pos_of_;  // gid -> its feed_log_ position
  // Undo log, record k belonging to feed_log_[k].
  std::vector<UndoRecord> undo_log_;
  std::vector<ColumnDelta> undo_deltas_;
  std::vector<std::pair<NodeId, NodeId>> undo_arcs_;
  // Per write: the dominated last writer (kNoGid when none), then readers.
  std::vector<std::size_t> undo_frontier_;

  // Reusable per-append scratch (no steady-state allocations).
  std::vector<AncestorColumn> scratch_anc_;
  std::vector<AncestorColumn> zero_row_;  // predecessor row of a first op
  std::vector<std::size_t> pred_buf_;
  std::vector<TxnId> conflict_txns_;  // last_conflicts(), parallel to pred_buf_
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<std::uint8_t> arc_kind_buf_;  // parallel to arc_buf_ (tracing)
  // RemoveTransactionExact / Truncate scratch.
  std::vector<std::size_t> replay_;
  std::vector<TxnId> drop_txns_;
  std::vector<NodeId> drop_nodes_;
  std::vector<std::uint32_t> drop_objects_;
  std::vector<std::uint8_t> drop_mark_;  // gid -> dropped by this Truncate

  std::size_t replayed_ops_ = 0;
  std::size_t rejections_ = 0;
  std::size_t arcs_submitted_ = 0;
  std::size_t arcs_inserted_total_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace relser

#endif  // RELSER_CORE_ONLINE_H_
