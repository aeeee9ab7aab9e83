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
// inserts no F/B arc that a dominating arc already implies. It also
// skips a B-arc that a path through its own D/I-ancestors and another
// raised column's B-arc already implies (b_arcs_implied()).
// docs/hotpath.md proves the transitive closure — and therefore every
// accept/reject decision — is bit-identical to the full emission
// (Lemmas 1-4), and that the skip survives aborts and truncation.
//
// Every accepted operation also pushes one undo record, aligned with its
// feed_log() entry: the row columns it raised (with their old values),
// the object frontier it dominated, and the arcs it actually inserted.
// That makes removal exact and proportional to what changed:
// RemoveTransactionExact removes the victim and the operations that depend
// on it in place and re-admits only those dependents, and Truncate drops
// settled transactions in place. After either, the state is bit-identical
// (StateDigest) to a fresh checker fed feed_log() — differentially tested
// by tests/fault_test.cc and tests/rollback_differential_test.cc.
//
// Decisions are reported as AdmitResult (core/admit.h): kAccept commits
// the arcs, and kReject leaves the state unchanged and carries the
// witnessing arc.
#ifndef RELSER_CORE_ONLINE_H_
#define RELSER_CORE_ONLINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/admit.h"
#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "spec/atomicity_spec.h"

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

  /// Always kRetry, with the checker unchanged: TryAppend is the only
  /// admission path. Kept because the benchmark's replica calls it.
  AdmitResult TryAppendIsolated(const Operation& op) {
    return AdmitResult::Retry(op.txn);
  }

  /// Exact abort: forgets every fed operation of `txn`. Its dependents
  /// are the later operations that descend from one of `txn`'s through
  /// conflicts or program order (those whose ancestor row carries a
  /// nonzero `txn` column); in each transaction they are a suffix. The
  /// victim's operations and the dependents leave in place, with the
  /// arcs their undo records inserted; every other operation keeps its
  /// row, arcs and relative feed order. The dependents are then silently
  /// re-admitted at the end of the feed, in their original order — every
  /// one re-admits, because no operation they move past conflicts with
  /// them or precedes them in program order, so the new feed's RSG is a
  /// subgraph of the original acyclic graph. feed_log() afterwards is
  /// the old feed minus the victim and its dependents, followed by the
  /// dependents, and the state is bit-identical (StateDigest) to a fresh
  /// checker fed it. One pass over the feed since the victim started
  /// finds the dependents; the removed records stay in the undo log,
  /// counted dead, until dead entries reach live ones and one pass moves
  /// the live records down. No other operation is undone or re-admitted.
  /// Counters: rejections() is preserved;
  /// arcs_submitted()/arcs_inserted_total() keep counting through the
  /// re-admission (they meter topology traffic, which it genuinely
  /// performs), and replayed_ops() grows by the dependents
  /// re-admitted.
  void RemoveTransactionExact(TxnId txn);

  /// Epoch-driven truncation (checkpoint): forgets every fed operation
  /// whose transaction has settled per `settled` (one atomic byte per
  /// transaction, epoch/epoch.h's view; read with relaxed loads). Works
  /// in place and re-admits nothing: it isolates the settled nodes,
  /// zeroes the settled columns of the retained rows, filters the
  /// settled operations out of the object frontiers and feed_log(), and
  /// counts their undo records dead. Survivors' undo records keep their
  /// entries that name a settled operation or column; the abort skips
  /// them, by one byte per truncated operation. Settledness is
  /// predecessor-closed, so no survivor's row, arc or frontier
  /// membership depends on a settled operation, and the result is
  /// bit-identical (StateDigest) to a fresh checker fed only the
  /// survivors (docs/hotpath.md gives the proof; the GC differential
  /// tests check decisions bit-for-bit). A truncated transaction is never
  /// fed again. Returns the number of feed entries dropped (0 = no
  /// settled history, state untouched).
  std::size_t Truncate(const std::atomic<std::uint8_t>* settled);

  /// Retained-state gauges for long-lived memory accounting
  /// (bench_longlived): accepted operations currently remembered, and
  /// ancestor-row slots ever handed out (slots are recycled but never
  /// returned, so this is the pool's high water mark; the blocks behind
  /// it hold this many rows rounded up to a whole block).
  std::size_t retained_ops() const { return feed_log_.size(); }
  std::size_t pool_rows() const { return slot_owner_.size(); }
  /// Always 0. Kept because the benchmark's `checker.memo_entries_hw`
  /// column reads it.
  std::size_t memo_entries() const { return 0; }

  /// Cumulative operations re-admitted by RemoveTransactionExact (each
  /// victim's dependents outside the victim). Truncate never adds to it.
  std::size_t replayed_ops() const { return replayed_ops_; }

  /// Cumulative undo-log entries that died with a truncated or removed
  /// operation's record, and cumulative live entries the log's
  /// compaction moved to a new place. Compaction runs only once dead
  /// entries reach live ones, so moved never exceeds died.
  std::size_t undo_entries_died() const { return undo_entries_died_; }
  std::size_t undo_entries_moved() const { return undo_entries_moved_; }

  /// Order-insensitive FNV-1a digest of the complete admission state:
  /// executed set, newest-op table, per-object frontiers (objects with
  /// no executed operation count as absent), retained ancestor rows and
  /// graph adjacency. Two checkers over the same TransactionSet/spec
  /// digest equal iff their future accept/reject behavior is identical
  /// state-wise; the fault-injection tests compare
  /// post-RemoveTransactionExact digests against rebuilt-from-scratch
  /// checkers.
  std::uint64_t StateDigest() const;

  /// True while any operation of `txn` is currently executed (fed and
  /// not removed).
  bool TxnHasExecuted(TxnId txn) const { return newest_gid_[txn] != kNoGid; }

  /// The transactions of the last accepted operation's direct-conflict
  /// (D-arc) sources: the foreign members of its object's conflict
  /// frontier just before the append — the frontier writer first, then,
  /// for a write, the readers since it in feed order (one entry per
  /// operation). Empty exactly when the operation met no foreign
  /// conflict, the case in which TryAppend skips its compare pass. Valid
  /// until the next call that feeds, removes or truncates; unspecified
  /// after a rejection.
  const std::vector<TxnId>& last_conflicts() const { return conflict_txns_; }

  /// Global id of the frontier writer (last executed, still-present
  /// write) of `object`, or kNoOp when none, including for an object
  /// untouched or past the transaction set's object_count().
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
  /// Cumulative B-arcs left out of accepted appends because the graph
  /// already implied them (docs/hotpath.md, Lemma 4). Like
  /// arcs_submitted(), it keeps counting through an abort's
  /// re-admission.
  std::size_t b_arcs_implied() const { return b_arcs_implied_; }

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

  /// Conflict frontier of one object (empty until its first executed
  /// operation).
  struct ObjState {
    std::vector<std::size_t> readers;  // reads since last_writer, feed order
    std::size_t last_writer = kNoGid;
  };

  /// Entries [begin, end) of one undo arena. Offsets are 32-bit;
  /// CommitOp checks that every arena stays below 2^32 entries.
  struct UndoSpan {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t size() const { return end - begin; }
  };

  /// Undo record of one accepted operation: its entries in the three
  /// undo arenas.
  struct UndoRecord {
    UndoSpan deltas;    // undo_deltas_: row columns it raised
    UndoSpan arcs;      // undo_arcs_: arcs it inserted
    UndoSpan frontier;  // undo_frontier_: frontier a write dominated
  };
  static_assert(sizeof(UndoRecord) == 24);

  /// A column an operation's row raised over its predecessor's row.
  struct ColumnDelta {
    std::uint32_t column;
    AncestorColumn old_p1;  // the predecessor row's value
  };

  /// An arc an operation inserted, as two global ids; the constructor
  /// checks that every global id fits in 32 bits.
  using UndoArc = std::pair<std::uint32_t, std::uint32_t>;

  /// Rule R1 (docs/hotpath.md, Lemma 4) for the B-arc of raised column
  /// `i` of the append of `op`, whose newest ancestor there is
  /// `o_{i, u_p1 - 1}` and whose B-target is `o_{j, pulled_i}`: true
  /// when a frontier predecessor q in another raised transaction k has
  /// that ancestor and k's B-target is no later, so the path
  /// `(i, u) ->* q ->* (k, u_k) -> (j, pulled_k) ->* (j, pulled_i)`
  /// exists once this append's arcs are in. Fills pred_pull_ lazily.
  bool BArcImplied(const Operation& op, TxnId i, std::uint32_t u_p1,
                   std::uint32_t pulled_i, const AncestorColumn* prev,
                   std::size_t raised_count);

  std::uint32_t AcquireSlot(std::size_t gid);
  /// The ancestor row of pool slot `slot`: txn_count_ columns.
  AncestorColumn* Row(std::uint32_t slot) {
    return &row_blocks_[slot / kRowsPerBlock]
                       [(slot % kRowsPerBlock) * txn_count_];
  }
  const AncestorColumn* Row(std::uint32_t slot) const {
    return &row_blocks_[slot / kRowsPerBlock]
                       [(slot % kRowsPerBlock) * txn_count_];
  }
  void ReleaseSlotIfAny(std::size_t gid);
  /// TryAppend's commit tail: persists scratch_anc_ into the slot pool,
  /// updates retention flags, the object frontier and executed
  /// bookkeeping, and pushes the undo record whose deltas and arcs begin
  /// at the given offsets.
  void CommitOp(const Operation& op, std::size_t gid,
                std::size_t deltas_begin, std::size_t arcs_begin);
  /// Gives `gid` its ancestor row back if it was released: its
  /// transaction's newest row with the deltas of the later operations
  /// reverted (rows are cumulative along program order).
  void RestoreRow(std::size_t gid);
  /// Counts the entries of `record` dead.
  void KillRecord(const UndoRecord& record);
  /// Once dead undo entries reach live ones, moves every live record
  /// down whole, in feed_log() order, over the dead entries.
  void MaybeCompactUndo();

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::size_t txn_count_;

  std::vector<std::uint8_t> executed_;
  std::vector<std::uint8_t> flags_;        // retention flags per gid
  std::vector<std::uint32_t> slot_of_;     // gid -> pool slot (kNoSlot)
  std::vector<std::size_t> newest_gid_;    // txn -> newest executed gid

  // Ancestor-row pool: row `slot` (Row) holds txn_count_ +1-encoded
  // maximum ancestor indices (0 = no ancestor in that transaction), 16
  // bits each: an index never leaves its transaction, and kMaxTxnOps
  // bounds every transaction's length. Rows are retained only for
  // operations that can still become direct predecessors: the newest
  // executed op of each transaction and the current object frontiers.
  // The F/B scan reads and writes about four rows per append, so the row
  // width is its memory traffic.
  //
  // Rows live in fixed blocks of kRowsPerBlock, allocated as slot
  // numbers first cross into them and never moved, resized or freed
  // before the checker. A block is allocated uninitialized. That is
  // safe because every slot is fully written before any read: a slot is
  // read only while it has an owner, and AcquireSlot's only callers,
  // CommitOp and RestoreRow, copy a whole row into it at once. Truncate
  // and StateDigest visit owned slots only.
  static constexpr std::size_t kRowsPerBlock = 64;
  std::vector<std::unique_ptr<AncestorColumn[]>> row_blocks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> slot_owner_;  // slot -> gid (kNoGid when free)

  // ObjectId -> conflict frontier, one entry per object of the
  // transaction set (its ids are dense: 0..object_count()-1).
  std::vector<ObjState> objects_;

  std::vector<std::size_t> feed_log_;  // accepted gids, admission order
  std::vector<std::uint32_t> pos_of_;  // gid -> its feed_log_ position
  // Undo log, record k belonging to feed_log_[k] and compacted with it.
  // Each record names its own entries, so the arenas need no compaction
  // when records leave: live records sit in the arenas in feed_log_
  // order, and a truncated or removed record's entries stay where they
  // are, counted in undo_dead_, until MaybeCompactUndo moves the live
  // ones down.
  std::vector<UndoRecord> undo_log_;
  std::vector<ColumnDelta> undo_deltas_;
  std::vector<UndoArc> undo_arcs_;
  // Per write: the dominated last writer (kNoGid when none), then readers.
  std::vector<std::size_t> undo_frontier_;
  std::size_t undo_dead_ = 0;
  // gid -> truncated. A survivor's record may still name a truncated
  // operation or column; its readers skip those entries.
  std::vector<std::uint8_t> truncated_;

  // Reusable per-append scratch (no steady-state allocations).
  std::vector<AncestorColumn> scratch_anc_;
  std::vector<AncestorColumn> zero_row_;  // predecessor row of a first op
  std::vector<TxnId> raised_buf_;  // columns the append raised, ascending
  std::vector<std::size_t> pred_buf_;
  std::vector<TxnId> conflict_txns_;  // last_conflicts(), parallel to pred_buf_
  // Parallel to pred_buf_: PullBackward(j, k, op.index) of each
  // predecessor's transaction k, kNoPull until BArcImplied needs it.
  static constexpr std::uint32_t kNoPull = ~static_cast<std::uint32_t>(0);
  std::vector<std::uint32_t> pred_pull_;
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<std::uint8_t> arc_kind_buf_;  // parallel to arc_buf_ (tracing)
  // RemoveTransactionExact / Truncate scratch.
  std::vector<std::size_t> replay_;
  std::vector<TxnId> drop_txns_;
  std::vector<NodeId> drop_nodes_;
  std::vector<std::uint8_t> drop_mark_;  // gid -> removed by this abort

  std::size_t replayed_ops_ = 0;
  std::size_t undo_entries_died_ = 0;
  std::size_t undo_entries_moved_ = 0;
  std::size_t rejections_ = 0;
  std::size_t arcs_submitted_ = 0;
  std::size_t arcs_inserted_total_ = 0;
  std::size_t b_arcs_implied_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace relser

#endif  // RELSER_CORE_ONLINE_H_
