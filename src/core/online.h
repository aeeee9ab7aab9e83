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
// since it), per operation a dense per-transaction maximum-ancestor-index
// array drawn from a reusable pool, and per transaction pair a memo of
// the furthest F/B arcs already emitted (a dense txn_count x txn_count
// array; row j, indexed by i, holds the pairs Ti -> Tj). Dominated arcs
// are never inserted; docs/hotpath.md proves the transitive closure — and
// therefore every accept/reject decision — is bit-identical to the full
// emission.
// Two abort paths exist. RemoveTransaction is the fast incremental one:
// the ancestor arrays are rebuilt as a sound over-approximation (see
// RemoveTransaction below), mirroring the baseline's documented
// post-abort behavior. RemoveTransactionExact is the exact one the
// admitter's abort/cascade machinery uses: it replays the surviving
// feed through a full reset, so the post-abort state is
// bit-identical (StateDigest) to a checker that never saw the aborted
// transaction — differentially tested by tests/fault_test.cc.
//
// Decisions are reported as AdmitResult (core/admit.h): kAccept commits
// the arcs, kReject leaves the state unchanged and carries the
// witnessing arc, and TryAppendIsolated's kRetry means "ineligible for
// the fast path, fall back to TryAppend".
#ifndef RELSER_CORE_ONLINE_H_
#define RELSER_CORE_ONLINE_H_

#include <atomic>
#include <cstdint>
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
  /// `txns` and `spec` must outlive the checker.
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
  /// F/B memo scan is skipped entirely. Returns kRetry — with the
  /// checker unchanged — when the preconditions do not hold; the caller
  /// then falls back to the full TryAppend. Never rejects. Same feeding
  /// contract as TryAppend (next unfed op, program order).
  AdmitResult TryAppendIsolated(const Operation& op);

  /// True while no cross-transaction arc has ever been incident on a
  /// node of `txn` (the TryAppendIsolated eligibility bit).
  bool TxnIsolated(TxnId txn) const { return safe_[txn] != 0; }

  /// Forgets every fed operation of `txn` (scheduler abort). Incremental:
  /// isolates the transaction's nodes — inserting pred->succ bypass arcs
  /// first, so every closure path between survivors that routed through a
  /// removed node is preserved — scrubs its column from the retained
  /// ancestor arrays, zeroes its row and column of the F/B memo (so
  /// memo_entries() drops by exactly its pairs), and rebuilds the
  /// conflict frontier of only the objects the transaction touched
  /// (reverse index). Frontier members whose ancestor arrays were
  /// released are resurrected from the newest retained array of their
  /// transaction — a superset of their true ancestors. Post-abort
  /// admission is therefore a sound over-approximation (may reject a
  /// schedule the full graph would accept, never the converse), matching
  /// the baseline's stale-bit behavior in spirit; docs/hotpath.md gives
  /// the argument.
  void RemoveTransaction(TxnId txn);

  /// Exact abort: forgets every fed operation of `txn` and restores the
  /// checker to the state of a fresh checker fed the surviving feed (the
  /// accepted operations, in their original admission order, minus
  /// `txn`'s). Implemented as a full internal reset plus a silent replay
  /// of the survivors — every surviving operation re-admits, because the
  /// survivor-restricted RSG is a subgraph of the original acyclic
  /// graph. O(history) instead of RemoveTransaction's O(touched), but
  /// bit-identical (StateDigest) to recompute-from-scratch: no
  /// over-approximation, no stale safe bits, no widened memos. This is
  /// the abort path ShardedAdmitter uses, so repeated abort/cascade
  /// storms cannot accumulate conservatism. Counters: rejections() is
  /// preserved; arcs_submitted()/arcs_inserted_total() keep counting
  /// through the replay (they meter topology traffic, which the replay
  /// genuinely performs).
  void RemoveTransactionExact(TxnId txn);

  /// Epoch-driven truncation (checkpoint): forgets every fed operation
  /// whose transaction has settled per `settled` (one atomic byte per
  /// transaction, epoch/epoch.h's view; read with relaxed loads). Like
  /// RemoveTransactionExact this is a full reset plus a silent replay of
  /// the surviving (unsettled) feed, so the result is bit-identical
  /// (StateDigest) to a fresh checker fed only the survivors. Soundness:
  /// a settled transaction is finished and frontier-unreachable, so (a)
  /// it never appends again — its cleared executed_ bits are never
  /// re-fed — and (b) no future operation can acquire an arc to or from
  /// its nodes: its ops have left every conflict frontier reachable by
  /// live transactions, and the F/B memo rows that could re-emit arcs
  /// from it require a D-arc ancestor entry that no live frontier can
  /// produce any more. Dropping its rows therefore never changes a
  /// future accept/reject decision or witness (the GC differential test
  /// checks this bit-for-bit). Returns the number of feed entries
  /// dropped (0 = no settled history, state untouched).
  std::size_t Truncate(const std::atomic<std::uint8_t>* settled);

  /// Retained-state gauges for long-lived memory accounting
  /// (bench_longlived): accepted operations currently remembered,
  /// ancestor-array pool rows allocated, and F/B memo entries.
  std::size_t retained_ops() const { return feed_log_.size(); }
  std::size_t pool_rows() const { return slot_owner_.size(); }
  std::size_t memo_entries() const { return memo_live_; }

  /// Order-insensitive FNV-1a digest of the complete admission state:
  /// executed set, safe bits, newest-op table, per-object frontiers,
  /// retained ancestor arrays, F/B memo and graph adjacency. Two
  /// checkers over the same TransactionSet/spec digest equal iff their
  /// future accept/reject behavior is identical state-wise; the
  /// fault-injection tests compare post-RemoveTransactionExact digests
  /// against rebuilt-from-scratch checkers.
  std::uint64_t StateDigest() const;

  /// True while any operation of `txn` is currently executed (fed and
  /// not removed).
  bool TxnHasExecuted(TxnId txn) const { return newest_gid_[txn] != kNoGid; }

  /// Global id of the frontier writer (last executed, still-present
  /// write) of `object`, or kNoOp when none / object untouched. Lets the
  /// admitter rebuild its reads-from bookkeeping after an abort.
  static constexpr std::size_t kNoOp = ~static_cast<std::size_t>(0);
  std::size_t FrontierWriterGid(ObjectId object) const;

  /// Appends the global ids of `object`'s frontier readers (executed
  /// reads since the frontier writer, feed order) to `out`. Together
  /// with FrontierWriterGid this is the complete conflict frontier —
  /// the sharded admitter rebuilds its per-object conflict-arc
  /// bookkeeping from it after an abort.
  void FrontierReaders(ObjectId object, std::vector<std::size_t>* out) const;

  /// The accepted operations still present, as global ids in admission
  /// order (the "surviving feed" RemoveTransactionExact replays).
  const std::vector<std::size_t>& feed_log() const { return feed_log_; }

  /// True iff o_{txn,index} has been fed and accepted.
  bool Executed(TxnId txn, std::uint32_t index) const {
    return executed_[indexer_.GlobalId(txn, index)] != 0;
  }

  /// Number of operations currently accepted.
  std::size_t executed_count() const { return executed_count_; }

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

  /// Conflict frontier and executed-op list of one object.
  struct ObjState {
    std::vector<std::size_t> ops;      // executed gids, feed order
    std::vector<std::size_t> readers;  // reads since last_writer, feed order
    std::size_t last_writer = kNoGid;
  };

  /// Furthest F/B emission already performed for a (Ti -> Tj) pair; all
  /// zero while the pair has none. RemoveTransaction zeroes every pair
  /// involving the removed transaction.
  struct MemoEntry {
    std::uint32_t u_max_p1 = 0;  // +1-encoded max ancestor index in Ti
    std::uint32_t pf_p1 = 0;     // +1-encoded furthest PushForward emitted
  };

  struct PendingMemo {
    std::size_t key;
    MemoEntry entry;
  };

  /// Slot of pair (Ti -> Tj) in memo_: row j, column i.
  std::size_t MemoKey(TxnId i, TxnId j) const {
    return static_cast<std::size_t>(j) * txn_count_ + i;
  }
  /// Zeroes row `txn` and column `txn` of the memo.
  void ClearMemoPairsOf(TxnId txn);

  std::uint32_t ObjIndex(ObjectId object);
  std::uint32_t AcquireSlot(std::size_t gid);
  void ReleaseSlotIfAny(std::size_t gid);
  /// Shared commit tail of TryAppend / TryAppendIsolated: persists
  /// scratch_anc_ into the slot pool and updates retention flags, the
  /// object frontier, reverse indices and executed bookkeeping.
  void CommitOp(const Operation& op, std::size_t gid, std::uint32_t obj_idx);
  /// Re-flags `gid` as frontier; if its ancestor array was released,
  /// resurrects it from the newest retained array of its transaction.
  void RetainFrontier(std::size_t gid);
  void RebuildFrontier(ObjState& state);

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::size_t txn_count_;

  std::vector<std::uint8_t> executed_;
  std::vector<std::uint8_t> safe_;         // txn -> isolated bit (fast path)
  std::vector<std::uint8_t> flags_;        // retention flags per gid
  std::vector<std::uint32_t> slot_of_;     // gid -> pool slot (kNoSlot)
  std::vector<std::size_t> newest_gid_;    // txn -> newest executed gid

  // Ancestor-array pool: row `slot` holds txn_count_ +1-encoded maximum
  // ancestor indices (0 = no ancestor in that transaction). Rows are
  // retained only for operations that can still become direct
  // predecessors: the newest executed op of each transaction and the
  // current object frontiers.
  std::vector<std::uint32_t> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> slot_owner_;  // slot -> gid (kNoGid when free)

  FlatMap64<std::uint32_t> object_index_;  // ObjectId -> objects_ index
  std::vector<ObjState> objects_;
  std::vector<std::vector<std::uint32_t>> txn_objects_;  // reverse index
  std::vector<std::uint64_t> obj_stamp_;  // abort-scrub dedup stamps
  std::uint64_t obj_gen_ = 0;

  std::vector<MemoEntry> memo_;  // txn_count_^2, slot MemoKey(i, j)
  std::size_t memo_live_ = 0;    // pairs with u_max_p1 != 0

  // Reusable per-append scratch (no steady-state allocations).
  std::vector<std::uint32_t> scratch_anc_;
  std::vector<std::size_t> pred_buf_;
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<std::uint8_t> arc_kind_buf_;  // parallel to arc_buf_ (tracing)
  std::vector<PendingMemo> pending_memos_;
  std::vector<std::size_t> rebuild_reads_;  // RebuildFrontier scratch
  std::vector<NodeId> bypass_in_;           // RemoveTransaction scratch
  std::vector<NodeId> bypass_out_;
  std::vector<std::size_t> feed_log_;     // accepted gids, admission order
  std::vector<std::size_t> replay_feed_;  // reset-and-replay scratch

  /// Shared tail of RemoveTransactionExact / Truncate: resets every
  /// piece of admission state and silently replays `replay_feed_`.
  void ResetAndReplay();

  std::size_t executed_count_ = 0;
  std::size_t rejections_ = 0;
  std::size_t arcs_submitted_ = 0;
  std::size_t arcs_inserted_total_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace relser

#endif  // RELSER_CORE_ONLINE_H_
