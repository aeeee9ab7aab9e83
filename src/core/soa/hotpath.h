// SoaRsrChecker: the structure-of-arrays admission hot path.
//
// A drop-in rewrite of OnlineRsrChecker::TryAppend around columnar state
// and word-parallel kernels (util/simd.h). The frontier-pruned algorithm
// is unchanged — same conflict frontiers, same memoized F/B emission,
// same IncrementalTopology — so every accept/reject decision and every
// witnessing arc is bit-identical to OnlineRsrChecker
// (tests/soa_differential_test.cc gates this per compiled SIMD tier).
// What changes is the data layout and the work done per operation:
//
//  * Ancestor arrays are rows of one flat pool, padded to a multiple of
//    64 lanes, with a parallel *column mask* row: one bit per
//    transaction column that is nonzero. Seeding, predecessor max-merge
//    and the commit store walk only the 64-lane blocks whose mask word
//    is nonzero (MaxU32 / memcpy per block) instead of all txn_count
//    lanes, so per-op cost tracks the live ancestor footprint, not the
//    transaction universe. Lanes outside a row's mask may hold stale
//    garbage; they are provably never read (the mask gates every read),
//    which is what lets commit skip the dead blocks.
//  * The F/B memo scan and the isolation-bit maintenance iterate set
//    bits of the scratch column mask (ascending, so arc emission order
//    matches the AoS checker exactly) instead of scanning every
//    transaction. The memo is the same dense row per transaction as the
//    AoS checker's.
//  * Cross-transaction "taint" (the complement of OnlineRsrChecker's
//    safe_ bits) is a DenseBitset updated by ORing the scratch mask in —
//    one word-parallel kernel call instead of a per-transaction loop.
//  * Per-object conflict frontiers are columns over the dense ObjectId
//    universe — last-writer gid, last-writer txn, and parallel
//    reader-gid/reader-txn arrays — so the frontier scan touches no
//    Operation records.
//
// Aborts: RemoveTransactionExact (reset + survivor replay, exactly as
// OnlineRsrChecker's) is supported; the incremental over-approximating
// RemoveTransaction is not — callers that need it keep using
// OnlineRsrChecker.
#ifndef RELSER_CORE_SOA_HOTPATH_H_
#define RELSER_CORE_SOA_HOTPATH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/admit.h"
#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "spec/atomicity_spec.h"
#include "util/bitset.h"

namespace relser {

class Tracer;

/// Columnar, SIMD-dispatched incremental relative-serializability
/// certification. Decision- and witness-identical to OnlineRsrChecker.
class SoaRsrChecker {
 public:
  /// `txns` and `spec` must outlive the checker.
  SoaRsrChecker(const TransactionSet& txns, const AtomicitySpec& spec);
  /// Guard against binding a temporary specification.
  SoaRsrChecker(const TransactionSet&, AtomicitySpec&&) = delete;

  /// Same contract as OnlineRsrChecker::TryAppend: `op` must be the next
  /// unfed operation of its transaction; kAccept commits the arcs,
  /// kReject leaves the state unchanged and names the witnessing arc.
  AdmitResult TryAppend(const Operation& op);

  /// Same contract as OnlineRsrChecker::TryAppendIsolated: guaranteed
  /// kAccept when the transaction is isolated and the object frontier is
  /// empty or owned by it; kRetry (state unchanged) otherwise. Never
  /// rejects.
  AdmitResult TryAppendIsolated(const Operation& op);

  /// True while no cross-transaction arc has ever been incident on a
  /// node of `txn`.
  bool TxnIsolated(TxnId txn) const { return !taint_.Test(txn); }

  /// Exact abort: resets every column and silently replays the surviving
  /// feed, identically to OnlineRsrChecker::RemoveTransactionExact.
  void RemoveTransactionExact(TxnId txn);

  /// Epoch-driven truncation: drops every fed operation whose
  /// transaction has settled per `settled` (epoch/epoch.h's view) via a
  /// full reset plus silent replay of the unsettled feed — the same
  /// contract and soundness argument as OnlineRsrChecker::Truncate.
  /// Returns the number of feed entries dropped.
  std::size_t Truncate(const std::atomic<std::uint8_t>* settled);

  /// Order-insensitive FNV-1a digest of the complete admission state
  /// (columnar layout: masked ancestor lanes only — stale lanes outside
  /// a row's mask are allocation history, not state). Comparable between
  /// SoaRsrCheckers over the same TransactionSet/spec; the truncation
  /// differential compares a truncated checker against a fresh one fed
  /// the surviving feed.
  std::uint64_t StateDigest() const;

  /// Retained-state gauges for long-lived memory accounting.
  std::size_t retained_ops() const { return feed_log_.size(); }
  std::size_t pool_rows() const { return slot_owner_.size(); }
  std::size_t memo_entries() const { return memo_live_; }

  /// True while any operation of `txn` is currently executed.
  bool TxnHasExecuted(TxnId txn) const { return newest_gid_[txn] != kNoGid; }

  static constexpr std::size_t kNoOp = ~static_cast<std::size_t>(0);
  /// Frontier writer gid of `object`, or kNoOp when none.
  std::size_t FrontierWriterGid(ObjectId object) const;
  /// Appends the frontier reader gids of `object` (feed order) to `out`.
  void FrontierReaders(ObjectId object, std::vector<std::size_t>* out) const;

  /// Accepted gids in admission order (the RemoveTransactionExact feed).
  const std::vector<std::size_t>& feed_log() const { return feed_log_; }

  /// True iff o_{txn,index} has been fed and accepted.
  bool Executed(TxnId txn, std::uint32_t index) const {
    return executed_[indexer_.GlobalId(txn, index)] != 0;
  }

  std::size_t executed_count() const { return executed_count_; }
  std::size_t rejections() const { return rejections_; }
  std::size_t arcs_submitted() const { return arcs_submitted_; }
  std::size_t arcs_inserted_total() const { return arcs_inserted_total_; }

  const IncrementalTopology& topology() const { return topo_; }
  const OpIndexer& indexer() const { return indexer_; }

  /// Attaches an observability collector (obs/trace.h); nullptr detaches.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Streams `schedule` through a fresh checker; returns the position of
  /// the first rejected operation, or schedule.size() when all accepted.
  static std::size_t FirstRejection(const TransactionSet& txns,
                                    const AtomicitySpec& spec,
                                    const Schedule& schedule);

 private:
  static constexpr std::size_t kNoGid = ~static_cast<std::size_t>(0);
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);
  static constexpr std::uint32_t kNoTxn = ~static_cast<std::uint32_t>(0);
  static constexpr std::uint8_t kNewestFlag = 1;
  static constexpr std::uint8_t kFrontierFlag = 2;

  /// Furthest F/B emission already performed for a (Ti -> Tj) pair; all
  /// zero while the pair has none. The only invalidation is the reset in
  /// RemoveTransactionExact / Truncate, which empties the whole memo.
  struct MemoEntry {
    std::uint32_t u_max_p1 = 0;
    std::uint32_t pf_p1 = 0;
  };

  struct PendingMemo {
    std::size_t key;
    MemoEntry entry;
  };

  /// Slot of pair (Ti -> Tj) in memo_: row j, column i, so j's row is
  /// read in step with the ascending scratch-mask scan.
  std::size_t MemoKey(TxnId i, TxnId j) const {
    return static_cast<std::size_t>(j) * txn_count_ + i;
  }

  std::uint32_t AcquireSlot(std::size_t gid);
  void ReleaseSlotIfAny(std::size_t gid);
  /// Zeroes exactly the scratch blocks the previous append dirtied.
  void ClearScratch();
  /// scratch = pool row of `slot` (masked blocks copied, mask copied).
  void SeedFromRow(std::uint32_t slot);
  /// scratch = max(scratch, pool row of `slot`), block-wise by its mask.
  void MergeRowMax(std::uint32_t slot);
  /// scratch_anc_[t] = max(scratch_anc_[t], v); v must be nonzero.
  void RaiseLane(std::size_t t, std::uint32_t v) {
    if (v > scratch_anc_[t]) scratch_anc_[t] = v;
    scratch_mask_[t >> 6] |= (1ULL << (t & 63));
  }
  /// Shared commit tail: persists scratch into the slot pool, updates
  /// retention flags, the object frontier columns, and feed bookkeeping.
  void CommitOp(const Operation& op, std::size_t gid);
  /// Shared tail of RemoveTransactionExact / Truncate: resets every
  /// column and silently replays `replay_feed_`.
  void ResetAndReplay();

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::size_t txn_count_;
  std::size_t mask_words_;    // (txn_count_ + 63) / 64
  std::size_t row_stride_;    // mask_words_ * 64 padded lanes per row

  std::vector<std::uint8_t> executed_;
  DenseBitset taint_;                      // txn -> cross-arc seen
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::size_t> newest_gid_;

  // Ancestor pool: value rows (row_stride_ lanes) + column-mask rows
  // (mask_words_ words), parallel by slot.
  std::vector<std::uint32_t> pool_;
  std::vector<std::uint64_t> pool_mask_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> slot_owner_;

  // Per-object frontier columns over the dense ObjectId universe.
  // Readers are packed (txn << 32 | gid) into one vector per object so
  // frontier growth costs a single allocation stream, matching the AoS
  // checker's allocs/op (the ctor checks gids fit in 32 bits).
  static constexpr std::uint32_t kReaderGidBits = 32;
  static std::uint64_t PackReader(TxnId txn, std::size_t gid) {
    return (static_cast<std::uint64_t>(txn) << kReaderGidBits) |
           static_cast<std::uint64_t>(gid);
  }
  static std::size_t ReaderGid(std::uint64_t packed) {
    return static_cast<std::size_t>(packed & 0xFFFFFFFFu);
  }
  static TxnId ReaderTxn(std::uint64_t packed) {
    return static_cast<TxnId>(packed >> kReaderGidBits);
  }
  std::vector<std::size_t> obj_writer_;        // object -> writer gid
  std::vector<std::uint32_t> obj_writer_txn_;  // object -> writer txn
  std::vector<std::vector<std::uint64_t>> obj_readers_;

  std::vector<MemoEntry> memo_;  // txn_count_^2, slot MemoKey(i, j)
  std::size_t memo_live_ = 0;    // pairs with u_max_p1 != 0

  // Reusable per-append scratch.
  std::vector<std::uint32_t> scratch_anc_;   // row_stride_ lanes, mask-valid
  std::vector<std::uint64_t> scratch_mask_;  // nonzero-column bits
  std::vector<std::size_t> pred_buf_;
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<std::uint8_t> arc_kind_buf_;
  std::vector<PendingMemo> pending_memos_;
  std::vector<std::size_t> feed_log_;
  std::vector<std::size_t> replay_feed_;

  std::size_t executed_count_ = 0;
  std::size_t rejections_ = 0;
  std::size_t arcs_submitted_ = 0;
  std::size_t arcs_inserted_total_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace relser

#endif  // RELSER_CORE_SOA_HOTPATH_H_
