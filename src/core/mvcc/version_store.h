// Per-object snapshot-read state: what the snapshot-read fast path
// classifies from.
//
// The single-version construction (Definition 3) runs every operation —
// including pure reads — through the checker, so read-only transactions
// serialize through the same Pearce–Kelly hot path as writers. The
// snapshot layer keeps one piece of *monotone* shared state per object —
// the count of not-yet-finished static writers — plus a commit counter,
// and admits a read-only transaction entirely from the committed
// snapshot when that count has drained to zero for every object it
// reads. No committed versions are kept: classification reads only the
// counters and the watermark, so nothing asks which version a reader
// sees.
//
// Admissibility criterion (conservative, see docs/mvcc.md):
//
//   A read-only transaction R is *snapshot-admissible* iff every
//   transaction in the workload whose write set intersects read(R) has
//   finished (committed or aborted) at classification time.
//
// Soundness sketch: conflicts only pair R's reads with *finished* writes,
// and every RSG arc such a conflict induces (Definition 3 rules 2–4:
// D-arc u→v, F-arc PushForward(u,txn(v))→v, B-arc u→PullBackward(v,
// txn(u))) points from the writer's transaction *into* R — R's only
// outgoing arcs are its internal I-arcs. Appending R at its watermark
// position therefore can never close an RSG cycle, for *any* atomicity
// specification, so R admits with exactly zero cross-transaction arcs
// and zero cycle-check work. This is strictly conservative relative to
// brute-force multiversion admissibility (tests/mvcc_test.cc runs the
// differential); the robustness line of Vandevoort/Ketsman/Neven
// (arXiv 2403.17665) is the roadmap for admitting reads *over* live
// writers, which this criterion never attempts.
//
// Concurrency contract:
//   * Construction precomputes per-transaction read/write object lists
//     and per-object static-writer counts from the upfront
//     TransactionSet; after that, classification (`IsReadOnly` +
//     `ReadSetSettled` + `watermark`) is lock-free — clients race freely
//     against committing cores.
//   * `NoteCommit` / `NoteAbort` are called by admission cores (any
//     thread), at most once per transaction (idempotent via a finished
//     flag) and take no lock. The unfinished-writer decrement is the
//     release edge the classifying reader acquires: once a reader
//     observes zero for all its objects, every such writer's commit
//     count is visible and is <= the watermark the reader subsequently
//     loads.
#ifndef RELSER_CORE_MVCC_VERSION_STORE_H_
#define RELSER_CORE_MVCC_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "model/transaction.h"

namespace relser {

/// One snapshot admission, as logged by the admitting client.
struct SnapshotAdmitRecord {
  TxnId txn = 0;
  /// Committed watermark at admission: the reader sees exactly the first
  /// `epoch` commits, and belongs immediately after commit #epoch in any
  /// equivalent single-version history.
  std::uint64_t epoch = 0;
  /// Caller-supplied total-order stamp (admission stamp in the sharded
  /// admitter, a private sequence elsewhere) used to splice the reader
  /// into the merged committed log.
  std::uint64_t stamp = 0;
};

class VersionStore {
 public:
  explicit VersionStore(const TransactionSet& txns);

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// True iff the transaction's program contains no writes.
  bool IsReadOnly(TxnId txn) const { return read_only_[txn] != 0; }

  /// True iff every static writer of every object `txn` reads has
  /// finished. Monotone: once true it stays true. Lock-free.
  bool ReadSetSettled(TxnId txn) const;

  /// Number of committed transactions so far: a snapshot reader
  /// admitted at watermark w sees exactly the first w commits.
  std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Records `txn`'s commit: bumps the watermark, then release-decrements
  /// the unfinished-writer counters. Idempotent; lock-free.
  void NoteCommit(TxnId txn);

  /// Records `txn`'s abort: release-decrements its write set's
  /// unfinished-writer counters (an aborted writer is never visible, so
  /// readers need not wait on it). Idempotent; lock-free.
  void NoteAbort(TxnId txn);

  /// Logs a snapshot admission (thread-safe) and bumps snapshot_admits.
  void LogSnapshotAdmit(TxnId txn, std::uint64_t epoch, std::uint64_t stamp);

  /// Copy of the admit log, ordered by stamp.
  std::vector<SnapshotAdmitRecord> SnapshotAdmits() const;

  /// Counts a read-only transaction that failed classification exactly
  /// once; returns true the first time it is called for `txn` (the
  /// caller then routes the transaction through the checker).
  bool TryCountEscalation(TxnId txn);

  std::uint64_t snapshot_admits() const {
    return snapshot_admits_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_escalations() const {
    return snapshot_escalations_.load(std::memory_order_relaxed);
  }

  /// Relaxed peek at an object's unfinished static-writer count (tests).
  std::uint32_t UnfinishedWriters(ObjectId object) const {
    return unfinished_writers_[object].load(std::memory_order_relaxed);
  }

 private:
  // Flattened unique object lists: txn t's entries are
  // flat[offsets[t] .. offsets[t+1]).
  struct FlatLists {
    std::vector<std::uint32_t> offsets;
    std::vector<ObjectId> flat;
  };
  static void Append(FlatLists* lists, const std::vector<ObjectId>& objs);

  std::vector<std::uint8_t> read_only_;
  FlatLists reads_;
  FlatLists writes_;

  std::vector<std::atomic<std::uint32_t>> unfinished_writers_;
  std::atomic<std::uint64_t> watermark_{0};
  std::vector<std::atomic<std::uint8_t>> finished_;
  std::vector<std::atomic<std::uint8_t>> escalated_;

  mutable std::mutex log_mutex_;
  std::vector<SnapshotAdmitRecord> admit_log_;
  std::atomic<std::uint64_t> snapshot_admits_{0};
  std::atomic<std::uint64_t> snapshot_escalations_{0};
};

}  // namespace relser

#endif  // RELSER_CORE_MVCC_VERSION_STORE_H_
