// EpochManager: the stable-prefix watermark authority behind every
// garbage-collection consumer (coordinator arc GC, checker truncation,
// and the router swaps a caller makes at a quiescent cut).
//
// A transaction is *settled* when no future RSG arc can be incident on
// it in either direction. Two facts make that decidable online:
//
//   1. Incoming arcs freeze at finish. Every cross-transaction arc of
//      Definition 3 — the D-arc u -> v, the F-arc
//      PushForward(u, txn(v)) -> v and the B-arc
//      u -> PullBackward(v, txn(u)) — targets an operation of the
//      transaction currently appending (txn(v)). A finished transaction
//      never appends again, so its predecessor set is final.
//   2. Cycles cannot enter a predecessor-closed region. Take any set S
//      of finished transactions that is closed under predecessors
//      (every transaction with an arc into S is itself in S). A future
//      cycle must pass through the currently-appending transaction v
//      (the graph is kept acyclic, so any new cycle uses an arc into
//      v), and v is unfinished, hence outside S; entering S from
//      outside would require an arc from a non-member into S, which
//      closure forbids. So no cycle can ever route through S — every
//      arc *out of* S is dead weight and can be reclaimed, along with
//      S's checker rows and coordinator arcs.
//
// The settled set is therefore the *greatest* predecessor-closed set of
// finished transactions: the complement of everything forward-reachable
// from an unfinished transaction over the transaction-level dependency
// graph. Note the per-transaction "all my predecessors are settled"
// least-fixpoint is NOT enough: committed transaction-level dependency
// cycles (T1 -> T2 -> T1 through different objects) are exactly what
// relative serializability admits (Figure 1), and the members of such a
// cycle only settle *together*, once nothing unfinished reaches them.
// SweepLocked computes the reachable set from scratch per sweep —
// O(unsettled + their arcs), amortized across `gc_interval` finishes.
//
// Feeding contract (mirrors the admitters):
//   * NoteDep(from, to): a conflict arc from -> to was created while
//     `to` was appending. Call for every direct-conflict pair handed to
//     the checker or coordinator. Duplicate and settled-source reports
//     are absorbed.
//   * NoteFinish(txn): `txn` reached a terminal state — committed, or
//     aborted with its removal/tombstoning fully applied everywhere.
//     Every `gc_interval`-th finish triggers a sweep; each sweep that
//     settles something bumps gc_generation, which consumers poll as
//     their collection doorbell.
//
// Thread safety: one mutex serializes NoteDep/NoteFinish/Sweep (shard
// cores and client threads call concurrently). The settled view is an
// atomic byte per transaction, readable lock-free: the flag is monotone
// (0 -> 1, never back) and publishes a logical fact that was already
// true when set, so relaxed loads are sound.
#ifndef RELSER_EPOCH_EPOCH_H_
#define RELSER_EPOCH_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "model/operation.h"

namespace relser {

/// Tracks the stable-prefix watermark over a fixed transaction universe.
class EpochManager {
 public:
  /// `gc_interval` is the number of NoteFinish calls between automatic
  /// sweeps (0 means "never sweep automatically"; call Sweep yourself).
  explicit EpochManager(std::size_t txn_count, std::uint32_t gc_interval = 64);

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Records the transaction-level dependency arc from -> to. Ignored
  /// when from == to or the source has settled (its outgoing arcs can
  /// never lie on a cycle again). Duplicates are deduplicated.
  void NoteDep(TxnId from, TxnId to);

  /// NoteDep(from, to) for every `from` in `froms` (one lock).
  void NoteDeps(const std::vector<TxnId>& froms, TxnId to);

  /// Records that `txn` reached a terminal, fully-resolved state.
  /// Idempotent. Triggers a sweep every `gc_interval` finishes.
  void NoteFinish(TxnId txn);

  /// Recomputes the settled set immediately (also called automatically
  /// every `gc_interval` finishes). Returns how many transactions
  /// settled in this sweep.
  std::size_t Sweep();

  /// Lock-free settled test (relaxed load; the flag is monotone).
  bool Settled(TxnId txn) const {
    return settled_[txn].load(std::memory_order_relaxed) != 0;
  }

  /// The raw settled-flag array, one atomic byte per transaction —
  /// what checkers/coordinator/admitters consume during truncation and
  /// GC without taking the manager's lock.
  const std::atomic<std::uint8_t>* settled_view() const {
    return settled_.get();
  }

  /// Stable-prefix watermark: the lowest transaction id that has NOT
  /// settled (== txn_count when everything has). Every id below it is
  /// settled, so any consumer keyed by id ranges may reclaim [0, W).
  TxnId watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Bumped by every sweep that settles at least one transaction; the
  /// GC doorbell consumers compare against their last-seen value.
  std::uint64_t gc_generation() const {
    return gc_generation_.load(std::memory_order_acquire);
  }

  std::size_t txn_count() const { return txn_count_; }
  /// Transactions settled so far.
  std::uint64_t settled_count() const {
    return settled_count_.load(std::memory_order_relaxed);
  }
  /// NoteFinish calls that marked a new transaction finished.
  std::uint64_t finished_count() const {
    return finished_count_.load(std::memory_order_relaxed);
  }
  /// Sweeps that advanced the settled set (the `epochs_advanced`
  /// observability counter).
  std::uint64_t epochs_advanced() const {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }
  /// Live dependency arcs currently retained (unsettled sources only).
  std::size_t dep_arcs_live() const;

 private:
  void NoteDepLocked(TxnId from, TxnId to);
  std::size_t SweepLocked();

  mutable std::mutex mu_;
  std::size_t txn_count_;
  std::uint32_t gc_interval_;
  // Out-edge lists of the transaction-level dependency graph, sorted
  // for O(log d) duplicate detection; freed wholesale when the source
  // settles (arcs into settled targets come only from settled sources,
  // so freeing by source reclaims everything).
  std::vector<std::vector<TxnId>> succs_;
  std::vector<std::uint8_t> finished_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> settled_;
  // Sweep scratch: generation-stamped visited marks + DFS stack.
  std::vector<std::uint32_t> visit_stamp_;
  std::uint32_t visit_gen_ = 0;
  std::vector<TxnId> sweep_stack_;
  std::uint32_t finishes_since_sweep_ = 0;
  std::atomic<TxnId> watermark_{0};
  std::atomic<std::uint64_t> gc_generation_{0};
  std::atomic<std::uint64_t> settled_count_{0};
  std::atomic<std::uint64_t> finished_count_{0};
  std::atomic<std::uint64_t> epochs_advanced_{0};
};

}  // namespace relser

#endif  // RELSER_EPOCH_EPOCH_H_
