// CrossShardCoordinator: the transaction-level acyclicity authority of
// the sharded admission subsystem.
//
// Shard-local checkers certify their projected sub-schedules exactly
// (shard/projection.h), which catches every relative-serializability
// violation confined to one shard's resident transactions. What they
// cannot see is glue: a global RSG cycle that weaves through several
// shards, connected by the program-order (I/F/B) structure of
// multi-shard transactions. The coordinator closes that gap with a
// transaction-level graph, backed by the same IncrementalTopology
// (Pearce-Kelly) the op-level checkers use:
//
//   * Nodes are transactions.
//   * Shards mirror direct-conflict arcs Ti -> Tj into it — but only for
//     conflicts that can participate in cross-shard glue: arcs incident
//     to a multi-shard transaction, plus (by taint flooding, see
//     sched-side logic in shard/sharded_admitter.cc) arcs of any local
//     conflict component that such a transaction has touched.
//   * An arc batch that would put the ISSUER on a cycle is rejected; the
//     issuing transaction is aborted. Cycles that avoid the issuer are
//     phantoms of the transaction-level contraction — e.g. Figure 1's
//     committed dependency cycle T1 <-> T2 through different objects,
//     which relative serializability admits at the operation level —
//     and are ABSORBED: the strongly connected component is condensed
//     into one representative node (union-find), and the maintained
//     order stays a DAG over representatives. Only issuer cycles can
//     witness a real RSG cycle, because a real cycle is closed by the
//     newly admitted operation and so passes through the issuer (excise
//     repeated-vertex detours from the closed walk to get a simple
//     cycle through it).
//   * Arcs are DURABLE: aborting a transaction tombstones it (it can no
//     longer issue batches) but its arcs persist as conservative
//     ordering constraints. Scrubbing them would sever transaction-level
//     conflict paths that route through the aborted transaction — e.g.
//     the writer chain Ta -> Tb -> Tc on one object loses Ta => Tc when
//     Tb aborts, even though the op-level shard checker (which restores
//     state exactly) still orders the surviving operations directly.
//     Durable arcs keep reachability among survivors a superset of the
//     real conflict order, at the price of occasionally rejecting
//     through a phantom path (conservative, never unsound).
//
// Soundness (docs/sharding.md gives the full argument): every
// cross-transaction arc of the global RSG — D-arcs from the depends-on
// closure and their F/B companions — connects its endpoint transactions
// in the same direction as a chain of direct conflicts, so any global
// cycle contracts to a closed walk over direct-conflict transaction
// arcs. Walk segments between coordinator-visible transactions are
// covered by taint flooding; hence (all shards locally acyclic) AND
// (no issuer ever completes a transaction-level cycle) implies the
// global RSG is acyclic — condensing issuer-free cycles loses nothing,
// since connectivity through a condensed component is preserved. The
// decomposition is conservative: coordinator rejections may kill
// interleavings the full checker would admit (measured by
// bench_sharded's cross-shard sweep), but never the converse, and a
// workload with no multi-shard transaction never reaches it at all —
// which is why single-shard mode is decision-identical to the serial
// abort-and-cascade policy (tests/shard_test.cc).
//
// Thread safety: shard cores call concurrently; one mutex serializes
// every entry point. The optional Tracer is only touched under that
// mutex, preserving its single-writer contract.
#ifndef RELSER_SHARD_COORDINATOR_H_
#define RELSER_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/dynamic_topo.h"
#include "model/operation.h"

namespace relser {

class Tracer;

/// Transaction-level cross-shard acyclicity checker.
class CrossShardCoordinator {
 public:
  /// Verdict of one mirrored arc batch.
  enum class ArcResult : std::uint8_t {
    kOk,     ///< all arcs in (duplicates fine); issuer not on any cycle
    kCycle,  ///< batch rejected atomically; `witness` names one arc
    kDead,   ///< the issuing transaction was already killed elsewhere
  };

  /// `tracer` (optional) records cross-shard-arc / coordinator-reject
  /// events; it must not be shared with any other writer.
  explicit CrossShardCoordinator(std::size_t txn_count,
                                 Tracer* tracer = nullptr);

  /// Atomically mirrors `arcs` (directed conflict pairs) on behalf of
  /// live transaction `issuer`; dead transactions may appear as
  /// endpoints (their arcs pin conservative constraints, see above).
  /// kCycle iff the batch would put the issuer on a transaction-level
  /// cycle; then nothing is retained and `witness` (when non-null)
  /// receives one cycle-closing arc. Issuer-free cycles are absorbed by
  /// condensation and the batch is retained (kOk).
  ArcResult AddArcs(TxnId issuer,
                    const std::vector<std::pair<TxnId, TxnId>>& arcs,
                    std::pair<TxnId, TxnId>* witness = nullptr);

  /// Tombstones `txn`: late AddArcs batches it issues see kDead. Its
  /// mirrored arcs are retained (durable-arc discipline). Idempotent.
  void MarkDead(TxnId txn);

  /// True once MarkDead(txn) ran. (Snapshot; the caller owns any
  /// larger protocol race.)
  bool Dead(TxnId txn) const;

  /// Distinct transaction-level arcs currently retained (cumulative
  /// mirrors minus CollectSettled reclamations).
  std::size_t arc_count() const;

  /// Cumulative arcs accepted (first insertions, not duplicates; never
  /// decremented by GC).
  std::uint64_t arcs_mirrored() const;
  /// Batches rejected for closing a transaction-level cycle.
  std::uint64_t rejects() const;

  /// Watermark GC: drops every retained arc — live or tombstoned —
  /// whose SOURCE transaction has settled per `settled` (epoch/epoch.h's
  /// view), rebuilding the transaction-level topology from the
  /// survivors. Sound and decision-identical under the issuer-cycle
  /// semantics: settledness is predecessor-closed over ALL local arcs
  /// (every mirrored arc is a subset of the settlement graph), so no
  /// path from a live issuer can reach a settled transaction — an
  /// issuer cycle never touches a settled-source arc, and dropping them
  /// changes no AddArcs verdict regardless of when the collection runs
  /// relative to admission. This is the bounded-census collector the
  /// durable-arc discipline was waiting for: arcs_live + arcs_dead
  /// tracks only unsettled history. Returns the number of arcs dropped.
  std::size_t CollectSettled(const std::atomic<std::uint8_t>* settled);

  /// Durable-arc census over the RETAINED arcs: an arc is *dead* once
  /// either endpoint transaction is tombstoned — it survives only as a
  /// conservative ordering constraint until its source settles.
  /// Counted from the tombstones when read (O(arcs + T)), so
  /// arcs_live + arcs_dead == arc_count always.
  std::uint64_t arcs_live() const;
  std::uint64_t arcs_dead() const;
  /// Cumulative arcs reclaimed by CollectSettled.
  std::uint64_t arcs_gcd() const;
  /// Issuer-free phantom cycles condensed by AddArcs instead of
  /// rejected (each absorption merges one strongly connected pair).
  std::uint64_t cycles_absorbed() const;

 private:
  // Condensation representative of `txn` (union-find with path
  // compression; the root is always the smallest member id, so the
  // final partition and representatives are call-order independent).
  TxnId Find(TxnId txn) const;
  void Union(TxnId a, TxnId b);
  // True iff `issuer_rep` lies on a cycle of topology ∪ batch_buf_
  // (DFS over representatives; callers hold mu_).
  bool IssuerOnCycleLocked(TxnId issuer_rep);
  // Rebuilds topo_ from the retained arc set mapped through current
  // representatives (intra-component arcs drop out as self-loops).
  void RebuildTopologyLocked();
  // Retained arcs with a tombstoned endpoint (callers hold mu_).
  std::uint64_t DeadArcsLocked() const;

  mutable std::mutex mu_;
  std::size_t txn_count_;
  IncrementalTopology topo_;
  std::vector<std::uint8_t> dead_;  // tombstones (MarkDead)
  // Retained arc set: succs_[t] lists t's mirrored successors in
  // ascending order, so a binary search is the dedup test and a settled
  // source's list is freed wholesale.
  std::vector<std::vector<TxnId>> succs_;
  std::size_t arc_count_ = 0;  // sum of succs_[t].size()
  std::vector<std::pair<NodeId, NodeId>> batch_buf_;  // AddArcs scratch
  std::vector<std::pair<TxnId, TxnId>> new_pairs_;    // AddArcs scratch
  std::vector<std::pair<NodeId, NodeId>> rebuild_buf_;
  mutable std::vector<TxnId> rep_;            // union-find parents
  std::vector<std::uint8_t> probe_visited_;   // issuer-cycle DFS scratch
  std::vector<NodeId> probe_stack_;
  std::uint64_t cycles_absorbed_ = 0;
  std::uint64_t arcs_mirrored_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t arcs_gcd_ = 0;
  Tracer* tracer_;
};

}  // namespace relser

#endif  // RELSER_SHARD_COORDINATOR_H_
