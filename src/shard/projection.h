// Per-shard projections of a workload: the sub-schedule a shard-local
// OnlineRsrChecker certifies.
//
// A shard owns a subset of the object space (shard/router.h). Its view
// of transaction Ti is the subsequence of Ti's operations touching owned
// objects, re-indexed to be contiguous — a projected TransactionSet with
// the SAME transaction ids and the SAME object universe (so Operations
// keep their ObjectIds and the router stays applicable), in which some
// transactions may be empty.
//
// The atomicity specification projects alongside: a gap between
// consecutive projected operations p_g < p_{g+1} of Ti carries a
// breakpoint (relative to Tj) iff any original gap in [p_g, p_{g+1})
// does. Projected atomic units are therefore exactly the intersections
// of the original units with the shard's operation subset, which gives
// the soundness direction the subsystem rests on (docs/sharding.md):
// the projected PushForward (last owned op of the original unit) and
// PullBackward (first owned op) are dominated by their global
// counterparts through program-order I-arcs, so every arc of a shard's
// projected RSG corresponds to a path in the global RSG. A projected
// cycle is a global cycle: shard-local rejections are never spurious.
// ShardPlan builds each projected row with one AtomicitySpec::ProjectRow
// call over the row's kept original op indices.
#ifndef RELSER_SHARD_PROJECTION_H_
#define RELSER_SHARD_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "model/transaction.h"
#include "shard/router.h"
#include "spec/atomicity_spec.h"

namespace relser {

/// One shard's projected view of the workload. Owns the projected
/// TransactionSet and AtomicitySpec (they must outlive the shard's
/// checker, so ShardPlan keeps slices at stable addresses).
struct ShardSlice {
  TransactionSet txns;  ///< projected set; same txn ids, some empty
  AtomicitySpec spec;   ///< projected breakpoints over projected gaps

  /// txn -> original op index -> projected index (kNotHere when the op
  /// lives on another shard).
  static constexpr std::uint32_t kNotHere = ~static_cast<std::uint32_t>(0);
  std::vector<std::vector<std::uint32_t>> to_projected;

  /// The shard-local image of original operation `op`; op must be owned.
  Operation Project(const Operation& op) const {
    const std::uint32_t projected = to_projected[op.txn][op.index];
    RELSER_DCHECK(projected != kNotHere);
    return Operation{op.txn, projected, op.type, op.object};
  }
};

/// The complete partitioned workload: router, per-transaction spans, and
/// one ShardSlice per shard. Immutable once built; everything the
/// sharded admitter needs to spin its cores.
class ShardPlan {
 public:
  /// Projects `txns`/`spec` across `router`'s partition. `txns` and
  /// `spec` must outlive the plan (the slices snapshot what they need,
  /// but spans and diagnostics refer back).
  ShardPlan(const TransactionSet& txns, const AtomicitySpec& spec,
            ShardRouter router);

  const ShardRouter& router() const { return router_; }
  const TxnSpans& spans() const { return spans_; }
  std::size_t shard_count() const { return router_.shard_count(); }

  const ShardSlice& slice(std::uint32_t shard) const {
    return slices_[shard];
  }

 private:
  ShardRouter router_;
  TxnSpans spans_;
  std::vector<ShardSlice> slices_;
};

}  // namespace relser

#endif  // RELSER_SHARD_PROJECTION_H_
