#include "shard/projection.h"

#include <string>

#include "util/check.h"

namespace relser {

ShardPlan::ShardPlan(const TransactionSet& txns, const AtomicitySpec& spec,
                     ShardRouter router)
    : router_(std::move(router)), spans_(txns, router_) {
  RELSER_CHECK_MSG(router_.object_count() == txns.object_count(),
                   "router partitions " << router_.object_count()
                                        << " objects but the set has "
                                        << txns.object_count());
  const std::size_t shard_count = router_.shard_count();
  slices_.resize(shard_count);
  std::vector<std::uint32_t> kept;  // one row's owned original op indices
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    ShardSlice& slice = slices_[shard];
    // Mirror the full object universe so projected Operations keep their
    // original ObjectIds (names are not needed shard-side).
    if (txns.object_count() > 0) slice.txns.AddObjects(txns.object_count());
    slice.to_projected.resize(txns.txn_count());
    for (const Transaction& txn : txns.txns()) {
      Transaction* projected = slice.txns.AddTransaction();
      std::vector<std::uint32_t>& fwd = slice.to_projected[txn.id()];
      fwd.assign(txn.size(), ShardSlice::kNotHere);
      for (const Operation& op : txn.ops()) {
        if (router_.ShardOf(op.object) != shard) continue;
        fwd[op.index] = static_cast<std::uint32_t>(projected->size());
        if (op.is_read()) {
          projected->Read(op.object);
        } else {
          projected->Write(op.object);
        }
      }
    }
    // Projected spec: gap g of (Ti, Tj) breaks iff any original gap in
    // [orig(g), orig(g+1)) does, so projected units are the intersections
    // of original units with the owned subsequence. One ProjectRow per
    // row; a transaction resident here in full projects to itself, which
    // is the word copy.
    slice.spec = AtomicitySpec(slice.txns);
    const auto txn_count = static_cast<TxnId>(txns.txn_count());
    for (TxnId i = 0; i < txn_count; ++i) {
      const std::vector<std::uint32_t>& fwd = slice.to_projected[i];
      kept.clear();
      for (std::uint32_t k = 0; k < fwd.size(); ++k) {
        if (fwd[k] != ShardSlice::kNotHere) kept.push_back(k);
      }
      slice.spec.ProjectRow(spec, i, kept);
    }
  }
}

}  // namespace relser
