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
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    ShardSlice& slice = slices_[shard];
    // Mirror the full object universe so projected Operations keep their
    // original ObjectIds (names are not needed shard-side).
    if (txns.object_count() > 0) slice.txns.AddObjects(txns.object_count());
    slice.to_projected.resize(txns.txn_count());
    slice.to_original.resize(txns.txn_count());
    for (const Transaction& txn : txns.txns()) {
      Transaction* projected = slice.txns.AddTransaction();
      std::vector<std::uint32_t>& fwd = slice.to_projected[txn.id()];
      std::vector<std::uint32_t>& back = slice.to_original[txn.id()];
      fwd.assign(txn.size(), ShardSlice::kNotHere);
      for (const Operation& op : txn.ops()) {
        if (router_.ShardOf(op.object) != shard) continue;
        fwd[op.index] = static_cast<std::uint32_t>(projected->size());
        back.push_back(op.index);
        if (op.is_read()) {
          projected->Read(op.object);
        } else {
          projected->Write(op.object);
        }
      }
    }
    // Projected spec: start absolute over the projected sizes, then set a
    // breakpoint at projected gap g of (Ti, Tj) iff any original gap in
    // [orig(g), orig(g+1)) carries one — projected units are the
    // intersections of original units with the owned subsequence. The
    // first such gap is PushForward(orig(g)), the end of orig(g)'s unit.
    // A transaction resident here in full projects to itself, so its row
    // is copied word for word.
    slice.spec = AtomicitySpec(slice.txns);
    const auto txn_count = static_cast<TxnId>(txns.txn_count());
    for (TxnId i = 0; i < txn_count; ++i) {
      const std::vector<std::uint32_t>& back = slice.to_original[i];
      if (back.size() < 2) continue;
      if (back.size() == txns.txn(i).size()) {
        slice.spec.CopyRow(spec, i);
        continue;
      }
      for (TxnId j = 0; j < txn_count; ++j) {
        if (i == j) continue;
        for (std::uint32_t g = 0; g + 1 < back.size(); ++g) {
          if (spec.PushForward(i, j, back[g]) < back[g + 1]) {
            slice.spec.SetBreakpoint(i, j, g);
          }
        }
      }
    }
  }
}

}  // namespace relser
