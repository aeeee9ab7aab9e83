// OnlineRsrCheckerBaseline: the pre-optimization streaming certifier.
//
// This is a faithful copy of the original OnlineRsrChecker admission path
// (per-op DenseBitset ancestor closure, full-ancestor D/F/B arc fan-out,
// per-edge trial insertion). It is kept as an independent semantic
// oracle in tests/differential_online_test.cc: the optimized checker
// must accept/reject at exactly the same schedule prefix. It shares
// only the topology substrate (graph/dynamic_topo.h) with that checker.
//
// Do not use this in production paths; use OnlineRsrChecker.
#ifndef RELSER_CORE_ONLINE_BASELINE_H_
#define RELSER_CORE_ONLINE_BASELINE_H_

#include <map>
#include <vector>

#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "spec/atomicity_spec.h"
#include "util/bitset.h"

namespace relser {

/// Incremental relative-serializability certification (unoptimized).
class OnlineRsrCheckerBaseline {
 public:
  /// `txns` and `spec` must outlive the checker.
  OnlineRsrCheckerBaseline(const TransactionSet& txns,
                           const AtomicitySpec& spec);
  /// Guard against binding a temporary specification.
  OnlineRsrCheckerBaseline(const TransactionSet&, AtomicitySpec&&) = delete;

  /// Attempts to append `op`; see OnlineRsrChecker::TryAppend.
  bool TryAppend(const Operation& op);

  /// True iff o_{txn,index} has been fed and accepted.
  bool Executed(TxnId txn, std::uint32_t index) const {
    return executed_[indexer_.GlobalId(txn, index)];
  }

  std::size_t executed_count() const { return executed_count_; }
  std::size_t rejections() const { return rejections_; }
  const IncrementalTopology& topology() const { return topo_; }
  const OpIndexer& indexer() const { return indexer_; }

  /// Streams `schedule` through a fresh checker; returns the position of
  /// the first rejected operation, or schedule.size() when accepted.
  static std::size_t FirstRejection(const TransactionSet& txns,
                                    const AtomicitySpec& spec,
                                    const Schedule& schedule);

 private:
  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  OpIndexer indexer_;
  IncrementalTopology topo_;
  std::vector<DenseBitset> ancestors_;
  std::vector<bool> executed_;
  std::map<ObjectId, std::vector<std::size_t>> history_;
  std::size_t executed_count_ = 0;
  std::size_t rejections_ = 0;
};

}  // namespace relser

#endif  // RELSER_CORE_ONLINE_BASELINE_H_
