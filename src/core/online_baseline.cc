#include "core/online_baseline.h"

#include <algorithm>

#include "util/check.h"

namespace relser {

namespace {

// Inserts `arcs` one by one; on a cycle, rolls back and returns false.
// (The optimized paths use IncrementalTopology::AddEdges instead; this
// copy preserves the original baseline behavior byte for byte.)
bool TryInsertArcsOneByOne(IncrementalTopology* topo,
                           const std::vector<std::pair<NodeId, NodeId>>& arcs) {
  std::vector<std::pair<NodeId, NodeId>> inserted;
  inserted.reserve(arcs.size());
  for (const auto& [from, to] : arcs) {
    switch (topo->AddEdge(from, to)) {
      case IncrementalTopology::AddResult::kInserted:
        inserted.emplace_back(from, to);
        break;
      case IncrementalTopology::AddResult::kDuplicate:
        break;
      case IncrementalTopology::AddResult::kCycle:
        for (const auto& [f, t] : inserted) {
          topo->RemoveEdge(f, t);
        }
        return false;
    }
  }
  return true;
}

}  // namespace

OnlineRsrCheckerBaseline::OnlineRsrCheckerBaseline(const TransactionSet& txns,
                                                   const AtomicitySpec& spec)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      topo_(indexer_.total_ops()),
      ancestors_(indexer_.total_ops(), DenseBitset(indexer_.total_ops())),
      executed_(indexer_.total_ops(), false) {
  RELSER_CHECK_MSG(spec.ValidateAgainst(txns).ok(),
                   "specification does not match the transaction set");
}

bool OnlineRsrCheckerBaseline::TryAppend(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(!executed_[gid], "operation fed twice");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1],
                     "operations must be fed in program order");
  }

  // Direct predecessors: previous op of the same transaction plus every
  // executed conflicting op; ancestors = their transitive closure.
  DenseBitset ancestors(indexer_.total_ops());
  if (op.index > 0) {
    ancestors.Set(gid - 1);
    ancestors.UnionWith(ancestors_[gid - 1]);
  }
  const auto it = history_.find(op.object);
  if (it != history_.end()) {
    for (const std::size_t other : it->second) {
      const Operation& other_op = indexer_.Op(txns_, other);
      if (other_op.txn != op.txn && (other_op.is_write() || op.is_write())) {
        ancestors.Set(other);
        ancestors.UnionWith(ancestors_[other]);
      }
    }
  }

  // Definition 3 arcs induced by this operation.
  std::vector<std::pair<NodeId, NodeId>> arcs;
  if (op.index > 0) {
    arcs.emplace_back(gid - 1, gid);  // I-arc
  }
  for (std::size_t u = ancestors.FindNext(0); u < ancestors.size();
       u = ancestors.FindNext(u + 1)) {
    const Operation& dep = indexer_.Op(txns_, u);
    if (dep.txn == op.txn) continue;  // internal: I-arcs chain them
    arcs.emplace_back(u, gid);  // D-arc
    const std::uint32_t pushed = spec_.PushForward(dep.txn, op.txn, dep.index);
    arcs.emplace_back(indexer_.GlobalId(dep.txn, pushed), gid);  // F-arc
    const std::uint32_t pulled = spec_.PullBackward(op.txn, dep.txn, op.index);
    arcs.emplace_back(u, indexer_.GlobalId(op.txn, pulled));  // B-arc
  }
  if (!TryInsertArcsOneByOne(&topo_, arcs)) {
    ++rejections_;
    return false;
  }
  executed_[gid] = true;
  ++executed_count_;
  ancestors_[gid] = std::move(ancestors);
  history_[op.object].push_back(gid);
  return true;
}

std::size_t OnlineRsrCheckerBaseline::FirstRejection(const TransactionSet& txns,
                                                     const AtomicitySpec& spec,
                                                     const Schedule& schedule) {
  OnlineRsrCheckerBaseline checker(txns, spec);
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    if (!checker.TryAppend(schedule.op(pos))) {
      return pos;
    }
  }
  return schedule.size();
}

}  // namespace relser
