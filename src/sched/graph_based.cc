#include "sched/graph_based.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace relser {

SGTScheduler::SGTScheduler(const TransactionSet& txns)
    : topo_(txns.txn_count()),
      objects_(txns.object_count()),
      touched_(txns.txn_count()),
      committed_(txns.txn_count(), 0),
      retired_(txns.txn_count(), 0) {
  arc_buf_.reserve(16);
}

AdmitResult SGTScheduler::OnRequest(const Operation& op) {
  const bool tracing = tracer_ != nullptr && tracer_->events_on();
  arc_buf_.clear();
  arc_from_buf_.clear();
  RELSER_CHECK_MSG(op.object < objects_.size(),
                   "operation names an object outside the transaction set");
  for (const Access& access : objects_[op.object]) {
    if (access.txn != op.txn && (access.write || op.is_write())) {
      arc_buf_.emplace_back(access.txn, op.txn);
      // SGT arcs are transaction-level; remember the conflicting access
      // that induced each arc so a rejection can cite it (both in the
      // AdmitResult witness and, when tracing, the TraceCause).
      arc_from_buf_.push_back(Operation{
          access.txn, access.index,
          access.write ? OpType::kWrite : OpType::kRead, op.object});
    }
  }
  const std::size_t edges_before = topo_.edge_count();
  const std::uint64_t repairs_before = topo_.reorder_count();
  if (!topo_.AddEdges(arc_buf_)) {
    ++cycle_rejections_;
    ArcWitness witness;
    witness.valid = true;
    witness.arc_kinds = 0;  // rendered "C": txn-level conflict arc
    witness.from = op;
    witness.to = op;
    const auto [bad_from, bad_to] = topo_.last_rejected_edge();
    for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
      if (arc_buf_[a].first == bad_from && arc_buf_[a].second == bad_to) {
        witness.from = arc_from_buf_[a];
        break;
      }
    }
    if (tracing) {
      TraceCause cause;
      cause.kind = TraceCauseKind::kConflictArc;
      cause.arc_kinds = 0;
      cause.from = witness.from;
      cause.to = witness.to;
      tracer_->AttachCause(std::move(cause));
    }
    return AdmitResult::Aborted(op.txn, witness);
  }
  if (tracer_ != nullptr && tracer_->counting()) {
    tracer_->AddArcStats(arc_buf_.size(), topo_.edge_count() - edges_before,
                         topo_.reorder_count() - repairs_before);
    if (tracing) {
      for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
        tracer_->RecordArc(0, arc_from_buf_[a], op, tracer_->tick());
      }
    }
  }
  objects_[op.object].push_back(Access{op.txn, op.index, op.is_write()});
  touched_[op.txn].push_back(op.object);
  return AdmitResult::Accept(op.txn);
}

void SGTScheduler::ScrubHistory(TxnId txn) {
  for (const ObjectId object : touched_[txn]) {
    std::erase_if(objects_[object],
                  [txn](const Access& access) { return access.txn == txn; });
  }
  touched_[txn].clear();
}

void SGTScheduler::CollectRetirable() {
  while (!gc_worklist_.empty()) {
    const TxnId txn = gc_worklist_.back();
    gc_worklist_.pop_back();
    if (retired_[txn] != 0 || committed_[txn] == 0 ||
        topo_.graph().InDegree(txn) != 0) {
      continue;
    }
    // Safe to retire: conflict arcs always point *into* the requester, so
    // a committed transaction (which requests nothing further) can never
    // gain an in-edge. With in-degree zero it is a source forever and can
    // never lie on a cycle; dropping its out-arcs and history entries
    // cannot hide a future cycle.
    gc_succs_.assign(topo_.graph().OutNeighbors(txn).begin(),
                     topo_.graph().OutNeighbors(txn).end());
    topo_.IsolateNode(txn);
    retired_[txn] = 1;
    ++retired_count_;
    ScrubHistory(txn);
    for (const NodeId succ : gc_succs_) {
      if (committed_[succ] != 0 && retired_[succ] == 0 &&
          topo_.graph().InDegree(succ) == 0) {
        gc_worklist_.push_back(static_cast<TxnId>(succ));
      }
    }
  }
}

void SGTScheduler::OnCommit(TxnId txn) {
  // A committed transaction that is still *reachable* can lie on a future
  // cycle, so only the in-degree-0 committed prefix of the graph is
  // collected (plus whatever that exposes, transitively).
  committed_[txn] = 1;
  gc_worklist_.push_back(txn);
  CollectRetirable();
}

void SGTScheduler::OnAbort(TxnId txn) {
  gc_succs_.assign(topo_.graph().OutNeighbors(txn).begin(),
                   topo_.graph().OutNeighbors(txn).end());
  topo_.IsolateNode(txn);
  ScrubHistory(txn);
  // Removing the aborted node's out-arcs may expose committed sources.
  for (const NodeId succ : gc_succs_) {
    if (committed_[succ] != 0 && retired_[succ] == 0) {
      gc_worklist_.push_back(static_cast<TxnId>(succ));
    }
  }
  CollectRetirable();
}

}  // namespace relser
