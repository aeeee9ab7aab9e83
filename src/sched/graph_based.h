// Graph-based (certification) schedulers.
//
// SGTScheduler — classical serialization graph testing [Bad79, Cas81]:
// maintains the transaction-level conflict graph online and aborts a
// requester whose operation would close a cycle. Guarantees conflict
// serializable executions.
//
// RSGTScheduler — the paper's proposal (Section 3): maintains the
// *relative serialization graph* online. An arriving operation induces
// its I-arc, plus D/F/B-arcs (Definition 3) for every executed operation
// it depends on; the operation is admitted iff the graph stays acyclic.
// Guarantees relatively serializable executions, admitting every
// interleaving the specification (and the run's actual dependencies)
// allow — strictly more than SGT when specs have breakpoints, identical
// to SGT under absolute atomicity (Lemma 1).
//
// Both use the Pearce-Kelly incremental topology with its batched
// all-or-nothing AddEdges (trial arcs are rolled back internally before
// kAbort is reported). Aborted transactions are restarted by the engine;
// dependents are cascade-aborted by the engine (see SimulationEngine).
#ifndef RELSER_SCHED_GRAPH_BASED_H_
#define RELSER_SCHED_GRAPH_BASED_H_

#include <cstdint>
#include <vector>

#include "core/online.h"
#include "graph/dynamic_topo.h"
#include "model/op_indexer.h"
#include "model/transaction.h"
#include "sched/scheduler.h"
#include "spec/atomicity_spec.h"

namespace relser {

/// Conflict-serializability certification (transaction-level graph).
class SGTScheduler : public Scheduler {
 public:
  explicit SGTScheduler(const TransactionSet& txns);

  AdmitResult OnRequest(const Operation& op) override;
  void OnCommit(TxnId txn) override;
  void OnAbort(TxnId txn) override;
  std::string name() const override { return "sgt"; }

  /// Cycle rejections so far (observability).
  std::size_t cycle_rejections() const { return cycle_rejections_; }

  /// Committed transactions garbage-collected out of the graph so far.
  std::size_t retired_count() const { return retired_count_; }

 private:
  struct Access {
    TxnId txn;
    std::uint32_t index;  ///< op position in txn (trace attribution)
    bool write;
  };

  /// Retires every committed in-degree-0 transaction reachable from the
  /// GC worklist, cascading as removals expose new sources.
  void CollectRetirable();
  void ScrubHistory(TxnId txn);

  IncrementalTopology topo_;
  // ObjectId -> access history, one entry per object of the transaction
  // set (its ids are dense: 0..object_count()-1).
  std::vector<std::vector<Access>> objects_;
  std::vector<std::vector<ObjectId>> touched_;  // txn -> objects accessed
  std::vector<std::uint8_t> committed_;
  std::vector<std::uint8_t> retired_;
  std::vector<TxnId> gc_worklist_;
  std::vector<NodeId> gc_succs_;  // scratch: out-neighbors being retired
  std::vector<std::pair<NodeId, NodeId>> arc_buf_;
  std::vector<Operation> arc_from_buf_;  // parallel to arc_buf_ (tracing)
  std::size_t cycle_rejections_ = 0;
  std::size_t retired_count_ = 0;
};

/// Relative-serializability certification (operation-level RSG), a thin
/// simulator adapter over OnlineRsrChecker (the paper's protocol core).
class RSGTScheduler : public Scheduler {
 public:
  /// `txns` and `spec` must outlive the scheduler.
  RSGTScheduler(const TransactionSet& txns, const AtomicitySpec& spec)
      : checker_(txns, spec) {}
  /// Guard against binding a temporary specification.
  RSGTScheduler(const TransactionSet&, AtomicitySpec&&) = delete;

  AdmitResult OnRequest(const Operation& op) override {
    AdmitResult result = checker_.TryAppend(op);
    if (!result.ok()) {
      // A certification failure dooms the requester in the simulator
      // protocol: surface it as an abort, witness preserved.
      result.outcome = AdmitOutcome::kAborted;
    }
    return result;
  }

  // Nodes of committed transactions stay in the graph: RSG arcs can land
  // on any not-yet-executed operation (F/B arcs), so an op-level node is
  // not provably in-degree-stable at commit time the way an SGT
  // transaction node is.
  void OnCommit(TxnId txn) override { (void)txn; }

  void OnAbort(TxnId txn) override {
    checker_.RemoveTransactionExact(txn);
  }

  std::string name() const override { return "rsgt"; }

  /// The checker is the component that knows each arc's kind and the
  /// witnessing arc of a rejection, so it gets the tracer directly.
  void set_tracer(Tracer* tracer) override {
    Scheduler::set_tracer(tracer);
    checker_.set_tracer(tracer);
  }

  std::size_t cycle_rejections() const { return checker_.rejections(); }
  std::size_t arcs_added() const { return checker_.topology().edge_count(); }

 private:
  OnlineRsrChecker checker_;
};

}  // namespace relser

#endif  // RELSER_SCHED_GRAPH_BASED_H_
