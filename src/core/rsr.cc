#include "core/rsr.h"

#include "graph/cycle.h"
#include "graph/topo.h"
#include "util/check.h"

namespace relser {

bool IsRelativelySerializable(const TransactionSet& txns,
                              const Schedule& schedule,
                              const AtomicitySpec& spec) {
  const RelativeSerializationGraph rsg(txns, schedule, spec);
  return !HasCycle(rsg.graph());
}

std::optional<Schedule> ExtractRelativelySerialWitness(
    const TransactionSet& txns, const Schedule& schedule,
    const RelativeSerializationGraph& rsg) {
  // Prefer ready operations that appear earliest in the original
  // schedule: the witness then deviates from S only where the RSG forces
  // a reordering.
  std::vector<std::size_t> priority(rsg.graph().node_count());
  for (NodeId node = 0; node < priority.size(); ++node) {
    priority[node] = schedule.PositionOf(rsg.indexer().Op(txns, node));
  }
  const auto order = PriorityTopologicalSort(rsg.graph(), priority);
  if (!order.has_value()) return std::nullopt;
  std::vector<Operation> ops;
  ops.reserve(order->size());
  for (const NodeId node : *order) {
    ops.push_back(rsg.indexer().Op(txns, node));
  }
  auto witness = Schedule::Over(txns, std::move(ops));
  // I-arcs guarantee program order, so the topological order is always a
  // valid schedule.
  RELSER_CHECK_MSG(witness.ok(), witness.status().ToString());
  return *std::move(witness);
}

RsrAnalysis AnalyzeRelativeSerializability(const TransactionSet& txns,
                                           const Schedule& schedule,
                                           const AtomicitySpec& spec) {
  RsrAnalysis analysis;
  const DependsOnRelation depends(txns, schedule);
  analysis.depends_pair_count = depends.PairCount();
  const RelativeSerializationGraph rsg(txns, schedule, spec, depends);
  analysis.rsg_arc_count = rsg.arc_count();
  analysis.cycle = FindCycle(rsg.graph());
  analysis.relatively_serializable = !analysis.cycle.has_value();
  if (analysis.relatively_serializable) {
    analysis.witness = ExtractRelativelySerialWitness(txns, schedule, rsg);
  }
  return analysis;
}

}  // namespace relser
