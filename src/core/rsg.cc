#include "core/rsg.h"

#include "graph/dot.h"
#include "model/text.h"
#include "util/strings.h"

namespace relser {

std::string ArcKindsToString(std::uint8_t kinds) {
  std::vector<std::string> parts;
  if (kinds & kInternalArc) parts.emplace_back("I");
  if (kinds & kDependencyArc) parts.emplace_back("D");
  if (kinds & kPushForwardArc) parts.emplace_back("F");
  if (kinds & kPullBackwardArc) parts.emplace_back("B");
  return StrJoin(parts, ",");
}

RelativeSerializationGraph::RelativeSerializationGraph(
    const TransactionSet& txns, const Schedule& schedule,
    const AtomicitySpec& spec, const DependsOnRelation& depends)
    : indexer_(txns), graph_(indexer_.total_ops()) {
  Build(txns, schedule, spec, depends);
}

RelativeSerializationGraph::RelativeSerializationGraph(
    const TransactionSet& txns, const Schedule& schedule,
    const AtomicitySpec& spec)
    : RelativeSerializationGraph(txns, schedule, spec,
                                 DependsOnRelation(txns, schedule)) {}

void RelativeSerializationGraph::AddArc(NodeId from, NodeId to,
                                        ArcKind kind) {
  graph_.AddEdge(from, to);
  kinds_[ArcKey(from, to)] |= kind;
}

std::uint8_t RelativeSerializationGraph::KindsOf(NodeId from,
                                                 NodeId to) const {
  const auto it = kinds_.find(ArcKey(from, to));
  return it == kinds_.end() ? 0 : it->second;
}

void RelativeSerializationGraph::Build(const TransactionSet& txns,
                                       const Schedule& schedule,
                                       const AtomicitySpec& spec,
                                       const DependsOnRelation& depends) {
  // I-arcs: consecutive operations of each transaction.
  for (const Transaction& txn : txns.txns()) {
    for (std::uint32_t j = 0; j + 1 < txn.size(); ++j) {
      AddArc(indexer_.GlobalId(txn.id(), j),
             indexer_.GlobalId(txn.id(), j + 1), kInternalArc);
    }
  }
  // D-arcs with their induced F- and B-arcs. For every cross-transaction
  // pair where the later operation depends on the earlier one:
  //   D:  u -> v
  //   F:  PushForward(u, txn(v)) -> v     (Definition 3, rule 3)
  //   B:  u -> PullBackward(v, txn(u))    (Definition 3, rule 4)
  const std::size_t n = schedule.size();
  for (std::size_t p = 0; p < n; ++p) {
    const Operation& u = schedule.op(p);
    const DenseBitset& affected = depends.AffectedPositions(p);
    for (std::size_t q = affected.FindNext(p + 1); q < n;
         q = affected.FindNext(q + 1)) {
      const Operation& v = schedule.op(q);
      if (v.txn == u.txn) continue;
      const NodeId u_id = indexer_.GlobalId(u);
      const NodeId v_id = indexer_.GlobalId(v);
      AddArc(u_id, v_id, kDependencyArc);
      const std::uint32_t pushed = spec.PushForward(u.txn, v.txn, u.index);
      AddArc(indexer_.GlobalId(u.txn, pushed), v_id, kPushForwardArc);
      const std::uint32_t pulled = spec.PullBackward(v.txn, u.txn, v.index);
      AddArc(u_id, indexer_.GlobalId(v.txn, pulled), kPullBackwardArc);
    }
  }
}

std::string RelativeSerializationGraph::ToString(
    const TransactionSet& txns) const {
  std::string out;
  for (const auto& [from, to] : graph_.Edges()) {
    out += relser::ToString(txns, indexer_.Op(txns, from));
    out += " -> ";
    out += relser::ToString(txns, indexer_.Op(txns, to));
    out += " [";
    out += ArcKindsToString(KindsOf(from, to));
    out += "]\n";
  }
  return out;
}

Digraph BuildPartialRsg(const TransactionSet& txns, const Schedule& schedule,
                        const AtomicitySpec& spec, bool with_f,
                        bool with_b) {
  const DependsOnRelation depends(txns, schedule);
  const OpIndexer indexer(txns);
  Digraph graph(indexer.total_ops());
  for (const Transaction& txn : txns.txns()) {
    for (std::uint32_t j = 0; j + 1 < txn.size(); ++j) {
      graph.AddEdge(indexer.GlobalId(txn.id(), j),
                    indexer.GlobalId(txn.id(), j + 1));
    }
  }
  const std::size_t n = schedule.size();
  for (std::size_t p = 0; p < n; ++p) {
    const Operation& u = schedule.op(p);
    const DenseBitset& affected = depends.AffectedPositions(p);
    for (std::size_t q = affected.FindNext(p + 1); q < n;
         q = affected.FindNext(q + 1)) {
      const Operation& v = schedule.op(q);
      if (v.txn == u.txn) continue;
      const NodeId u_id = indexer.GlobalId(u);
      const NodeId v_id = indexer.GlobalId(v);
      graph.AddEdge(u_id, v_id);
      if (with_f) {
        const std::uint32_t pushed =
            spec.PushForward(u.txn, v.txn, u.index);
        graph.AddEdge(indexer.GlobalId(u.txn, pushed), v_id);
      }
      if (with_b) {
        const std::uint32_t pulled =
            spec.PullBackward(v.txn, u.txn, v.index);
        graph.AddEdge(u_id, indexer.GlobalId(v.txn, pulled));
      }
    }
  }
  return graph;
}

std::string RelativeSerializationGraph::ToDot(
    const TransactionSet& txns) const {
  DotOptions options;
  options.name = "rsg";
  options.node_label = [&](NodeId node) {
    return relser::ToString(txns, indexer_.Op(txns, node));
  };
  options.edge_label = [&](NodeId from, NodeId to) {
    return ArcKindsToString(KindsOf(from, to));
  };
  return relser::ToDot(graph_, options);
}

}  // namespace relser
