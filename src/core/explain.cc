#include "core/explain.h"

#include "graph/cycle.h"
#include "model/text.h"
#include "util/strings.h"

namespace relser {

namespace {

// Reconstructs the unit that induced an F- or B-arc, if any. For an
// F-arc u' -> v, u' is the last op of a unit of txn(u') relative to
// txn(v); for a B-arc u -> v', v' is the first op of a unit of txn(v')
// relative to txn(u).
void AnnotateUnit(const AtomicitySpec& spec, ExplainedArc* arc) {
  if (arc->kinds & kPushForwardArc) {
    arc->unit_txn = arc->from.txn;
    arc->observer_txn = arc->to.txn;
    const std::uint32_t first =
        spec.PullBackward(arc->unit_txn, arc->observer_txn, arc->from.index);
    const std::uint32_t last =
        spec.PushForward(arc->unit_txn, arc->observer_txn, arc->from.index);
    arc->unit = UnitRange{first, last};
  } else if (arc->kinds & kPullBackwardArc) {
    arc->unit_txn = arc->to.txn;
    arc->observer_txn = arc->from.txn;
    const std::uint32_t first =
        spec.PullBackward(arc->unit_txn, arc->observer_txn, arc->to.index);
    const std::uint32_t last =
        spec.PushForward(arc->unit_txn, arc->observer_txn, arc->to.index);
    arc->unit = UnitRange{first, last};
  }
}

std::string RenderUnit(const TransactionSet& txns, const ExplainedArc& arc) {
  if (!arc.unit.has_value()) return "";
  std::string ops;
  for (std::uint32_t k = arc.unit->first; k <= arc.unit->last; ++k) {
    ops += ToString(txns, txns.txn(arc.unit_txn).op(k));
  }
  return StrCat(" via unit [", ops, "] of T", arc.unit_txn + 1,
                " relative to T", arc.observer_txn + 1);
}

}  // namespace

RejectionExplanation ExplainRejection(const TransactionSet& txns,
                                      const Schedule& schedule,
                                      const AtomicitySpec& spec) {
  RejectionExplanation explanation;
  const RelativeSerializationGraph rsg(txns, schedule, spec);
  const auto cycle = FindCycle(rsg.graph());
  if (!cycle.has_value()) {
    explanation.relatively_serializable = true;
    explanation.text = "schedule is relatively serializable (RSG acyclic)\n";
    return explanation;
  }
  explanation.relatively_serializable = false;
  std::string text = StrCat("schedule is NOT relatively serializable; an RSG ",
                            "cycle of length ", cycle->size(), ":\n");
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    const NodeId from = (*cycle)[i];
    const NodeId to = (*cycle)[(i + 1) % cycle->size()];
    ExplainedArc arc;
    arc.from = rsg.indexer().Op(txns, from);
    arc.to = rsg.indexer().Op(txns, to);
    arc.kinds = rsg.KindsOf(from, to);
    AnnotateUnit(spec, &arc);
    text += StrCat("  ", ToString(txns, arc.from), " -> ",
                   ToString(txns, arc.to), "  [",
                   ArcKindsToString(arc.kinds), "]", RenderUnit(txns, arc),
                   "\n");
    explanation.cycle.push_back(std::move(arc));
  }
  text +=
      "every arc must point forward in any equivalent relatively serial\n"
      "schedule, so no such schedule exists (Theorem 1).\n";
  explanation.text = std::move(text);
  return explanation;
}

std::string ExplainWitnessArc(const TransactionSet& txns,
                              const AtomicitySpec& spec, std::uint8_t kinds,
                              const Operation& from, const Operation& to) {
  ExplainedArc arc;
  arc.from = from;
  arc.to = to;
  arc.kinds = kinds;
  AnnotateUnit(spec, &arc);
  std::string reason;
  if (kinds & kInternalArc) {
    reason = "program order within the transaction";
  } else if (kinds & kDependencyArc) {
    reason = "depends-on (conflict on a shared object)";
  } else if (kinds & kPushForwardArc) {
    reason = "push-forward: the unit must complete first";
  } else if (kinds & kPullBackwardArc) {
    reason = "pull-backward: the unit opened earlier";
  } else {
    reason = "conflict order between the transactions";
  }
  return StrCat(ToString(txns, arc.from), " must precede ",
                ToString(txns, arc.to), " [", ArcKindsToString(arc.kinds),
                "]: ", reason, RenderUnit(txns, arc));
}

}  // namespace relser
