#include "core/repair.h"

#include "core/rsg.h"
#include "graph/cycle.h"
#include "model/text.h"
#include "util/check.h"
#include "util/strings.h"

namespace relser {

SpecRepair RepairSpec(const TransactionSet& txns, const Schedule& schedule,
                      const AtomicitySpec& spec) {
  SpecRepair repair;
  repair.repaired = spec;
  bool first_pass = true;
  while (true) {
    const RelativeSerializationGraph rsg(txns, schedule, repair.repaired);
    const auto cycle = FindCycle(rsg.graph());
    if (!cycle.has_value()) {
      repair.already_serializable = first_pass;
      return repair;
    }
    first_pass = false;
    // Every cycle contains an arc pointing backward in schedule order,
    // and backward arcs are necessarily pure F- or B-arcs (I- and D-arcs
    // follow the schedule). Concede a breakpoint that removes it.
    bool progressed = false;
    for (std::size_t i = 0; i < cycle->size() && !progressed; ++i) {
      const NodeId from = (*cycle)[i];
      const NodeId to = (*cycle)[(i + 1) % cycle->size()];
      const Operation& u = rsg.indexer().Op(txns, from);
      const Operation& v = rsg.indexer().Op(txns, to);
      if (schedule.Precedes(u, v)) continue;  // forward arc
      const std::uint8_t kinds = rsg.KindsOf(from, to);
      SuggestedBreakpoint suggestion;
      if (kinds & kPushForwardArc) {
        // `u` is PushForward(dep, txn(v)): break just before the unit
        // end so the forward push stops short of `u`.
        RELSER_CHECK_MSG(u.index > 0, "backward F-arc from a unit of one "
                                      "operation is impossible");
        suggestion = SuggestedBreakpoint{u.txn, v.txn, u.index - 1};
      } else {
        RELSER_CHECK_MSG(kinds & kPullBackwardArc,
                         "backward arc must be an F- or B-arc");
        // `v` is PullBackward(dep-target, txn(u)): break just after `v`
        // so the backward pull stops above it.
        RELSER_CHECK_MSG(v.index + 1 < txns.txn(v.txn).size(),
                         "backward B-arc into a unit of one operation is "
                         "impossible");
        suggestion = SuggestedBreakpoint{v.txn, u.txn, v.index};
      }
      RELSER_CHECK_MSG(!repair.repaired.HasBreakpoint(
                           suggestion.txn, suggestion.observer,
                           suggestion.gap),
                       "repair suggested an existing breakpoint");
      repair.repaired.SetBreakpoint(suggestion.txn, suggestion.observer,
                                    suggestion.gap);
      repair.added.push_back(suggestion);
      progressed = true;
    }
    RELSER_CHECK_MSG(progressed, "RSG cycle without a backward F/B arc");
  }
}

std::string SuggestionsToString(const TransactionSet& txns,
                                const SpecRepair& repair) {
  if (repair.already_serializable) {
    return "schedule is already relatively serializable; no concessions "
           "needed\n";
  }
  std::string out = StrCat("schedule becomes relatively serializable with ",
                           repair.added.size(), " concession(s):\n");
  for (const SuggestedBreakpoint& s : repair.added) {
    out += StrCat("  T", s.txn + 1, " should expose a breakpoint after ",
                  ToString(txns, txns.txn(s.txn).op(s.gap)), " to T",
                  s.observer + 1, "\n");
  }
  return out;
}

}  // namespace relser
