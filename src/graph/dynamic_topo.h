// Incremental cycle detection via a dynamic topological order
// (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
// Acyclic Graphs", JEA 2007).
//
// The online RSGT/SGT schedulers admit one operation at a time, adding the
// arcs it induces and rejecting the operation if an arc would close a
// cycle. Rechecking acyclicity from scratch per arc costs O(V+E) each;
// Pearce-Kelly maintains a topological order and repairs only the
// affected region. bench_graph_ablation quantifies the gap.
//
// Placement. Positions are sparse *labels*: comparing two labels orders
// the nodes, and labels vacated by a move are holes that Order() skips.
// Nodes start labelled in id order, then get labels in first-touch order
// through two moves to the next unused label, each always valid:
//  * an isolated node (no arcs) takes the next label when it first
//    becomes an arc's source — it has no constraint to break;
//  * when an arc points backward and its target has no out-arcs, that
//    sink takes the next label instead of a Pearce-Kelly repair — nothing
//    follows a sink, and every node with a smaller label may precede it.
// Online admission touches operations roughly in admission order, and the
// newest operation is the target of most arcs while still a sink, so the
// order tracks admission time instead of id (transaction-major) order and
// most arcs insert without a repair. Moves never change which insertions
// succeed (that depends only on graph ∪ arcs being acyclic), only which
// arc of a rejected batch is reported. The label span never exceeds
// 2 * node_count: when it reaches that, the labels are renumbered densely
// in place, so memory stays O(nodes) and a move is amortized O(1).
//
// All traversal scratch is owned by the instance, so AddEdge/AddEdges/
// WouldCreateCycle perform no heap allocations in the steady state.
#ifndef RELSER_GRAPH_DYNAMIC_TOPO_H_
#define RELSER_GRAPH_DYNAMIC_TOPO_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace relser {

/// A DAG that stays acyclic: edge insertions that would create a cycle are
/// rejected (returning kCycle) and leave the structure unchanged.
class IncrementalTopology {
 public:
  enum class AddResult {
    kInserted,   ///< edge added, order repaired
    kDuplicate,  ///< edge already present; no change
    kCycle,      ///< insertion would create a cycle; rejected
  };

  /// Creates an empty DAG over `node_count` nodes, labelled in id order.
  explicit IncrementalTopology(std::size_t node_count);

  /// Grows the node universe; new nodes take the next labels, at the end
  /// of the topological order.
  void EnsureNodes(std::size_t node_count);

  /// Pre-sizes the underlying edge index for `expected_edges` edges.
  void Reserve(std::size_t expected_edges) { graph_.Reserve(expected_edges); }

  /// Pre-reserves per-node adjacency capacity; see
  /// Digraph::ReserveAdjacency.
  void ReserveAdjacency(std::size_t per_node) {
    graph_.ReserveAdjacency(per_node);
  }

  /// Attempts to insert edge from -> to, moving an isolated source or a
  /// sink target to the next label, or repairing the order, as needed.
  AddResult AddEdge(NodeId from, NodeId to);

  /// Attempts to insert a batch of arcs atomically. Returns true when the
  /// whole batch is in (duplicates are fine); when any arc would close a
  /// cycle, every arc inserted by this call is rolled back via the
  /// internal rollback log and false is returned. Because the outcome
  /// depends only on whether graph ∪ batch is acyclic, the result is
  /// independent of arc order; order-consistent arcs are inserted first so
  /// the Pearce-Kelly repair regions of the remaining arcs stay small.
  /// Isolated sources take their first-touch label before that test.
  /// This is the shared replacement for the per-caller "insert one edge at
  /// a time and unwind on failure" helpers the schedulers used to carry.
  bool AddEdges(const std::vector<std::pair<NodeId, NodeId>>& arcs);

  /// The arcs the last successful AddEdges call actually inserted
  /// (duplicates excluded) — what removing them would take back. Valid
  /// until the next AddEdges call.
  const std::vector<std::pair<NodeId, NodeId>>& last_inserted() const {
    return rollback_;
  }

  /// Removes all edges incident to `node` (transaction retirement in the
  /// online schedulers). The current order remains valid.
  void IsolateNode(NodeId node);

  /// IsolateNode for a whole set at once (see Digraph::IsolateNodes).
  void IsolateNodes(const std::vector<NodeId>& nodes,
                    const std::vector<std::uint8_t>& member) {
    graph_.IsolateNodes(nodes, member);
  }

  /// Removes one edge (trial-insertion rollback). Edge removal never
  /// invalidates the maintained order. Returns true when removed.
  bool RemoveEdge(NodeId from, NodeId to) {
    return graph_.RemoveEdge(from, to);
  }

  /// True iff the edge would close a cycle, *without* inserting it.
  bool WouldCreateCycle(NodeId from, NodeId to) const;

  /// Label of `node`: a smaller label means earlier in the maintained
  /// topological order. Labels are sparse; only their order is meaningful.
  std::size_t OrderOf(NodeId node) const { return position_[node]; }

  /// Current topological order (node ids, first to last; holes skipped).
  std::vector<NodeId> Order() const;

  /// One past the largest label in use; at most 2 * node_count.
  std::size_t label_span() const { return order_.size(); }

  const Digraph& graph() const { return graph_; }
  std::size_t node_count() const { return graph_.node_count(); }
  std::size_t edge_count() const { return graph_.edge_count(); }

  /// The edge whose insertion last returned kCycle (from AddEdge or
  /// AddEdges). Meaningful only immediately after a rejected insertion;
  /// the observability layer reads it to name the witnessing arc.
  std::pair<NodeId, NodeId> last_rejected_edge() const {
    return last_rejected_edge_;
  }

  /// Number of Pearce-Kelly order repairs performed so far (insertions
  /// that had to reorder a region, as opposed to order-consistent arcs
  /// and single-node moves to the next label).
  std::uint64_t reorder_count() const { return reorder_count_; }

 private:
  // Forward DFS from `start` over nodes with position <= `bound`.
  // Returns false when `target` was reached (cycle); visited nodes are
  // appended to delta_forward_.
  bool DiscoverForward(NodeId start, std::size_t bound, NodeId target);
  // Backward DFS from `start` over nodes with position >= `bound`;
  // visited nodes are appended to delta_backward_.
  void DiscoverBackward(NodeId start, std::size_t bound);
  // Reassigns positions so delta_backward_ precedes delta_forward_.
  void Reorder();
  bool Isolated(NodeId node) const {
    return graph_.OutDegree(node) == 0 && graph_.InDegree(node) == 0;
  }
  // Gives `node` the next label, renumbering first when the span is full.
  void MoveToNextLabel(NodeId node);
  // Renumbers the labels densely (0..node_count-1), keeping their order.
  void CompactLabels();

  static constexpr NodeId kHole = ~NodeId{0};

  Digraph graph_;
  std::vector<std::size_t> position_;  // node -> label
  std::vector<NodeId> order_;          // label -> node, kHole when vacated
  // Repair-DFS scratch: generation stamps (like probe_stamp_ below) make
  // "clear the visited set" a single counter bump instead of a walk over
  // the discovered region — failed insertions and large repairs pay no
  // cleanup pass.
  std::vector<std::uint64_t> visit_stamp_;
  std::uint64_t visit_gen_ = 0;
  std::vector<NodeId> delta_forward_;
  std::vector<NodeId> delta_backward_;
  std::vector<NodeId> stack_;                       // DFS scratch
  std::vector<std::size_t> pool_;                   // Reorder scratch
  // AddEdges undo log; after a successful call, its inserted arcs.
  std::vector<std::pair<NodeId, NodeId>> rollback_;
  std::vector<std::size_t> deferred_;                // AddEdges pass-2 arcs
  // WouldCreateCycle scratch: generation stamps avoid a per-probe clear.
  mutable std::vector<std::uint64_t> probe_stamp_;
  mutable std::vector<NodeId> probe_stack_;
  mutable std::uint64_t probe_gen_ = 0;
  std::pair<NodeId, NodeId> last_rejected_edge_{0, 0};
  std::uint64_t reorder_count_ = 0;
};

}  // namespace relser

#endif  // RELSER_GRAPH_DYNAMIC_TOPO_H_
