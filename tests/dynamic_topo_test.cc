// Tests for IncrementalTopology (Pearce-Kelly dynamic topological order),
// including a randomized differential test against the offline cycle
// detector — the property the online schedulers depend on.
#include <gtest/gtest.h>

#include "graph/cycle.h"
#include "graph/dynamic_topo.h"
#include "util/rng.h"

namespace relser {
namespace {

using AddResult = IncrementalTopology::AddResult;

TEST(IncrementalTopology, AcceptsForwardEdges) {
  IncrementalTopology topo(4);
  EXPECT_EQ(topo.AddEdge(0, 1), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(1, 2), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(0, 3), AddResult::kInserted);
  EXPECT_EQ(topo.edge_count(), 3u);
}

TEST(IncrementalTopology, ReportsDuplicates) {
  IncrementalTopology topo(3);
  EXPECT_EQ(topo.AddEdge(0, 1), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(0, 1), AddResult::kDuplicate);
  EXPECT_EQ(topo.edge_count(), 1u);
}

TEST(IncrementalTopology, RejectsSelfLoop) {
  IncrementalTopology topo(2);
  EXPECT_EQ(topo.AddEdge(1, 1), AddResult::kCycle);
  EXPECT_EQ(topo.edge_count(), 0u);
}

TEST(IncrementalTopology, RejectsTwoCycle) {
  IncrementalTopology topo(2);
  EXPECT_EQ(topo.AddEdge(0, 1), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(1, 0), AddResult::kCycle);
  // Rejected insert leaves the structure unchanged.
  EXPECT_EQ(topo.edge_count(), 1u);
  EXPECT_EQ(topo.AddEdge(1, 0), AddResult::kCycle);
}

TEST(IncrementalTopology, BackwardEdgeTriggersReorder) {
  IncrementalTopology topo(3);
  // Initial order is 0,1,2; edge 2->0 forces 2 before 0.
  EXPECT_EQ(topo.AddEdge(2, 0), AddResult::kInserted);
  EXPECT_LT(topo.OrderOf(2), topo.OrderOf(0));
  // The order must remain valid for subsequent inserts.
  EXPECT_EQ(topo.AddEdge(0, 1), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(2, 1), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(1, 2), AddResult::kCycle);
}

TEST(IncrementalTopology, RemoveEdgeAllowsReinsertOpposite) {
  IncrementalTopology topo(2);
  topo.AddEdge(0, 1);
  EXPECT_TRUE(topo.RemoveEdge(0, 1));
  EXPECT_EQ(topo.AddEdge(1, 0), AddResult::kInserted);
}

TEST(IncrementalTopology, IsolateNodeClearsItsEdges) {
  IncrementalTopology topo(4);
  topo.AddEdge(0, 1);
  topo.AddEdge(1, 2);
  topo.AddEdge(2, 3);
  topo.IsolateNode(1);
  EXPECT_EQ(topo.edge_count(), 1u);
  // 2 -> 1 is now insertable (old 1 -> 2 is gone).
  EXPECT_EQ(topo.AddEdge(2, 1), AddResult::kInserted);
}

TEST(IncrementalTopology, EnsureNodesAppends) {
  IncrementalTopology topo(2);
  topo.AddEdge(0, 1);
  topo.EnsureNodes(4);
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_EQ(topo.AddEdge(3, 0), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(1, 3), AddResult::kCycle);
}

TEST(IncrementalTopology, OrderAlwaysConsistent) {
  IncrementalTopology topo(6);
  topo.AddEdge(5, 0);
  topo.AddEdge(4, 5);
  topo.AddEdge(0, 3);
  topo.AddEdge(3, 1);
  const auto order = topo.Order();
  std::vector<std::size_t> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [from, to] : topo.graph().Edges()) {
    EXPECT_LT(position[from], position[to]);
  }
}

// Differential fuzz: every AddEdge decision must agree with the offline
// detector, the maintained order must stay valid, and removals /
// isolations must be mirrored exactly.
TEST(IncrementalTopology, RandomizedDifferentialAgainstOfflineOracle) {
  Rng rng(20240601);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 2 + rng.UniformIndex(9);
    IncrementalTopology topo(n);
    Digraph reference(n);
    for (int step = 0; step < 50; ++step) {
      const double roll = rng.UniformDouble();
      const NodeId a = rng.UniformIndex(n);
      const NodeId b = rng.UniformIndex(n);
      if (roll < 0.65) {
        Digraph trial = reference;
        const bool is_new = a != b && trial.AddEdge(a, b);
        const bool closes_cycle = a == b || HasCycle(trial);
        const AddResult result = topo.AddEdge(a, b);
        if (a == b) {
          EXPECT_EQ(result, AddResult::kCycle);
          continue;
        }
        if (!is_new && !closes_cycle) {
          EXPECT_EQ(result, AddResult::kDuplicate);
        } else if (closes_cycle) {
          EXPECT_EQ(result, AddResult::kCycle) << "missed cycle";
        } else {
          EXPECT_EQ(result, AddResult::kInserted) << "false cycle";
          reference.AddEdge(a, b);
        }
      } else if (roll < 0.85) {
        EXPECT_EQ(topo.RemoveEdge(a, b), reference.RemoveEdge(a, b));
      } else {
        topo.IsolateNode(a);
        reference.IsolateNode(a);
      }
      ASSERT_EQ(topo.edge_count(), reference.edge_count());
      const auto order = topo.Order();
      std::vector<std::size_t> position(n);
      for (std::size_t i = 0; i < n; ++i) position[order[i]] = i;
      for (const auto& [from, to] : reference.Edges()) {
        ASSERT_LT(position[from], position[to])
            << "order invalidated at round " << round << " step " << step;
      }
    }
  }
}

// A backward arc into a node with no out-arcs moves that sink to the next
// label; no Pearce-Kelly repair runs.
TEST(IncrementalTopology, BackwardArcIntoSinkSkipsRepair) {
  IncrementalTopology topo(4);
  ASSERT_EQ(topo.AddEdge(2, 3), AddResult::kInserted);
  ASSERT_EQ(topo.AddEdge(3, 1), AddResult::kInserted);
  ASSERT_GT(topo.OrderOf(3), topo.OrderOf(0));  // 3 -> 0 is backward
  EXPECT_EQ(topo.AddEdge(3, 0), AddResult::kInserted);
  EXPECT_EQ(topo.reorder_count(), 0u);
  EXPECT_LT(topo.OrderOf(3), topo.OrderOf(0));
  EXPECT_TRUE(topo.AddEdges({{0, 1}}));  // 1 is still a sink
  EXPECT_EQ(topo.reorder_count(), 0u);
  EXPECT_LT(topo.OrderOf(0), topo.OrderOf(1));
  // A backward arc whose target has out-arcs still needs a repair.
  EXPECT_EQ(topo.AddEdge(1, 2), AddResult::kCycle);
  ASSERT_GT(topo.OrderOf(0), topo.OrderOf(2));
  EXPECT_EQ(topo.AddEdge(0, 2), AddResult::kCycle);  // 2 -> 3 -> 0
  IncrementalTopology fresh(3);
  ASSERT_EQ(fresh.AddEdge(1, 2), AddResult::kInserted);
  ASSERT_GT(fresh.OrderOf(1), fresh.OrderOf(0));
  EXPECT_EQ(fresh.AddEdge(2, 0), AddResult::kInserted);
  EXPECT_EQ(fresh.AddEdge(0, 1), AddResult::kCycle);
  EXPECT_EQ(fresh.reorder_count(), 0u);
}

// An isolated node takes the next label when it first becomes a source,
// from AddEdge and from AddEdges alike; a node with arcs keeps its label.
TEST(IncrementalTopology, IsolatedSourceTakesNextLabel) {
  IncrementalTopology topo(8);
  ASSERT_EQ(topo.AddEdge(0, 1), AddResult::kInserted);
  const std::size_t zero = topo.OrderOf(0);
  const std::size_t one = topo.OrderOf(1);
  EXPECT_EQ(zero, 8u);  // first label past the initial 0..7
  EXPECT_GT(one, zero);
  EXPECT_TRUE(topo.AddEdges({{2, 1}}));
  EXPECT_GT(topo.OrderOf(2), one);
  EXPECT_EQ(topo.OrderOf(0), zero);  // not isolated: no move
  EXPECT_EQ(topo.AddEdge(0, 3), AddResult::kInserted);
  EXPECT_EQ(topo.OrderOf(0), zero);
  EXPECT_EQ(topo.reorder_count(), 0u);
  const std::vector<NodeId> order = topo.Order();
  EXPECT_EQ(order.size(), 8u);
  EXPECT_LE(topo.label_span(), 2 * topo.node_count());
}

// Long mixed stream: after every step Order() is a permutation of all
// nodes consistent with every edge, and the label span stays within
// 2 * node_count.
TEST(IncrementalTopology, SparseLabelsStayValidUnderMixedStream) {
  Rng rng(14014);
  std::size_t n = 8;
  IncrementalTopology topo(n);
  Digraph reference(n);
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.UniformDouble();
    const NodeId a = rng.UniformIndex(n);
    const NodeId b = rng.UniformIndex(n);
    if (roll < 0.45) {
      if (topo.AddEdge(a, b) == AddResult::kInserted) reference.AddEdge(a, b);
    } else if (roll < 0.70) {
      std::vector<std::pair<NodeId, NodeId>> arcs;
      const std::size_t count = 1 + rng.UniformIndex(4);
      for (std::size_t k = 0; k < count; ++k) {
        arcs.emplace_back(rng.UniformIndex(n), rng.UniformIndex(n));
      }
      if (topo.AddEdges(arcs)) {
        for (const auto& [from, to] : arcs) {
          if (from != to) reference.AddEdge(from, to);
        }
      }
    } else if (roll < 0.85) {
      ASSERT_EQ(topo.RemoveEdge(a, b), reference.RemoveEdge(a, b));
    } else if (roll < 0.995) {
      topo.IsolateNode(a);
      reference.IsolateNode(a);
    } else {
      n += 1 + rng.UniformIndex(3);
      topo.EnsureNodes(n);
      reference.EnsureNodes(n);
    }
    ASSERT_EQ(topo.edge_count(), reference.edge_count()) << "step " << step;
    ASSERT_LE(topo.label_span(), 2 * topo.node_count()) << "step " << step;
    const std::vector<NodeId> order = topo.Order();
    ASSERT_EQ(order.size(), n) << "step " << step;
    std::vector<std::size_t> position(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LT(order[i], n);
      ASSERT_EQ(position[order[i]], n) << "node repeated at step " << step;
      position[order[i]] = i;
    }
    for (const auto& [from, to] : reference.Edges()) {
      ASSERT_LT(position[from], position[to]) << "step " << step;
      ASSERT_LT(topo.OrderOf(from), topo.OrderOf(to)) << "step " << step;
    }
  }
}

TEST(AddEdges, EmptyBatchSucceeds) {
  IncrementalTopology topo(2);
  EXPECT_TRUE(topo.AddEdges({}));
  EXPECT_EQ(topo.edge_count(), 0u);
}

TEST(AddEdges, InsertsAllArcsAndTolerateDuplicates) {
  IncrementalTopology topo(4);
  topo.AddEdge(0, 1);
  EXPECT_TRUE(topo.AddEdges({{0, 1}, {1, 2}, {1, 2}, {2, 3}}));
  EXPECT_EQ(topo.edge_count(), 3u);
  EXPECT_TRUE(topo.graph().HasEdge(1, 2));
  EXPECT_TRUE(topo.graph().HasEdge(2, 3));
}

TEST(AddEdges, RollsBackEverythingOnCycle) {
  IncrementalTopology topo(4);
  topo.AddEdge(0, 1);
  // With the pre-existing 0->1, arc 3->0 closes the cycle 0->1->2->3->0
  // after 1->2 and 2->3 were already inserted by this batch.
  EXPECT_FALSE(topo.AddEdges({{1, 2}, {2, 3}, {3, 0}, {2, 1}}));
  // All-or-nothing: only the pre-existing edge survives.
  EXPECT_EQ(topo.edge_count(), 1u);
  EXPECT_TRUE(topo.graph().HasEdge(0, 1));
  EXPECT_FALSE(topo.graph().HasEdge(1, 2));
  EXPECT_FALSE(topo.graph().HasEdge(3, 0));
  // The structure is still usable and consistent after rollback.
  EXPECT_EQ(topo.AddEdge(1, 2), AddResult::kInserted);
  EXPECT_EQ(topo.AddEdge(2, 0), AddResult::kCycle);
}

TEST(AddEdges, SelfLoopInBatchRejectsWholeBatch) {
  IncrementalTopology topo(3);
  EXPECT_FALSE(topo.AddEdges({{0, 1}, {2, 2}}));
  EXPECT_EQ(topo.edge_count(), 0u);
}

// Regression: pass 1 defers order-inconsistent arcs by *index*. Re-testing
// the position predicate in pass 2 is wrong because earlier pass-2 inserts
// reorder positions — a deferred arc could then look "already consistent"
// and be skipped entirely, silently missing cycles later.
TEST(AddEdges, DeferredArcsAreInsertedEvenAfterReorders) {
  IncrementalTopology topo(4);
  // Initial order 0,1,2,3: both arcs are backward, so both are deferred.
  // Inserting 3->1 reorders to 0,3,2,1 — at which point 2->1 *looks*
  // order-consistent, and re-testing the predicate would skip it.
  EXPECT_TRUE(topo.AddEdges({{3, 1}, {2, 1}}));
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_TRUE(topo.graph().HasEdge(3, 1));
  EXPECT_TRUE(topo.graph().HasEdge(2, 1));
  // The skipped arc would have let this cycle through.
  EXPECT_EQ(topo.AddEdge(1, 2), AddResult::kCycle);
}

// Batched insertion must agree with "insert one at a time, unwind on
// failure" — the semantics the schedulers relied on before the batch API.
TEST(AddEdges, RandomizedEquivalentToPerEdgeTrialInsertion) {
  Rng rng(77001);
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = 2 + rng.UniformIndex(8);
    IncrementalTopology batched(n);
    IncrementalTopology per_edge(n);
    for (int step = 0; step < 12; ++step) {
      std::vector<std::pair<NodeId, NodeId>> arcs;
      const std::size_t count = rng.UniformIndex(5);
      for (std::size_t k = 0; k < count; ++k) {
        arcs.emplace_back(rng.UniformIndex(n), rng.UniformIndex(n));
      }
      const bool batch_ok = batched.AddEdges(arcs);
      // Reference: per-edge trial insertion with manual unwind.
      std::vector<std::pair<NodeId, NodeId>> inserted;
      bool ref_ok = true;
      for (const auto& [from, to] : arcs) {
        const AddResult result = per_edge.AddEdge(from, to);
        if (result == AddResult::kInserted) {
          inserted.emplace_back(from, to);
        } else if (result == AddResult::kCycle) {
          for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
            per_edge.RemoveEdge(it->first, it->second);
          }
          ref_ok = false;
          break;
        }
      }
      ASSERT_EQ(batch_ok, ref_ok) << "round " << round << " step " << step;
      ASSERT_EQ(batched.edge_count(), per_edge.edge_count());
      for (const auto& [from, to] : per_edge.graph().Edges()) {
        ASSERT_TRUE(batched.graph().HasEdge(from, to));
      }
    }
  }
}

}  // namespace
}  // namespace relser
