// Unit tests for the graph substrate: Digraph, cycle detection,
// topological sorts, Tarjan SCC, transitive closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/closure.h"
#include "graph/cycle.h"
#include "graph/digraph.h"
#include "graph/tarjan.h"
#include "graph/topo.h"
#include "util/rng.h"

namespace relser {
namespace {

Digraph Chain(std::size_t n) {
  Digraph graph(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    graph.AddEdge(v, v + 1);
  }
  return graph;
}

// --------------------------------------------------------------- Digraph

TEST(Digraph, StartsEmpty) {
  Digraph graph(5);
  EXPECT_EQ(graph.node_count(), 5u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(graph.Edges().empty());
}

TEST(Digraph, AddEdgeDeduplicates) {
  Digraph graph(3);
  EXPECT_TRUE(graph.AddEdge(0, 1));
  EXPECT_FALSE(graph.AddEdge(0, 1));
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(1, 0));
}

TEST(Digraph, AdjacencyListsMirrorEachOther) {
  Digraph graph(4);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  const NeighborSpan outs0 = graph.OutNeighbors(0);
  EXPECT_EQ(std::vector<NodeId>(outs0.begin(), outs0.end()),
            (std::vector<NodeId>{2}));
  const NeighborSpan ins2 = graph.InNeighbors(2);
  EXPECT_EQ(std::vector<NodeId>(ins2.begin(), ins2.end()),
            (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(graph.InDegree(2), 2u);
  EXPECT_EQ(graph.OutDegree(2), 1u);
}

TEST(Digraph, RemoveEdge) {
  Digraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  EXPECT_TRUE(graph.RemoveEdge(0, 1));
  EXPECT_FALSE(graph.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_TRUE(graph.InNeighbors(1).empty());
}

TEST(Digraph, IsolateNodeRemovesAllIncidentEdges) {
  Digraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(3, 1);
  graph.AddEdge(0, 2);
  graph.IsolateNode(1);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.OutNeighbors(1).empty());
  EXPECT_TRUE(graph.InNeighbors(1).empty());
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(3, 1));
}

TEST(Digraph, IsolateNodeWithSelfLoop) {
  Digraph graph(2);
  graph.AddEdge(0, 0);
  graph.AddEdge(0, 1);
  graph.IsolateNode(0);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(Digraph, EnsureNodesGrows) {
  Digraph graph(2);
  graph.EnsureNodes(5);
  EXPECT_EQ(graph.node_count(), 5u);
  graph.EnsureNodes(3);  // never shrinks
  EXPECT_EQ(graph.node_count(), 5u);
  EXPECT_TRUE(graph.AddEdge(4, 0));
}

TEST(Digraph, EdgesEnumeratesAll) {
  Digraph graph(3);
  graph.AddEdge(2, 0);
  graph.AddEdge(0, 1);
  const auto edges = graph.Edges();
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      std::make_pair(NodeId{2}, NodeId{0})),
            edges.end());
}

TEST(Digraph, SwapCompactedEdgeCanStillBeFoundAndRemoved) {
  // Removing from the middle of a neighbor list swap-moves the last entry
  // into the hole.
  Digraph graph(5);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(0, 3);
  graph.AddEdge(0, 4);
  EXPECT_TRUE(graph.RemoveEdge(0, 2));  // 0->4 moves into 0->2's slot
  EXPECT_TRUE(graph.HasEdge(0, 4));
  EXPECT_TRUE(graph.RemoveEdge(0, 4));  // must find it at its new slot
  EXPECT_FALSE(graph.HasEdge(0, 4));
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(0, 3));
  EXPECT_EQ(graph.edge_count(), 2u);
  // Re-adding a removed edge works and dedup still holds.
  EXPECT_TRUE(graph.AddEdge(0, 2));
  EXPECT_FALSE(graph.AddEdge(0, 2));
  EXPECT_EQ(graph.edge_count(), 3u);
}

TEST(Digraph, RandomizedChurnAgainstSetReference) {
  Rng rng(98765);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 2 + rng.UniformIndex(8);
    Digraph original(n);
    // Mid-round the churn moves to a deep copy assigned into a graph of
    // another size, and the original's arena is released.
    Digraph copy(n + 3);
    copy.AddEdge(n + 2, 0);
    Digraph* live = &original;
    std::set<std::pair<NodeId, NodeId>> reference;
    for (int step = 0; step < 300; ++step) {
      if (step == 150) {
        copy = original;
        original = Digraph();
        live = &copy;
        ASSERT_EQ(copy.node_count(), n);
      }
      Digraph& graph = *live;
      const NodeId a = rng.UniformIndex(n);
      const NodeId b = rng.UniformIndex(n);
      const double roll = rng.UniformDouble();
      if (roll < 0.45) {
        EXPECT_EQ(graph.AddEdge(a, b), reference.emplace(a, b).second);
      } else if (roll < 0.8) {
        EXPECT_EQ(graph.RemoveEdge(a, b), reference.erase({a, b}) > 0);
      } else if (roll < 0.85) {
        graph.IsolateNode(a);
        std::erase_if(reference, [a](const auto& edge) {
          return edge.first == a || edge.second == a;
        });
      } else if (roll < 0.9) {
        // A random node subset at once, with edges inside and across it.
        std::vector<NodeId> nodes;
        std::vector<std::uint8_t> member(n, 0);
        for (NodeId v = 0; v < n; ++v) {
          if (rng.Bernoulli(0.4)) {
            nodes.push_back(v);
            member[v] = 1;
          }
        }
        graph.IsolateNodes(nodes, member);
        std::erase_if(reference, [&member](const auto& edge) {
          return member[edge.first] != 0 || member[edge.second] != 0;
        });
      } else {
        EXPECT_EQ(graph.HasEdge(a, b), reference.count({a, b}) > 0);
      }
      ASSERT_EQ(graph.edge_count(), reference.size());
    }
    // Final structural audit: edges, degrees, and mirrored adjacency.
    const Digraph& graph = *live;
    for (NodeId a = 0; a < n; ++a) {
      std::size_t out = 0;
      for (NodeId b = 0; b < n; ++b) {
        if (reference.count({a, b}) > 0) {
          ++out;
          EXPECT_TRUE(graph.HasEdge(a, b));
          const auto& outs = graph.OutNeighbors(a);
          const auto& ins = graph.InNeighbors(b);
          EXPECT_NE(std::find(outs.begin(), outs.end(), b), outs.end());
          EXPECT_NE(std::find(ins.begin(), ins.end(), a), ins.end());
        } else {
          EXPECT_FALSE(graph.HasEdge(a, b));
        }
      }
      EXPECT_EQ(graph.OutDegree(a), out);
    }
  }
}

// Many members point into one survivor, the way settled operations point
// into the surviving transaction they conflict with: the first crossing
// edge filters every member out of the survivor's in-list, and the later
// ones must neither unlink again nor miscount. Survivor–survivor and
// member–member edges, a survivor-to-member edge and a member self-loop
// ride along; afterwards every list must equal the reference as a set.
TEST(Digraph, IsolateNodesManyCrossingEdgesOntoOneSurvivor) {
  constexpr std::size_t kNodes = 16;
  constexpr NodeId kHub = 12;  // the survivor most edges land on
  Digraph graph(kNodes);
  std::set<std::pair<NodeId, NodeId>> reference;
  const auto add = [&](NodeId from, NodeId to) {
    ASSERT_TRUE(graph.AddEdge(from, to));
    reference.emplace(from, to);
  };
  std::vector<NodeId> nodes;
  std::vector<std::uint8_t> member(kNodes, 0);
  for (NodeId v = 0; v < 8; ++v) {  // members 0..7
    nodes.push_back(v);
    member[v] = 1;
    add(v, kHub);
    if (v % 2 == 0) add(v, 13);  // a second survivor, half as many
    if (v > 0) add(v - 1, v);    // member-member chain
  }
  add(3, 3);  // member self-loop
  add(14, 5);  // survivor -> member
  for (NodeId v = 8; v < kNodes; ++v) {  // survivor-survivor
    if (v != kHub) add(v, kHub);
    if (v + 1 < kNodes && v + 1 != kHub) add(v, v + 1);
  }
  add(kHub, 8);

  graph.IsolateNodes(nodes, member);
  std::erase_if(reference, [&member](const auto& edge) {
    return member[edge.first] != 0 || member[edge.second] != 0;
  });
  ASSERT_EQ(graph.edge_count(), reference.size());
  for (NodeId v = 0; v < kNodes; ++v) {
    std::set<NodeId> outs;
    std::set<NodeId> ins;
    for (const auto& [from, to] : reference) {
      if (from == v) outs.insert(to);
      if (to == v) ins.insert(from);
    }
    const NeighborSpan out = graph.OutNeighbors(v);
    const NeighborSpan in = graph.InNeighbors(v);
    EXPECT_EQ(out.size(), outs.size()) << "out-list of " << v;
    EXPECT_EQ(in.size(), ins.size()) << "in-list of " << v;
    EXPECT_EQ(std::set<NodeId>(out.begin(), out.end()), outs)
        << "out-list of " << v;
    EXPECT_EQ(std::set<NodeId>(in.begin(), in.end()), ins)
        << "in-list of " << v;
  }
  // A second call over the same (now isolated) members changes nothing,
  // and the survivors' lists still take new edges.
  graph.IsolateNodes(nodes, member);
  EXPECT_EQ(graph.edge_count(), reference.size());
  EXPECT_TRUE(graph.AddEdge(kHub, 14));
  EXPECT_FALSE(graph.AddEdge(8, kHub));
}

// ----------------------------------------------------------------- cycle

TEST(Cycle, ChainIsAcyclic) {
  EXPECT_FALSE(HasCycle(Chain(10)));
}

TEST(Cycle, SelfLoopIsCycle) {
  Digraph graph(2);
  graph.AddEdge(1, 1);
  EXPECT_TRUE(HasCycle(graph));
}

TEST(Cycle, TriangleCycleFound) {
  Digraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  const auto cycle = FindCycle(graph);
  ASSERT_TRUE(cycle.has_value());
  // The returned sequence must be a real directed cycle.
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    EXPECT_TRUE(
        graph.HasEdge((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]));
  }
}

TEST(Cycle, DiamondIsAcyclic) {
  Digraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 3);
  graph.AddEdge(2, 3);
  EXPECT_FALSE(HasCycle(graph));
  EXPECT_FALSE(FindCycle(graph).has_value());
}

TEST(Cycle, CycleInSecondComponent) {
  Digraph graph(6);
  graph.AddEdge(0, 1);  // acyclic part
  graph.AddEdge(3, 4);
  graph.AddEdge(4, 5);
  graph.AddEdge(5, 3);
  ASSERT_TRUE(HasCycle(graph));
  const auto cycle = FindCycle(graph);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
}

TEST(Cycle, ReachableBasics) {
  Digraph graph = Chain(5);
  EXPECT_TRUE(Reachable(graph, 0, 4));
  EXPECT_FALSE(Reachable(graph, 4, 0));
  EXPECT_TRUE(Reachable(graph, 2, 2));  // length-0 path
}

TEST(Cycle, ReachableSetSortedAndComplete) {
  Digraph graph(5);
  graph.AddEdge(0, 2);
  graph.AddEdge(2, 4);
  graph.AddEdge(1, 3);
  EXPECT_EQ(ReachableSet(graph, 0), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(ReachableSet(graph, 3), (std::vector<NodeId>{3}));
}

// ------------------------------------------------------------------ topo

TEST(Topo, SortRespectsEdges) {
  Digraph graph(5);
  graph.AddEdge(3, 1);
  graph.AddEdge(1, 4);
  graph.AddEdge(0, 2);
  const auto order = TopologicalSort(graph);
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> position(5);
  for (std::size_t i = 0; i < order->size(); ++i) {
    position[(*order)[i]] = i;
  }
  for (const auto& [from, to] : graph.Edges()) {
    EXPECT_LT(position[from], position[to]);
  }
}

TEST(Topo, SortDetectsCycle) {
  Digraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  EXPECT_FALSE(TopologicalSort(graph).has_value());
  EXPECT_FALSE(LexMinTopologicalSort(graph).has_value());
}

TEST(Topo, LexMinIsLexicographicallySmallest) {
  // 2 -> 0, so 1 is the smallest available first node.
  Digraph graph(3);
  graph.AddEdge(2, 0);
  const auto order = LexMinTopologicalSort(graph);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{1, 2, 0}));
}

TEST(Topo, PriorityOrderPrefersLowPriorityReadyNodes) {
  Digraph graph(4);
  graph.AddEdge(0, 1);
  // priorities: node 3 most urgent, then 2.
  const auto order = PriorityTopologicalSort(graph, {3, 2, 1, 0});
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{3, 2, 0, 1}));
}

TEST(Topo, EmptyGraph) {
  Digraph graph(0);
  const auto order = TopologicalSort(graph);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

// ---------------------------------------------------------------- tarjan

TEST(Tarjan, SingletonComponentsOnDag) {
  const SccResult sccs = StronglyConnectedComponents(Chain(4));
  EXPECT_EQ(sccs.component_count(), 4u);
  EXPECT_TRUE(IsAcyclicByScc(Chain(4)));
}

TEST(Tarjan, FindsNontrivialComponent) {
  Digraph graph(5);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 1);
  graph.AddEdge(2, 3);
  const SccResult sccs = StronglyConnectedComponents(graph);
  EXPECT_EQ(sccs.component_count(), 4u);  // {0} {1,2} {3} {4}
  EXPECT_EQ(sccs.component[1], sccs.component[2]);
  EXPECT_NE(sccs.component[0], sccs.component[1]);
  const auto& members = sccs.members[sccs.component[1]];
  EXPECT_EQ(members, (std::vector<NodeId>{1, 2}));
  EXPECT_FALSE(IsAcyclicByScc(graph));
}

TEST(Tarjan, SelfLoopDetectedAsCyclic) {
  Digraph graph(2);
  graph.AddEdge(0, 0);
  EXPECT_FALSE(IsAcyclicByScc(graph));
}

TEST(Tarjan, ComponentsInReverseTopologicalOrder) {
  Digraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  const SccResult sccs = StronglyConnectedComponents(graph);
  // Tarjan emits sinks first: component ids increase against edges.
  EXPECT_GT(sccs.component[0], sccs.component[1]);
  EXPECT_GT(sccs.component[1], sccs.component[2]);
}

TEST(Tarjan, AgreesWithDfsCycleDetectionOnRandomGraphs) {
  Rng rng(321);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 2 + rng.UniformIndex(10);
    Digraph graph(n);
    const std::size_t edges = rng.UniformIndex(2 * n);
    for (std::size_t e = 0; e < edges; ++e) {
      graph.AddEdge(rng.UniformIndex(n), rng.UniformIndex(n));
    }
    EXPECT_EQ(IsAcyclicByScc(graph), !HasCycle(graph)) << "round " << round;
  }
}

// --------------------------------------------------------------- closure

TEST(Closure, ChainReachability) {
  const Digraph chain = Chain(5);
  std::vector<NodeId> order = {0, 1, 2, 3, 4};
  const TransitiveClosure closure =
      TransitiveClosure::FromDagOrder(chain, order);
  EXPECT_TRUE(closure.Reaches(0, 4));
  EXPECT_TRUE(closure.Reaches(2, 3));
  EXPECT_FALSE(closure.Reaches(3, 2));
  EXPECT_FALSE(closure.Reaches(0, 0));  // irreflexive
}

TEST(Closure, CyclicGraphViaDfsVariant) {
  Digraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);
  const TransitiveClosure closure = TransitiveClosure::FromAnyGraph(graph);
  EXPECT_TRUE(closure.Reaches(0, 1));
  EXPECT_TRUE(closure.Reaches(1, 0));
  EXPECT_TRUE(closure.Reaches(0, 0));  // reachable through the cycle
  EXPECT_FALSE(closure.Reaches(2, 0));
}

TEST(Closure, BothMethodsAgreeOnRandomDags) {
  Rng rng(654);
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 2 + rng.UniformIndex(12);
    Digraph dag(n);
    for (std::size_t e = 0; e < 2 * n; ++e) {
      NodeId a = rng.UniformIndex(n);
      NodeId b = rng.UniformIndex(n);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      dag.AddEdge(a, b);
    }
    std::vector<NodeId> order(n);
    for (NodeId v = 0; v < n; ++v) order[v] = v;
    const TransitiveClosure fast = TransitiveClosure::FromDagOrder(dag, order);
    const TransitiveClosure slow = TransitiveClosure::FromAnyGraph(dag);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        EXPECT_EQ(fast.Reaches(a, b), slow.Reaches(a, b))
            << "round " << round << " " << a << "->" << b;
      }
    }
  }
}

TEST(Closure, RowExposesReachableSet) {
  const Digraph chain = Chain(4);
  const TransitiveClosure closure = TransitiveClosure::FromAnyGraph(chain);
  EXPECT_EQ(closure.Row(1).ToVector(), (std::vector<std::size_t>{2, 3}));
}

}  // namespace
}  // namespace relser
