#include "graph/dynamic_topo.h"

#include <algorithm>

namespace relser {

IncrementalTopology::IncrementalTopology(std::size_t node_count)
    : graph_(node_count),
      position_(node_count),
      visit_stamp_(node_count, 0),
      probe_stamp_(node_count, 0) {
  // Moves append labels up to the 2 * node_count span limit; reserving it
  // keeps them allocation-free.
  order_.reserve(2 * node_count);
  for (NodeId node = 0; node < node_count; ++node) {
    position_[node] = node;
    order_.push_back(node);
  }
}

void IncrementalTopology::EnsureNodes(std::size_t node_count) {
  const std::size_t old = graph_.node_count();
  if (node_count <= old) return;
  graph_.EnsureNodes(node_count);
  position_.resize(node_count);
  order_.reserve(2 * node_count);
  visit_stamp_.resize(node_count, 0);
  probe_stamp_.resize(node_count, 0);
  // The span grows by as much as the node count, so it stays within
  // 2 * node_count.
  for (NodeId node = old; node < node_count; ++node) {
    position_[node] = order_.size();
    order_.push_back(node);
  }
}

void IncrementalTopology::MoveToNextLabel(NodeId node) {
  if (order_.size() >= 2 * position_.size()) CompactLabels();
  order_[position_[node]] = kHole;
  position_[node] = order_.size();
  order_.push_back(node);
}

void IncrementalTopology::CompactLabels() {
  std::size_t next = 0;
  for (const NodeId node : order_) {
    if (node == kHole) continue;
    position_[node] = next;
    order_[next++] = node;
  }
  order_.resize(next);
}

IncrementalTopology::AddResult IncrementalTopology::AddEdge(NodeId from,
                                                            NodeId to) {
  RELSER_CHECK(from < graph_.node_count() && to < graph_.node_count());
  if (from == to) {
    last_rejected_edge_ = {from, to};
    return AddResult::kCycle;
  }
  if (graph_.HasEdge(from, to)) return AddResult::kDuplicate;
  if (Isolated(from)) MoveToNextLabel(from);  // first touch
  const std::size_t lower = position_[to];
  const std::size_t upper = position_[from];
  if (lower > upper) {
    // Order already consistent with the new edge.
    graph_.AddEdge(from, to);
    return AddResult::kInserted;
  }
  if (graph_.OutDegree(to) == 0) {
    // A sink reaches nothing, so no cycle; placing it last is valid.
    MoveToNextLabel(to);
    graph_.AddEdge(from, to);
    return AddResult::kInserted;
  }
  // Affected region is [lower, upper]; discover it.
  delta_forward_.clear();
  delta_backward_.clear();
  ++visit_gen_;  // discards the previous repair's visited set wholesale
  const bool acyclic = DiscoverForward(to, upper, from);
  if (!acyclic) {
    last_rejected_edge_ = {from, to};
    return AddResult::kCycle;
  }
  DiscoverBackward(from, lower);
  Reorder();
  ++reorder_count_;
  graph_.AddEdge(from, to);
  return AddResult::kInserted;
}

bool IncrementalTopology::AddEdges(
    const std::vector<std::pair<NodeId, NodeId>>& arcs) {
  rollback_.clear();
  deferred_.clear();
  // Pass 1: arcs the current order already agrees with never trigger a
  // repair; inserting them first keeps the repair regions of pass 2 small.
  // Deferred arcs are remembered by index — pass-2 reorders move
  // positions, so the predicate cannot be re-evaluated later.
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto& [from, to] = arcs[i];
    if (from != to && Isolated(from)) MoveToNextLabel(from);  // first touch
    if (from != to && position_[from] < position_[to]) {
      if (graph_.AddEdge(from, to)) {
        rollback_.emplace_back(from, to);
      }
    } else {
      deferred_.push_back(i);
    }
  }
  for (const std::size_t i : deferred_) {
    const auto& [from, to] = arcs[i];
    switch (AddEdge(from, to)) {
      case AddResult::kInserted:
        rollback_.emplace_back(from, to);
        break;
      case AddResult::kDuplicate:
        break;
      case AddResult::kCycle:
        // All-or-nothing: unwind everything this call inserted. Removal
        // never invalidates the maintained order, so no repair is needed.
        for (auto it = rollback_.rbegin(); it != rollback_.rend(); ++it) {
          graph_.RemoveEdge(it->first, it->second);
        }
        return false;
    }
  }
  return true;
}

bool IncrementalTopology::WouldCreateCycle(NodeId from, NodeId to) const {
  if (from == to) return true;
  if (position_[to] > position_[from]) return false;
  // Any path to -> ... -> from must stay within positions <= pos(from).
  ++probe_gen_;
  probe_stack_.clear();
  probe_stack_.push_back(to);
  probe_stamp_[to] = probe_gen_;
  const std::size_t bound = position_[from];
  while (!probe_stack_.empty()) {
    const NodeId node = probe_stack_.back();
    probe_stack_.pop_back();
    if (node == from) return true;
    for (const NodeId succ : graph_.OutNeighbors(node)) {
      if (probe_stamp_[succ] != probe_gen_ && position_[succ] <= bound) {
        probe_stamp_[succ] = probe_gen_;
        probe_stack_.push_back(succ);
      }
    }
  }
  return false;
}

bool IncrementalTopology::DiscoverForward(NodeId start, std::size_t bound,
                                          NodeId target) {
  stack_.clear();
  stack_.push_back(start);
  visit_stamp_[start] = visit_gen_;
  delta_forward_.push_back(start);
  while (!stack_.empty()) {
    const NodeId node = stack_.back();
    stack_.pop_back();
    if (node == target) return false;
    for (const NodeId succ : graph_.OutNeighbors(node)) {
      if (succ == target) return false;
      if (visit_stamp_[succ] != visit_gen_ && position_[succ] <= bound) {
        visit_stamp_[succ] = visit_gen_;
        delta_forward_.push_back(succ);
        stack_.push_back(succ);
      }
    }
  }
  return true;
}

void IncrementalTopology::DiscoverBackward(NodeId start, std::size_t bound) {
  stack_.clear();
  stack_.push_back(start);
  visit_stamp_[start] = visit_gen_;
  delta_backward_.push_back(start);
  while (!stack_.empty()) {
    const NodeId node = stack_.back();
    stack_.pop_back();
    for (const NodeId pred : graph_.InNeighbors(node)) {
      if (visit_stamp_[pred] != visit_gen_ && position_[pred] >= bound) {
        visit_stamp_[pred] = visit_gen_;
        delta_backward_.push_back(pred);
        stack_.push_back(pred);
      }
    }
  }
}

void IncrementalTopology::Reorder() {
  // Sort both deltas by current position, pool their position indices,
  // and reassign: backward set first, then forward set.
  auto by_position = [this](NodeId a, NodeId b) {
    return position_[a] < position_[b];
  };
  std::sort(delta_backward_.begin(), delta_backward_.end(), by_position);
  std::sort(delta_forward_.begin(), delta_forward_.end(), by_position);

  pool_.clear();
  pool_.reserve(delta_backward_.size() + delta_forward_.size());
  for (const NodeId node : delta_backward_) pool_.push_back(position_[node]);
  for (const NodeId node : delta_forward_) pool_.push_back(position_[node]);
  std::sort(pool_.begin(), pool_.end());

  std::size_t slot = 0;
  for (const NodeId node : delta_backward_) {
    position_[node] = pool_[slot];
    order_[pool_[slot]] = node;
    ++slot;
  }
  for (const NodeId node : delta_forward_) {
    position_[node] = pool_[slot];
    order_[pool_[slot]] = node;
    ++slot;
  }
}

void IncrementalTopology::IsolateNode(NodeId node) {
  graph_.IsolateNode(node);
}

std::vector<NodeId> IncrementalTopology::Order() const {
  std::vector<NodeId> order;
  order.reserve(node_count());
  for (const NodeId node : order_) {
    if (node != kHole) order.push_back(node);
  }
  return order;
}

}  // namespace relser
