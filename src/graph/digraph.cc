#include "graph/digraph.h"

#include <algorithm>

namespace relser {

void Digraph::AdjArena::NewBlock(std::size_t min_size) {
  const std::size_t size = std::max(min_size, next_block_size_);
  blocks_.push_back(std::make_unique<NodeId[]>(size));
  bump_ = blocks_.back().get();
  remaining_ = size;
  next_block_size_ = size * 2;
}

void Digraph::Push(AdjList& list, NodeId value) {
  if (list.size == list.capacity) {
    const std::uint32_t grown = list.capacity == 0 ? 4 : list.capacity * 2;
    NodeId* slab = arena_.Allocate(grown);
    std::copy(list.data, list.data + list.size, slab);
    list.data = slab;  // the old slab is abandoned inside the arena
    list.capacity = grown;
  }
  list.data[list.size++] = value;
}

Digraph& Digraph::operator=(const Digraph& other) {
  if (this == &other) return *this;
  out_.assign(other.out_.size(), AdjList{});
  in_.assign(other.in_.size(), AdjList{});
  arena_.Clear();
  arena_.Reserve(2 * other.edge_count_);
  for (NodeId node = 0; node < other.out_.size(); ++node) {
    const AdjList& src_out = other.out_[node];
    AdjList& dst_out = out_[node];
    dst_out.data = arena_.Allocate(src_out.size);
    dst_out.size = dst_out.capacity = src_out.size;
    std::copy(src_out.data, src_out.data + src_out.size, dst_out.data);
    const AdjList& src_in = other.in_[node];
    AdjList& dst_in = in_[node];
    dst_in.data = arena_.Allocate(src_in.size);
    dst_in.size = dst_in.capacity = src_in.size;
    std::copy(src_in.data, src_in.data + src_in.size, dst_in.data);
  }
  edge_count_ = other.edge_count_;
  return *this;
}

bool Digraph::HasEdge(NodeId from, NodeId to) const {
  RELSER_DCHECK(from < out_.size() && to < out_.size());
  const AdjList& succs = out_[from];
  const AdjList& preds = in_[to];
  if (succs.size <= preds.size) {
    return std::find(succs.data, succs.data + succs.size, to) !=
           succs.data + succs.size;
  }
  return std::find(preds.data, preds.data + preds.size, from) !=
         preds.data + preds.size;
}

bool Digraph::AddEdge(NodeId from, NodeId to) {
  RELSER_CHECK_MSG(from < out_.size() && to < out_.size(),
                   "edge (" << from << "," << to << ") out of range for "
                            << out_.size() << " nodes");
  if (HasEdge(from, to)) return false;
  Push(out_[from], to);
  Push(in_[to], from);
  ++edge_count_;
  return true;
}

bool Digraph::Unlink(AdjList& list, NodeId value) {
  for (std::uint32_t pos = list.size; pos-- > 0;) {
    if (list.data[pos] == value) {
      list.data[pos] = list.data[--list.size];
      return true;
    }
  }
  return false;
}

bool Digraph::RemoveEdge(NodeId from, NodeId to) {
  RELSER_DCHECK(from < out_.size() && to < out_.size());
  if (!Unlink(out_[from], to)) return false;
  Unlink(in_[to], from);  // edges are mirrored, so this entry exists
  --edge_count_;
  return true;
}

void Digraph::IsolateNode(NodeId node) {
  RELSER_CHECK(node < out_.size());
  // Copy the incident lists first: RemoveEdge swap-compacts them while we
  // iterate, and a self-loop appears in both.
  scratch_.assign(OutNeighbors(node).begin(), OutNeighbors(node).end());
  for (const NodeId succ : scratch_) {
    RemoveEdge(node, succ);
  }
  scratch_.assign(InNeighbors(node).begin(), InNeighbors(node).end());
  for (const NodeId pred : scratch_) {
    RemoveEdge(pred, node);
  }
}

void Digraph::IsolateNodes(const std::vector<NodeId>& nodes,
                           const std::vector<std::uint8_t>& member) {
  // An edge leaving a member goes with its source's out-list; an edge
  // entering a member from outside, with its target's in-list. Only the
  // non-member end of an edge is unlinked entry by entry; member lists
  // are emptied wholesale.
  for (const NodeId node : nodes) {
    RELSER_DCHECK(member[node] != 0);
    AdjList& succs = out_[node];
    for (std::uint32_t k = 0; k < succs.size; ++k) {
      const NodeId succ = succs.data[k];
      if (member[succ] == 0) Unlink(in_[succ], node);
    }
    edge_count_ -= succs.size;
    succs.size = 0;
    AdjList& preds = in_[node];
    for (std::uint32_t k = 0; k < preds.size; ++k) {
      const NodeId pred = preds.data[k];
      if (member[pred] != 0) continue;
      Unlink(out_[pred], node);
      --edge_count_;
    }
    preds.size = 0;
  }
}

std::vector<std::pair<NodeId, NodeId>> Digraph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(edge_count_);
  for (NodeId from = 0; from < out_.size(); ++from) {
    for (const NodeId to : OutNeighbors(from)) {
      edges.emplace_back(from, to);
    }
  }
  return edges;
}

}  // namespace relser
