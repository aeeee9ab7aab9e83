// Digraph: a simple directed graph over dense node ids 0..n-1.
//
// This is the shared substrate for every graph in relser: the
// serialization graph SG(S), the relative serialization graph RSG(S), the
// waits-for graph of the 2PL scheduler, and the dynamic graphs of the
// online SGT / RSGT protocols. Nodes are pre-sized; edges are stored in
// forward and reverse adjacency lists and nowhere else. AddEdge dedup and
// HasEdge scan the shorter of the two endpoint lists, and RemoveEdge
// scans each list from its newest entry, where rollbacks find the arcs
// they take back.
#ifndef RELSER_GRAPH_DIGRAPH_H_
#define RELSER_GRAPH_DIGRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"

namespace relser {

/// Node identifier; dense in [0, node_count).
using NodeId = std::size_t;

/// Read-only view of a node's neighbor list. Iterable like a vector;
/// invalidated by the next mutation of the graph (like vector iterators
/// were before adjacency moved into the arena).
class NeighborSpan {
 public:
  NeighborSpan(const NodeId* data, std::size_t size)
      : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](std::size_t i) const {
    RELSER_DCHECK(i < size_);
    return data_[i];
  }

 private:
  const NodeId* data_;
  std::size_t size_;
};

/// Directed graph with dense node ids and multigraph-free edges.
///
/// Adjacency lists live in a per-graph bump arena (geometrically sized
/// blocks): a list that outgrows its slab is copied into a fresh slab of
/// twice the capacity, abandoning the old one inside the arena. The
/// admission hot path therefore performs no heap allocations per edge in
/// the steady state — `operator new` is hit only when the arena itself
/// grows, which happens O(log total-entries) times.
class Digraph {
 public:
  Digraph() = default;
  /// Creates a graph with `node_count` isolated nodes.
  explicit Digraph(std::size_t node_count)
      : out_(node_count), in_(node_count) {}

  // Adjacency pointers reference the arena, so copies must deep-copy
  // (compacting into the destination arena); moves transfer the arena
  // blocks and stay valid.
  Digraph(const Digraph& other) { *this = other; }
  Digraph& operator=(const Digraph& other);
  Digraph(Digraph&&) = default;
  Digraph& operator=(Digraph&&) = default;

  std::size_t node_count() const { return out_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds node(s) so the graph has at least `node_count` nodes.
  void EnsureNodes(std::size_t node_count) {
    if (node_count > out_.size()) {
      out_.resize(node_count);
      in_.resize(node_count);
    }
  }

  /// Pre-sizes the adjacency arena for `edges` edges (two list entries
  /// each, in one up-front block), so even the first arena growths are
  /// avoided. Purely an optimization; lists grow on demand regardless.
  void ReserveEdges(std::size_t edges) { arena_.Reserve(2 * edges); }

  /// Adds the edge from -> to if not already present.
  /// Returns true when the edge was newly inserted. Self-loops are
  /// permitted (they make the graph cyclic).
  bool AddEdge(NodeId from, NodeId to);

  /// True if the edge from -> to exists (a scan of the shorter of
  /// from's successors and to's predecessors).
  bool HasEdge(NodeId from, NodeId to) const;

  /// Removes the edge from -> to if present; returns true when removed.
  /// Used by online schedulers to roll back trial insertions.
  bool RemoveEdge(NodeId from, NodeId to);

  /// Successors of `node` (unspecified order: removals swap-compact).
  NeighborSpan OutNeighbors(NodeId node) const {
    RELSER_DCHECK(node < out_.size());
    return NeighborSpan(out_[node].data, out_[node].size);
  }

  /// Predecessors of `node` (unspecified order: removals swap-compact).
  NeighborSpan InNeighbors(NodeId node) const {
    RELSER_DCHECK(node < in_.size());
    return NeighborSpan(in_[node].data, in_[node].size);
  }

  /// In-degree of `node`.
  std::size_t InDegree(NodeId node) const { return InNeighbors(node).size(); }
  /// Out-degree of `node`.
  std::size_t OutDegree(NodeId node) const {
    return OutNeighbors(node).size();
  }

  /// Removes every edge incident to `node` (used by online schedulers when
  /// a transaction commits or aborts and its node is retired).
  void IsolateNode(NodeId node);

  /// IsolateNode for every node of `nodes` at once; `member[n]` is
  /// nonzero exactly for the nodes in `nodes`. Member lists are emptied
  /// wholesale; only an edge with one end outside the set is unlinked,
  /// by a scan of that end's list, so an edge between two members costs
  /// nothing beyond its visit.
  void IsolateNodes(const std::vector<NodeId>& nodes,
                    const std::vector<std::uint8_t>& member);

  /// All edges as (from, to) pairs, grouped by source.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

 private:
  /// One adjacency list: a slab inside the arena. Grows by slab
  /// replacement (copy into a doubled slab), never by heap allocation.
  struct AdjList {
    NodeId* data = nullptr;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// Bump allocator for adjacency slabs. Blocks double in size, so the
  /// number of true heap allocations is logarithmic in the total number
  /// of adjacency entries ever requested. Abandoned slabs (from list
  /// growth and node isolation) stay inside their block until the graph
  /// is destroyed — bounded waste in exchange for pointer stability and
  /// allocation-free mutation.
  class AdjArena {
   public:
    NodeId* Allocate(std::size_t count) {
      if (count > remaining_) NewBlock(count);
      NodeId* slab = bump_;
      bump_ += count;
      remaining_ -= count;
      return slab;
    }

    /// Ensures at least `entries` are available without a new block. A
    /// block nothing was allocated from yet is replaced, not kept beside
    /// the new one.
    void Reserve(std::size_t entries) {
      if (entries <= remaining_) return;
      if (!blocks_.empty() && bump_ == blocks_.back().get()) {
        blocks_.pop_back();
      }
      NewBlock(entries);
    }

    void Clear() {
      blocks_.clear();
      bump_ = nullptr;
      remaining_ = 0;
      next_block_size_ = kFirstBlock;
    }

   private:
    static constexpr std::size_t kFirstBlock = 1024;

    void NewBlock(std::size_t min_size);

    std::vector<std::unique_ptr<NodeId[]>> blocks_;
    NodeId* bump_ = nullptr;
    std::size_t remaining_ = 0;
    std::size_t next_block_size_ = kFirstBlock;
  };

  void Push(AdjList& list, NodeId value);
  // Swap-compacts `value` out of `list`, scanning from its newest entry;
  // returns false when absent.
  static bool Unlink(AdjList& list, NodeId value);

  std::vector<AdjList> out_;
  std::vector<AdjList> in_;
  AdjArena arena_;
  std::vector<NodeId> scratch_;  // reusable buffer for IsolateNode
  std::size_t edge_count_ = 0;
};

}  // namespace relser

#endif  // RELSER_GRAPH_DIGRAPH_H_
