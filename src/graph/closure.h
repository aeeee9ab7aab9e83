// Transitive closure over a Digraph.
//
// The paper's `depends-on` relation is the transitive closure of
// directly-depends-on; for a schedule of n operations the directly-
// depends edges always point forward in schedule order, so the closure
// can be computed in a single backward sweep with bitset unions
// (O(n^2/64) words). A general DFS-based closure is provided for graphs
// without a known topological order, plus per-query reachability — the
// ablation pair measured by bench_graph_ablation.
//
// Storage is one flat allocation of n rows x stride words (instead of n
// separate DenseBitsets): row unions in the backward sweep are straight
// OrWords calls (util/simd.h) over adjacent cache lines, and the whole
// matrix prefetches linearly.
#ifndef RELSER_GRAPH_CLOSURE_H_
#define RELSER_GRAPH_CLOSURE_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/check.h"

namespace relser {

/// Reachability matrix: row v = set of nodes reachable from v by a path of
/// length >= 1 (the irreflexive transitive closure).
class TransitiveClosure {
 public:
  /// Lightweight read-only view of one row of the flat matrix.
  class RowView {
   public:
    /// True iff `to` is in the row's reachable set.
    bool Test(std::size_t to) const {
      RELSER_DCHECK(to < size_);
      return (words_[to >> 6] >> (to & 63)) & 1ULL;
    }

    std::size_t size() const { return size_; }

    /// All reachable node ids, ascending.
    std::vector<std::size_t> ToVector() const {
      std::vector<std::size_t> out;
      for (std::size_t i = 0; i < size_; ++i) {
        if (Test(i)) out.push_back(i);
      }
      return out;
    }

   private:
    friend class TransitiveClosure;
    RowView(const std::uint64_t* words, std::size_t size)
        : words_(words), size_(size) {}
    const std::uint64_t* words_;
    std::size_t size_;
  };

  /// Builds the closure of a DAG given a topological order of its nodes.
  /// CHECK-fails if `topo_order` is not a permutation of the nodes.
  static TransitiveClosure FromDagOrder(const Digraph& graph,
                                        const std::vector<NodeId>& topo_order);

  /// Builds the closure of an arbitrary graph by per-source DFS
  /// (O(V * (V + E))); works on cyclic graphs too.
  static TransitiveClosure FromAnyGraph(const Digraph& graph);

  /// True iff a path of length >= 1 leads from `from` to `to`.
  bool Reaches(NodeId from, NodeId to) const {
    return (words_[from * stride_ + (to >> 6)] >> (to & 63)) & 1ULL;
  }

  /// The full reachable set of `from` (path length >= 1).
  RowView Row(NodeId from) const {
    return RowView(&words_[from * stride_], node_count_);
  }

  std::size_t node_count() const { return node_count_; }

 private:
  explicit TransitiveClosure(std::size_t n)
      : node_count_(n), stride_((n + 63) / 64), words_(n * stride_, 0) {}

  void SetBit(NodeId row, NodeId to) {
    words_[row * stride_ + (to >> 6)] |= (1ULL << (to & 63));
  }

  std::size_t node_count_;
  std::size_t stride_;  // words per row
  std::vector<std::uint64_t> words_;
};

}  // namespace relser

#endif  // RELSER_GRAPH_CLOSURE_H_
