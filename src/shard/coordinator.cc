#include "shard/coordinator.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace relser {

CrossShardCoordinator::CrossShardCoordinator(std::size_t txn_count,
                                             Tracer* tracer)
    : txn_count_(txn_count),
      topo_(txn_count),
      dead_(txn_count, 0),
      succs_(txn_count),
      rep_(txn_count),
      probe_visited_(txn_count, 0),
      tracer_(tracer) {
  for (std::size_t t = 0; t < txn_count; ++t) rep_[t] = static_cast<TxnId>(t);
}

TxnId CrossShardCoordinator::Find(TxnId txn) const {
  TxnId root = txn;
  while (rep_[root] != root) root = rep_[root];
  while (rep_[txn] != root) {
    const TxnId next = rep_[txn];
    rep_[txn] = root;
    txn = next;
  }
  return root;
}

void CrossShardCoordinator::Union(TxnId a, TxnId b) {
  const TxnId ra = Find(a);
  const TxnId rb = Find(b);
  if (ra == rb) return;
  // Smaller id wins the root, so the partition's representatives do not
  // depend on the order cycles were discovered in.
  if (ra < rb) {
    rep_[rb] = ra;
  } else {
    rep_[ra] = rb;
  }
}

bool CrossShardCoordinator::IssuerOnCycleLocked(TxnId issuer_rep) {
  // DFS from the issuer over topology ∪ batch arcs; a path back to the
  // issuer is a cycle through it. Batches are small, so their arcs are
  // scanned linearly per expansion.
  std::fill(probe_visited_.begin(), probe_visited_.end(), 0);
  probe_stack_.clear();
  probe_stack_.push_back(static_cast<NodeId>(issuer_rep));
  const auto expand = [&](NodeId to) -> bool {
    if (to == static_cast<NodeId>(issuer_rep)) return true;
    if (probe_visited_[to] == 0) {
      probe_visited_[to] = 1;
      probe_stack_.push_back(to);
    }
    return false;
  };
  while (!probe_stack_.empty()) {
    const NodeId node = probe_stack_.back();
    probe_stack_.pop_back();
    for (const NodeId to : topo_.graph().OutNeighbors(node)) {
      if (expand(to)) return true;
    }
    for (const auto& [from, to] : batch_buf_) {
      if (from == node && expand(to)) return true;
    }
  }
  return false;
}

void CrossShardCoordinator::RebuildTopologyLocked() {
  topo_ = IncrementalTopology(txn_count_);
  rebuild_buf_.clear();
  for (std::size_t source = 0; source < txn_count_; ++source) {
    const TxnId from = Find(static_cast<TxnId>(source));
    for (const TxnId succ : succs_[source]) {
      const TxnId to = Find(succ);
      if (from != to) {
        rebuild_buf_.emplace_back(static_cast<NodeId>(from),
                                  static_cast<NodeId>(to));
      }
    }
  }
  // Retained arcs mapped through representatives form the condensation
  // of a graph whose only cycles were absorbed — a DAG by construction.
  RELSER_CHECK_MSG(topo_.AddEdges(rebuild_buf_),
                   "condensed coordinator graph must be acyclic");
  rebuild_buf_.clear();
}

CrossShardCoordinator::ArcResult CrossShardCoordinator::AddArcs(
    TxnId issuer, const std::vector<std::pair<TxnId, TxnId>>& arcs,
    std::pair<TxnId, TxnId>* witness) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_[issuer] != 0) return ArcResult::kDead;
  new_pairs_.clear();
  for (const auto& [from, to] : arcs) {
    RELSER_DCHECK(from < txn_count_ && to < txn_count_ && from != to);
    if (std::binary_search(succs_[from].begin(), succs_[from].end(), to)) {
      continue;
    }
    new_pairs_.emplace_back(from, to);
  }
  if (new_pairs_.empty()) return ArcResult::kOk;
  // Insert at the representative level; retry after each absorbed
  // phantom cycle (the failing arc's endpoints are on a common cycle
  // avoiding the issuer, so they belong to one condensed component).
  // Each retry merges two representatives, so the loop terminates.
  for (;;) {
    batch_buf_.clear();
    for (const auto& [from, to] : new_pairs_) {
      const TxnId rf = Find(from);
      const TxnId rt = Find(to);
      if (rf != rt) {
        batch_buf_.emplace_back(static_cast<NodeId>(rf),
                                static_cast<NodeId>(rt));
      }
    }
    if (batch_buf_.empty() || topo_.AddEdges(batch_buf_)) break;
    const auto [from, to] = topo_.last_rejected_edge();
    if (IssuerOnCycleLocked(Find(issuer))) {
      ++rejects_;
      if (witness != nullptr) {
        *witness = {static_cast<TxnId>(from), static_cast<TxnId>(to)};
      }
      if (tracer_ != nullptr) {
        tracer_->RecordCoordinatorReject(issuer, static_cast<TxnId>(from),
                                         static_cast<TxnId>(to),
                                         tracer_->tick());
      }
      return ArcResult::kCycle;
    }
    ++cycles_absorbed_;
    Union(static_cast<TxnId>(from), static_cast<TxnId>(to));
    RebuildTopologyLocked();
  }
  for (const auto& [from, to] : new_pairs_) {
    std::vector<TxnId>& succs = succs_[from];
    const auto at = std::lower_bound(succs.begin(), succs.end(), to);
    if (at != succs.end() && *at == to) continue;  // repeated in the batch
    succs.insert(at, to);
    ++arc_count_;
    ++arcs_mirrored_;
    if (tracer_ != nullptr) {
      tracer_->RecordCrossShardArc(from, to, tracer_->tick());
    }
  }
  return ArcResult::kOk;
}

void CrossShardCoordinator::MarkDead(TxnId txn) {
  // Tombstone only: the transaction's mirrored arcs stay behind as
  // conservative ordering constraints (see the header — scrubbing them
  // would sever conflict paths that route through the dead transaction,
  // paths the op-level shard checkers still enforce among survivors).
  std::lock_guard<std::mutex> lock(mu_);
  RELSER_DCHECK(txn < txn_count_);
  dead_[txn] = 1;
}

bool CrossShardCoordinator::Dead(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_[txn] != 0;
}

std::size_t CrossShardCoordinator::arc_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arc_count_;
}

std::size_t CrossShardCoordinator::CollectSettled(
    const std::atomic<std::uint8_t>* settled) {
  std::lock_guard<std::mutex> lock(mu_);
  // A settled source's successor list goes wholesale; the topology is
  // rebuilt from the survivors.
  std::size_t dropped = 0;
  for (std::size_t source = 0; source < txn_count_; ++source) {
    if (settled[source].load(std::memory_order_relaxed) == 0) continue;
    dropped += succs_[source].size();
    std::vector<TxnId>().swap(succs_[source]);
  }
  if (dropped == 0) return 0;
  arc_count_ -= dropped;
  // A subgraph of a condensation-acyclic graph stays acyclic, so the
  // rebuild cannot reject.
  RebuildTopologyLocked();
  arcs_gcd_ += dropped;
  if (tracer_ != nullptr) {
    tracer_->RecordArcGc(dropped, tracer_->tick());
  }
  return dropped;
}

std::uint64_t CrossShardCoordinator::arcs_mirrored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_mirrored_;
}

std::uint64_t CrossShardCoordinator::rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejects_;
}

std::uint64_t CrossShardCoordinator::DeadArcsLocked() const {
  std::uint64_t dead = 0;
  for (std::size_t source = 0; source < txn_count_; ++source) {
    for (const TxnId to : succs_[source]) {
      if (dead_[source] != 0 || dead_[to] != 0) ++dead;
    }
  }
  return dead;
}

std::uint64_t CrossShardCoordinator::arcs_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arc_count_ - DeadArcsLocked();
}

std::uint64_t CrossShardCoordinator::arcs_dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DeadArcsLocked();
}

std::uint64_t CrossShardCoordinator::arcs_gcd() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arcs_gcd_;
}

std::uint64_t CrossShardCoordinator::cycles_absorbed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycles_absorbed_;
}

}  // namespace relser
