#include "core/online.h"

#include <algorithm>
#include <memory>

#include "core/explain.h"
#include "core/rsg.h"
#include "obs/trace.h"
#include "util/check.h"

namespace relser {

OnlineRsrChecker::OnlineRsrChecker(const TransactionSet& txns,
                                   const AtomicitySpec& spec)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      topo_(indexer_.total_ops()),
      txn_count_(indexer_.txn_count()),
      executed_(indexer_.total_ops(), 0),
      flags_(indexer_.total_ops(), 0),
      slot_of_(indexer_.total_ops(), kNoSlot),
      newest_gid_(txn_count_, kNoGid),
      txn_objects_(txn_count_),
      pos_of_(indexer_.total_ops(), 0),
      scratch_anc_(txn_count_, 0),
      zero_row_(txn_count_, 0),
      raised_buf_(txn_count_ + 1, 0),
      drop_mark_(indexer_.total_ops(), 0) {
  RELSER_CHECK_MSG(spec.ValidateAgainst(txns).ok(),
                   "specification does not match the transaction set");
  // Steady-state arc volume per op is bounded by the frontier size plus
  // one F/B pair per ancestor transaction; reserve generously once.
  arc_buf_.reserve(64);
  arc_kind_buf_.reserve(64);
  pred_buf_.reserve(32);
  conflict_txns_.reserve(32);
  feed_log_.reserve(indexer_.total_ops());
  undo_log_.reserve(indexer_.total_ops());
  undo_arcs_.reserve(4 * indexer_.total_ops());
  undo_deltas_.reserve(4 * indexer_.total_ops());
  // Pre-size the adjacency arena; together with the per-object and
  // per-transaction reservations below this keeps the steady-state
  // admission path free of heap allocations (trace_test's
  // CheckerAllocations bounds the residual, which is only amortized
  // growth of the few structures whose final size is workload-dependent).
  topo_.ReserveAdjacency(8);
  for (TxnId t = 0; t < txn_count_; ++t) {
    RELSER_CHECK_MSG(txns_.txn(t).size() <= kMaxTxnOps,
                     "transaction T" << t + 1 << " has more than "
                                     << kMaxTxnOps << " operations");
    // One entry per executed op of t (entries are appended per op, so the
    // exact bound is the transaction length).
    txn_objects_[t].reserve(txns_.txn(t).size());
  }
}

std::uint32_t OnlineRsrChecker::ObjIndex(ObjectId object) {
  const auto [slot, inserted] = object_index_.Upsert(object);
  if (inserted) {
    *slot = static_cast<std::uint32_t>(objects_.size());
    objects_.emplace_back();
    // Skip the small-capacity doublings every per-object vector would
    // otherwise go through; hot objects still grow past this normally.
    objects_.back().readers.reserve(8);
  }
  return *slot;
}

std::uint32_t OnlineRsrChecker::AcquireSlot(std::size_t gid) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_owner_.size());
    slot_owner_.push_back(kNoGid);
    if (slot % kRowsPerBlock == 0) {
      row_blocks_.push_back(std::make_unique_for_overwrite<AncestorColumn[]>(
          kRowsPerBlock * txn_count_));
    }
  }
  slot_owner_[slot] = gid;
  slot_of_[gid] = slot;
  return slot;
}

void OnlineRsrChecker::ReleaseSlotIfAny(std::size_t gid) {
  const std::uint32_t slot = slot_of_[gid];
  if (slot == kNoSlot || flags_[gid] != 0) return;
  slot_of_[gid] = kNoSlot;
  slot_owner_[slot] = kNoGid;
  free_slots_.push_back(slot);
}

AdmitResult OnlineRsrChecker::TryAppend(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransactionExact");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;

  // Seed the scratch ancestor array from the previous op of the same
  // transaction (ancestor arrays are cumulative along program order).
  // `prev` stays the predecessor's row for the F/B scan below.
  const AncestorColumn* prev = zero_row_.data();
  if (op.index > 0) {
    const std::uint32_t prev_slot = slot_of_[gid - 1];
    RELSER_DCHECK(prev_slot != kNoSlot);
    prev = Row(prev_slot);
    std::copy(prev, prev + txn_count_, scratch_anc_.begin());
    // The prev op itself; kMaxTxnOps keeps the index within a column.
    scratch_anc_[j] = std::max(scratch_anc_[j],
                               static_cast<AncestorColumn>(op.index));
  } else {
    std::fill(scratch_anc_.begin(), scratch_anc_.end(), 0);
  }

  // Direct cross-transaction predecessors: the conflicting members of the
  // object's conflict frontier (last writer + readers since it). Every
  // older conflicting op is an ancestor of some frontier member, so the
  // frontier is enough both for exact ancestor maxima and — transitively —
  // for D-arc reachability (docs/hotpath.md, Lemma 1).
  pred_buf_.clear();
  const std::uint32_t obj_idx = ObjIndex(op.object);
  {
    const ObjState& state = objects_[obj_idx];
    if (state.last_writer != kNoGid && !indexer_.InTxn(j, state.last_writer)) {
      pred_buf_.push_back(state.last_writer);
    }
    if (op.is_write()) {
      for (const std::size_t reader : state.readers) {
        if (!indexer_.InTxn(j, reader)) pred_buf_.push_back(reader);
      }
    }
  }

  // The parallel kind buffer is always maintained (one byte push per
  // arc) so a rejection can name the exact witnessing arc in its
  // AdmitResult even with no tracer attached.
  const bool tracing = tracer_ != nullptr && tracer_->events_on();
  arc_buf_.clear();
  arc_kind_buf_.clear();
  conflict_txns_.clear();
  if (op.index > 0) {
    arc_buf_.emplace_back(gid - 1, gid);  // I-arc
    arc_kind_buf_.push_back(kInternalArc);
  }
  for (const std::size_t pred : pred_buf_) {
    arc_buf_.emplace_back(pred, gid);  // D-arc to the conflict frontier
    arc_kind_buf_.push_back(kDependencyArc);
    const TxnId pred_txn = indexer_.TxnOf(pred);
    conflict_txns_.push_back(pred_txn);
    const std::uint32_t pred_slot = slot_of_[pred];
    RELSER_DCHECK(pred_slot != kNoSlot);
    const AncestorColumn* panc = Row(pred_slot);
    for (std::size_t t = 0; t < txn_count_; ++t) {
      scratch_anc_[t] = std::max(scratch_anc_[t], panc[t]);
    }
    // pred's +1-encoded index within its transaction.
    const auto pred_p1 =
        static_cast<AncestorColumn>(pred - indexer_.TxnBegin(pred_txn) + 1);
    scratch_anc_[pred_txn] = std::max(scratch_anc_[pred_txn], pred_p1);
  }

  // F/B arcs, evaluated per ancestor transaction only where this op's
  // row raised its column over the predecessor's row — the furthest
  // ancestor the predecessor already handled is that row's column — and
  // emitted only when not already implied transitively (docs/hotpath.md,
  // Lemmas 2-3). Each raised column is an undo delta. With no
  // cross-transaction predecessor the row is the predecessor's plus the
  // own column, so no column that needs a pair can rise and the pass is
  // skipped. Otherwise the raised columns are gathered first, in
  // ascending order, with an unconditional store and a compare-bump;
  // their PushForward words are prefetched before any is read.
  const std::size_t deltas_begin = undo_deltas_.size();
  std::size_t raised_count = 0;
  if (!pred_buf_.empty()) {
    TxnId* raised = raised_buf_.data();
    for (TxnId i = 0; i < txn_count_; ++i) {
      raised[raised_count] = i;
      raised_count += static_cast<std::size_t>(scratch_anc_[i] > prev[i]);
    }
    for (std::size_t r = 0; r < raised_count; ++r) {
      if (raised[r] != j) spec_.PrefetchPushForward(raised[r], j);
    }
  }
  for (std::size_t r = 0; r < raised_count; ++r) {
    const TxnId i = raised_buf_[r];
    if (i == j) continue;  // the own column pairs with nothing
    const std::uint32_t u_p1 = scratch_anc_[i];
    const std::uint32_t old_p1 = prev[i];
    undo_deltas_.push_back({i, prev[i]});
    const std::uint32_t u = u_p1 - 1;
    const std::uint32_t pushed = spec_.PushForward(i, j, u);
    // PushForward is monotone in u, so the predecessor already emitted
    // the F-arc unless this one reaches further. pushed <= u needs no
    // arc: (i, pushed) is already an ancestor.
    if (pushed > u &&
        (old_p1 == 0 || pushed > spec_.PushForward(i, j, old_p1 - 1))) {
      arc_buf_.emplace_back(indexer_.GlobalId(i, pushed), gid);  // F-arc
      arc_kind_buf_.push_back(kPushForwardArc);
    }
    const std::uint32_t pulled = spec_.PullBackward(j, i, op.index);
    if (pulled < op.index) {
      arc_buf_.emplace_back(indexer_.GlobalId(i, u),
                            indexer_.GlobalId(j, pulled));  // B-arc
      arc_kind_buf_.push_back(kPullBackwardArc);
    }
    // pulled == op.index needs no arc: (i, u) already reaches this op.
  }

  const std::size_t edges_before = topo_.edge_count();
  const std::uint64_t repairs_before = topo_.reorder_count();
  if (!topo_.AddEdges(arc_buf_)) {
    undo_deltas_.resize(deltas_begin);
    ++rejections_;
    ArcWitness witness;
    witness.valid = true;
    const auto [bad_from, bad_to] = topo_.last_rejected_edge();
    witness.from = indexer_.Op(txns_, bad_from);
    witness.to = indexer_.Op(txns_, bad_to);
    for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
      if (arc_buf_[a].first == bad_from && arc_buf_[a].second == bad_to) {
        witness.arc_kinds = arc_kind_buf_[a];
        break;
      }
    }
    if (tracing) {
      TraceCause cause;
      cause.kind = TraceCauseKind::kRsgArc;
      cause.from = witness.from;
      cause.to = witness.to;
      cause.arc_kinds = witness.arc_kinds;
      cause.note = ExplainWitnessArc(txns_, spec_, cause.arc_kinds,
                                     cause.from, cause.to);
      tracer_->AttachCause(std::move(cause));
    }
    return AdmitResult::Reject(j, witness);
  }
  arcs_submitted_ += arc_buf_.size();
  arcs_inserted_total_ += topo_.edge_count() - edges_before;
  if (tracer_ != nullptr && tracer_->counting()) {
    tracer_->AddArcStats(arc_buf_.size(), topo_.edge_count() - edges_before,
                         topo_.reorder_count() - repairs_before);
    if (tracing) {
      for (std::size_t a = 0; a < arc_buf_.size(); ++a) {
        tracer_->RecordArc(arc_kind_buf_[a],
                           indexer_.Op(txns_, arc_buf_[a].first),
                           indexer_.Op(txns_, arc_buf_[a].second),
                           tracer_->tick());
      }
    }
  }

  const std::size_t arcs_begin = undo_arcs_.size();
  undo_arcs_.insert(undo_arcs_.end(), topo_.last_inserted().begin(),
                    topo_.last_inserted().end());
  CommitOp(op, gid, obj_idx, deltas_begin, arcs_begin);
  return AdmitResult::Accept(j);
}

void OnlineRsrChecker::CommitOp(const Operation& op, std::size_t gid,
                                std::uint32_t obj_idx,
                                std::size_t deltas_begin,
                                std::size_t arcs_begin) {
  const TxnId j = op.txn;
  undo_log_.push_back({deltas_begin, arcs_begin, undo_frontier_.size()});
  const std::uint32_t slot = AcquireSlot(gid);
  std::copy(scratch_anc_.begin(), scratch_anc_.end(), Row(slot));
  flags_[gid] = static_cast<std::uint8_t>(kNewestFlag | kFrontierFlag);
  if (op.index > 0) {
    flags_[gid - 1] = static_cast<std::uint8_t>(flags_[gid - 1] &
                                                ~std::uint32_t{kNewestFlag});
    ReleaseSlotIfAny(gid - 1);
  }
  newest_gid_[j] = gid;

  ObjState& state = objects_[obj_idx];
  if (op.is_write()) {
    // The old frontier is dominated: future conflicts reach it through
    // this write. Log it, then drop its retention claims.
    undo_frontier_.push_back(state.last_writer);
    undo_frontier_.insert(undo_frontier_.end(), state.readers.begin(),
                          state.readers.end());
    if (state.last_writer != kNoGid) {
      flags_[state.last_writer] = static_cast<std::uint8_t>(
          flags_[state.last_writer] & ~std::uint32_t{kFrontierFlag});
      ReleaseSlotIfAny(state.last_writer);
    }
    for (const std::size_t reader : state.readers) {
      flags_[reader] = static_cast<std::uint8_t>(
          flags_[reader] & ~std::uint32_t{kFrontierFlag});
      ReleaseSlotIfAny(reader);
    }
    state.readers.clear();
    state.last_writer = gid;
  } else {
    state.readers.push_back(gid);
  }
  txn_objects_[j].push_back(obj_idx);

  executed_[gid] = 1;
  pos_of_[gid] = static_cast<std::uint32_t>(feed_log_.size());
  feed_log_.push_back(gid);
}

void OnlineRsrChecker::RestoreRow(std::size_t gid) {
  if (slot_of_[gid] != kNoSlot) return;
  const TxnId txn = indexer_.TxnOf(gid);
  const std::size_t newest = newest_gid_[txn];
  RELSER_DCHECK(newest != kNoGid && newest > gid &&
                slot_of_[newest] != kNoSlot);
  AncestorColumn* row = Row(AcquireSlot(gid));
  const AncestorColumn* src = Row(slot_of_[newest]);
  std::copy(src, src + txn_count_, row);
  for (std::size_t later = newest; later > gid; --later) {
    const std::size_t k = pos_of_[later];
    const std::size_t end = RecordEnd(k).deltas;
    for (std::size_t d = undo_log_[k].deltas; d < end; ++d) {
      row[undo_deltas_[d].column] = undo_deltas_[d].old_p1;
    }
  }
  // The own column is the +1-encoded index of gid's predecessor.
  row[txn] = static_cast<AncestorColumn>(gid - indexer_.TxnBegin(txn));
}

void OnlineRsrChecker::RemoveTransactionExact(TxnId txn) {
  if (newest_gid_[txn] == kNoGid) return;  // nothing fed, nothing to remove
  // The removed set R: the victim's operations and every later operation
  // that depends on one of them, i.e. whose ancestor row carries a
  // nonzero victim column. An operation's row is its predecessor's plus
  // the columns its undo record raised, so it joins R when its
  // predecessor is in R or its record raised the victim's column. R is
  // successor-closed and a suffix of each transaction it touches.
  const std::size_t first = pos_of_[indexer_.TxnBegin(txn)];
  const auto removed = [this](std::size_t gid) { return drop_mark_[gid] != 0; };
  drop_nodes_.clear();
  replay_.clear();
  for (std::size_t k = first; k < feed_log_.size(); ++k) {
    const std::size_t gid = feed_log_[k];
    bool dependent = indexer_.InTxn(txn, gid) ||
                     (gid > 0 && removed(gid - 1) &&
                      indexer_.InTxn(indexer_.TxnOf(gid - 1), gid));
    const std::size_t deltas_end = RecordEnd(k).deltas;
    for (std::size_t d = undo_log_[k].deltas; !dependent && d < deltas_end;
         ++d) {
      dependent = undo_deltas_[d].column == txn;
    }
    if (!dependent) continue;
    drop_mark_[gid] = 1;
    drop_nodes_.push_back(gid);
    if (!indexer_.InTxn(txn, gid)) replay_.push_back(gid);
  }

  // Frontiers, newest removal first. A removed write hands its object
  // back the frontier it dominated, minus removed members; the earliest
  // removed write on an object settles it, and every member it brings
  // back stays (docs/hotpath.md, "Aborts"). Kept members get their rows
  // back while the rows and deltas they are rebuilt from are in place.
  for (auto it = drop_nodes_.rbegin(); it != drop_nodes_.rend(); ++it) {
    const std::size_t gid = *it;
    const Operation& op = indexer_.Op(txns_, gid);
    ObjState& state = objects_[txn_objects_[op.txn][op.index]];
    if (!op.is_write()) {
      std::erase(state.readers, gid);
      continue;
    }
    const std::size_t k = pos_of_[gid];
    const std::size_t end = RecordEnd(k).frontier;
    const std::size_t writer = undo_frontier_[undo_log_[k].frontier];
    state.last_writer = writer != kNoGid && removed(writer) ? kNoGid : writer;
    state.readers.clear();
    for (std::size_t f = undo_log_[k].frontier + 1; f < end; ++f) {
      const std::size_t reader = undo_frontier_[f];
      if (!removed(reader)) state.readers.push_back(reader);
    }
    if (state.last_writer != kNoGid) {
      flags_[state.last_writer] |= kFrontierFlag;
      RestoreRow(state.last_writer);
    }
    for (const std::size_t reader : state.readers) {
      flags_[reader] |= kFrontierFlag;
      RestoreRow(reader);
    }
  }

  // Removed operations, oldest first. Each takes the arcs its record
  // inserted with it; at a transaction's first
  // removed operation, the predecessor becomes the newest again, its row
  // rebuilt before the old newest row is released. Edge removal never
  // invalidates the topological order, so the labels stay as they are.
  for (const std::size_t gid : drop_nodes_) {
    const Operation& op = indexer_.Op(txns_, gid);
    const TxnId j = op.txn;
    const std::size_t k = pos_of_[gid];
    const UndoRecord end = RecordEnd(k);
    for (std::size_t a = undo_log_[k].arcs; a < end.arcs; ++a) {
      RELSER_CHECK(topo_.RemoveEdge(undo_arcs_[a].first, undo_arcs_[a].second));
    }
    if (op.index == 0) {
      newest_gid_[j] = kNoGid;
      txn_objects_[j].clear();
    } else if (!removed(gid - 1)) {
      flags_[gid - 1] |= kNewestFlag;
      RestoreRow(gid - 1);
      newest_gid_[j] = gid - 1;
      txn_objects_[j].resize(op.index);
    }
    executed_[gid] = 0;
    flags_[gid] = 0;
    ReleaseSlotIfAny(gid);
  }

  // Compact the feed and the undo log past the victim's first position:
  // kept records move down whole, in their order.
  const auto move_down = [](auto& arena, std::size_t begin, std::size_t end,
                            std::size_t out) {
    const auto at = [&arena](std::size_t i) {
      return arena.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::copy(at(begin), at(end), at(out));
    return out + (end - begin);
  };
  std::size_t kept = first;
  UndoRecord out = undo_log_[first];
  for (std::size_t k = first; k < feed_log_.size(); ++k) {
    const std::size_t gid = feed_log_[k];
    const UndoRecord rec = undo_log_[k];
    const UndoRecord end = RecordEnd(k);
    if (removed(gid)) continue;
    undo_log_[kept] = out;
    out.deltas = move_down(undo_deltas_, rec.deltas, end.deltas, out.deltas);
    out.arcs = move_down(undo_arcs_, rec.arcs, end.arcs, out.arcs);
    out.frontier =
        move_down(undo_frontier_, rec.frontier, end.frontier, out.frontier);
    pos_of_[gid] = static_cast<std::uint32_t>(kept);
    feed_log_[kept++] = gid;
  }
  feed_log_.resize(kept);
  undo_log_.resize(kept);
  undo_deltas_.resize(out.deltas);
  undo_arcs_.resize(out.arcs);
  undo_frontier_.resize(out.frontier);
  for (const std::size_t gid : drop_nodes_) drop_mark_[gid] = 0;

  // Silent re-admission of the dependents, in their original order, at
  // the end of the feed: no trace events, and rejections() keeps its
  // pre-abort value (the re-admission cannot reject — see below).
  Tracer* const saved_tracer = tracer_;
  tracer_ = nullptr;
  for (const std::size_t gid : replay_) {
    // Every dependent re-admits: no kept operation after it conflicts
    // with it, so the new feed has the survivors' depends-on relation,
    // which is the original one minus the paths through the victim. Its
    // RSG is therefore a subgraph of the original acyclic graph.
    RELSER_CHECK_MSG(TryAppend(indexer_.Op(txns_, gid)).ok(),
                     "surviving feed must replay cleanly after an abort");
  }
  tracer_ = saved_tracer;
  replayed_ops_ += replay_.size();
}

std::size_t OnlineRsrChecker::Truncate(
    const std::atomic<std::uint8_t>* settled) {
  const auto is_settled = [settled](std::size_t txn) {
    return settled[txn].load(std::memory_order_relaxed) != 0;
  };
  // Settled transactions with retained operations. Settledness is
  // predecessor-closed, so their operations are not ancestors of any
  // survivor, dominate no survivor in an object frontier, and every arc
  // between two survivors was emitted by a survivor (docs/hotpath.md,
  // in-place truncation). Dropping them therefore leaves exactly the
  // state a fresh checker fed the survivors would build.
  drop_txns_.clear();
  std::size_t dropped = 0;
  for (TxnId t = 0; t < txn_count_; ++t) {
    if (newest_gid_[t] == kNoGid || !is_settled(t)) continue;
    drop_txns_.push_back(t);
    dropped += newest_gid_[t] - indexer_.TxnBegin(t) + 1;
  }
  if (dropped == 0) return 0;

  // Isolate every node of the settled transactions and release their
  // executed state.
  drop_nodes_.clear();
  drop_objects_.clear();
  for (const TxnId t : drop_txns_) {
    for (std::size_t gid = indexer_.TxnBegin(t); gid < indexer_.TxnEnd(t);
         ++gid) {
      drop_mark_[gid] = 1;
      drop_nodes_.push_back(gid);
      if (executed_[gid] == 0) continue;
      executed_[gid] = 0;
      flags_[gid] = 0;
      ReleaseSlotIfAny(gid);
    }
    newest_gid_[t] = kNoGid;
    drop_objects_.insert(drop_objects_.end(), txn_objects_[t].begin(),
                         txn_objects_[t].end());
    txn_objects_[t].clear();
  }
  topo_.IsolateNodes(drop_nodes_, drop_mark_);

  // Object frontiers lose their settled members. A settled op never
  // sits after a survivor it conflicts with, so no survivor joins a
  // frontier: every remaining member still holds its row.
  std::sort(drop_objects_.begin(), drop_objects_.end());
  drop_objects_.erase(std::unique(drop_objects_.begin(), drop_objects_.end()),
                      drop_objects_.end());
  const auto marked = [this](std::size_t gid) { return drop_mark_[gid] != 0; };
  for (const std::uint32_t obj_idx : drop_objects_) {
    ObjState& state = objects_[obj_idx];
    std::erase_if(state.readers, marked);
    if (state.last_writer != kNoGid && marked(state.last_writer)) {
      state.last_writer = kNoGid;
    }
    RELSER_CHECK(state.last_writer == kNoGid ||
                 slot_of_[state.last_writer] != kNoSlot);
    for (const std::size_t reader : state.readers) {
      RELSER_CHECK(slot_of_[reader] != kNoSlot);
    }
  }

  // Settled columns vanish from the retained rows...
  for (std::uint32_t slot = 0; slot < slot_owner_.size(); ++slot) {
    if (slot_owner_[slot] == kNoGid) continue;
    AncestorColumn* row = Row(slot);
    for (const TxnId t : drop_txns_) row[t] = 0;
  }
  // ...and from the undo log, which also drops the settled records and
  // the settled arcs and frontier members of the surviving ones.
  std::size_t kept = 0;
  std::size_t deltas_out = 0;
  std::size_t arcs_out = 0;
  std::size_t frontier_out = 0;
  for (std::size_t k = 0; k < feed_log_.size(); ++k) {
    const std::size_t gid = feed_log_[k];
    const UndoRecord rec = undo_log_[k];
    const UndoRecord end = RecordEnd(k);
    if (marked(gid)) continue;
    undo_log_[kept] = {deltas_out, arcs_out, frontier_out};
    for (std::size_t d = rec.deltas; d < end.deltas; ++d) {
      if (!is_settled(undo_deltas_[d].column)) {
        undo_deltas_[deltas_out++] = undo_deltas_[d];
      }
    }
    for (std::size_t a = rec.arcs; a < end.arcs; ++a) {
      // Arcs target the emitting transaction, a survivor here.
      if (!marked(undo_arcs_[a].first)) undo_arcs_[arcs_out++] = undo_arcs_[a];
    }
    for (std::size_t f = rec.frontier; f < end.frontier; ++f) {
      const std::size_t member = undo_frontier_[f];
      if (f == rec.frontier) {  // the dominated writer keeps its place
        undo_frontier_[frontier_out++] =
            member != kNoGid && marked(member) ? kNoGid : member;
      } else if (!marked(member)) {
        undo_frontier_[frontier_out++] = member;
      }
    }
    pos_of_[gid] = static_cast<std::uint32_t>(kept);
    feed_log_[kept++] = gid;
  }
  feed_log_.resize(kept);
  undo_log_.resize(kept);
  undo_deltas_.resize(deltas_out);
  undo_arcs_.resize(arcs_out);
  undo_frontier_.resize(frontier_out);
  for (const std::size_t gid : drop_nodes_) drop_mark_[gid] = 0;
  return dropped;
}

std::size_t OnlineRsrChecker::FrontierWriterGid(ObjectId object) const {
  const std::uint32_t* idx = object_index_.Find(object);
  if (idx == nullptr) return kNoOp;
  const std::size_t writer = objects_[*idx].last_writer;
  return writer == kNoGid ? kNoOp : writer;
}

void OnlineRsrChecker::FrontierReaders(ObjectId object,
                                       std::vector<std::size_t>* out) const {
  const std::uint32_t* idx = object_index_.Find(object);
  if (idx == nullptr) return;
  const ObjState& state = objects_[*idx];
  out->insert(out->end(), state.readers.begin(), state.readers.end());
}

std::uint64_t OnlineRsrChecker::StateDigest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(feed_log_.size());
  for (const std::uint8_t bit : executed_) mix(bit);
  for (const std::size_t gid : newest_gid_) mix(gid);
  // Per-object state, keyed by ObjectId (objects_ index order depends on
  // first-touch order, which two equal-state checkers may disagree on).
  {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_object;
    by_object.reserve(objects_.size());
    const_cast<FlatMap64<std::uint32_t>&>(object_index_)
        .ForEach([&](std::uint64_t key, std::uint32_t& idx) {
          by_object.emplace_back(key, idx);
        });
    std::sort(by_object.begin(), by_object.end());
    for (const auto& [object, idx] : by_object) {
      const ObjState& state = objects_[idx];
      // A rejected, undone or truncated op can leave an empty entry that
      // a fresh checker never created. An object has a retained executed
      // op exactly when its frontier is non-empty: the newest retained
      // op on it is always in the frontier, and Truncate drops no op
      // that a survivor on the same object follows (settledness is
      // predecessor-closed).
      if (state.last_writer == kNoGid && state.readers.empty()) continue;
      mix(object);
      mix(state.last_writer);
      for (const std::size_t gid : state.readers) mix(gid);
    }
  }
  // Retained ancestor arrays: keyed by owning gid, content-only (which
  // pool slot a row occupies is allocation history, not state).
  for (std::size_t gid = 0; gid < slot_of_.size(); ++gid) {
    const std::uint32_t slot = slot_of_[gid];
    if (slot == kNoSlot) continue;
    mix(gid);
    mix(flags_[gid]);
    const AncestorColumn* row = Row(slot);
    for (std::size_t t = 0; t < txn_count_; ++t) mix(row[t]);
  }
  // Graph adjacency, sorted per node (F/B arcs can land on not-yet-
  // executed nodes, so every node is included).
  {
    std::vector<NodeId> succs;
    for (NodeId node = 0; node < indexer_.total_ops(); ++node) {
      const auto out = topo_.graph().OutNeighbors(node);
      succs.assign(out.begin(), out.end());
      if (succs.empty()) continue;
      std::sort(succs.begin(), succs.end());
      mix(node);
      mix(succs.size());
      for (const NodeId succ : succs) mix(succ);
    }
  }
  return h;
}

std::size_t OnlineRsrChecker::FirstRejection(const TransactionSet& txns,
                                             const AtomicitySpec& spec,
                                             const Schedule& schedule) {
  OnlineRsrChecker checker(txns, spec);
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    if (!checker.TryAppend(schedule.op(pos))) {
      return pos;
    }
  }
  return schedule.size();
}

}  // namespace relser
