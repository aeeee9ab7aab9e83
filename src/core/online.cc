#include "core/online.h"

#include <algorithm>

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
      safe_(txn_count_, 1),
      flags_(indexer_.total_ops(), 0),
      slot_of_(indexer_.total_ops(), kNoSlot),
      newest_gid_(txn_count_, kNoGid),
      txn_objects_(txn_count_),
      memo_(txn_count_ * txn_count_),
      scratch_anc_(txn_count_, 0) {
  RELSER_CHECK_MSG(spec.ValidateAgainst(txns).ok(),
                   "specification does not match the transaction set");
  // Steady-state arc volume per op is bounded by the frontier size plus
  // one F/B pair per ancestor transaction; reserve generously once.
  arc_buf_.reserve(64);
  arc_kind_buf_.reserve(64);
  pred_buf_.reserve(32);
  feed_log_.reserve(indexer_.total_ops());
  pending_memos_.reserve(txn_count_);
  topo_.Reserve(4 * indexer_.total_ops());
  // Pre-size the adjacency arena; together with the per-object and
  // per-transaction reservations below this keeps the steady-state
  // admission path free of heap allocations (bench_online_hotpath
  // measures the residual, which is only amortized growth of the few
  // structures whose final size is workload-dependent).
  topo_.ReserveAdjacency(8);
  for (TxnId t = 0; t < txn_count_; ++t) {
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
    objects_.back().ops.reserve(16);
    objects_.back().readers.reserve(8);
    obj_stamp_.push_back(0);
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
    pool_.resize(pool_.size() + txn_count_);
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
                   "operation fed twice without RemoveTransaction");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;

  // Seed the scratch ancestor array from the previous op of the same
  // transaction (ancestor arrays are cumulative along program order).
  if (op.index > 0) {
    const std::uint32_t prev_slot = slot_of_[gid - 1];
    RELSER_DCHECK(prev_slot != kNoSlot);
    const std::uint32_t* prev = &pool_[prev_slot * txn_count_];
    std::copy(prev, prev + txn_count_, scratch_anc_.begin());
    scratch_anc_[j] = std::max(scratch_anc_[j], op.index);  // prev op itself
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
  if (op.index > 0) {
    arc_buf_.emplace_back(gid - 1, gid);  // I-arc
    arc_kind_buf_.push_back(kInternalArc);
  }
  for (const std::size_t pred : pred_buf_) {
    arc_buf_.emplace_back(pred, gid);  // D-arc to the conflict frontier
    arc_kind_buf_.push_back(kDependencyArc);
    const TxnId pred_txn = indexer_.TxnOf(pred);
    const std::uint32_t pred_slot = slot_of_[pred];
    RELSER_DCHECK(pred_slot != kNoSlot);
    const std::uint32_t* panc = &pool_[pred_slot * txn_count_];
    for (std::size_t t = 0; t < txn_count_; ++t) {
      scratch_anc_[t] = std::max(scratch_anc_[t], panc[t]);
    }
    // pred's +1-encoded index within its transaction.
    const auto pred_p1 =
        static_cast<std::uint32_t>(pred - indexer_.TxnBegin(pred_txn) + 1);
    scratch_anc_[pred_txn] = std::max(scratch_anc_[pred_txn], pred_p1);
  }

  // F/B arcs, memoized per (ancestor txn, this txn): re-evaluate only when
  // the maximum ancestor index grew; emit only arcs not already implied
  // transitively (docs/hotpath.md, Lemmas 2-3). j's memo row is indexed
  // by i, so it is read in step with scratch_anc_.
  pending_memos_.clear();
  const MemoEntry* memo_row = &memo_[MemoKey(0, j)];
  for (TxnId i = 0; i < txn_count_; ++i) {
    const std::uint32_t u_p1 = scratch_anc_[i];
    if (u_p1 == 0 || i == j) continue;
    MemoEntry memo = memo_row[i];
    if (u_p1 <= memo.u_max_p1) continue;  // nothing new to push or pull
    const std::uint32_t u = u_p1 - 1;
    const std::uint32_t pushed = spec_.PushForward(i, j, u);
    if (pushed + 1 > memo.pf_p1) {
      if (pushed > u) {
        arc_buf_.emplace_back(indexer_.GlobalId(i, pushed), gid);  // F-arc
        arc_kind_buf_.push_back(kPushForwardArc);
      }
      // pushed <= u needs no arc: (i, pushed) is already an ancestor.
      memo.pf_p1 = pushed + 1;
    }
    const std::uint32_t pulled = spec_.PullBackward(j, i, op.index);
    if (pulled < op.index) {
      arc_buf_.emplace_back(indexer_.GlobalId(i, u),
                            indexer_.GlobalId(j, pulled));  // B-arc
      arc_kind_buf_.push_back(kPullBackwardArc);
    }
    // pulled == op.index needs no arc: (i, u) already reaches this op.
    memo.u_max_p1 = u_p1;
    pending_memos_.push_back({MemoKey(i, j), memo});
  }

  const std::size_t edges_before = topo_.edge_count();
  const std::uint64_t repairs_before = topo_.reorder_count();
  if (!topo_.AddEdges(arc_buf_)) {
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

  // Commit: memos, then the shared tail (ancestor array, retention
  // flags, frontier, indices).
  for (const PendingMemo& pending : pending_memos_) {
    MemoEntry& entry = memo_[pending.key];
    if (entry.u_max_p1 == 0) ++memo_live_;
    entry = pending.entry;
  }
  // Isolation tracking for TryAppendIsolated: every arc emitted above is
  // incident only on transactions with a nonzero scratch entry (plus j
  // itself), so clearing exactly those bits maintains the invariant that
  // safe_[t] == 1 implies no cross-transaction arc touches t's nodes.
  bool cross = false;
  for (std::size_t t = 0; t < txn_count_; ++t) {
    if (t != j && scratch_anc_[t] != 0) {
      safe_[t] = 0;
      cross = true;
    }
  }
  if (cross) safe_[j] = 0;
  CommitOp(op, gid, obj_idx);
  return AdmitResult::Accept(j);
}

AdmitResult OnlineRsrChecker::TryAppendIsolated(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransaction");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;
  if (safe_[j] == 0) return AdmitResult::Retry(j);
  const std::uint32_t obj_idx = ObjIndex(op.object);
  {
    // Eligibility: the object's frontier must be empty or owned by j.
    // (A read could tolerate foreign readers; this path stays
    // conservative.)
    // Ineligibility is kRetry — retry through the full TryAppend — never
    // kReject: this path cannot prove a cycle.
    const ObjState& state = objects_[obj_idx];
    if (state.last_writer != kNoGid && !indexer_.InTxn(j, state.last_writer)) {
      return AdmitResult::Retry(j);
    }
    for (const std::size_t reader : state.readers) {
      if (!indexer_.InTxn(j, reader)) return AdmitResult::Retry(j);
    }
  }

  // Guaranteed accept: j's nodes carry no cross-transaction arcs
  // (safe_), the frontier contributes no D-arc and the ancestor array
  // has no cross entries, so no F/B arc is due — the only emission is
  // the program-order I-arc into the fresh sink node `gid`, which
  // cannot close a cycle. The F/B memo scan is skipped entirely.
  if (op.index > 0) {
    const std::uint32_t prev_slot = slot_of_[gid - 1];
    RELSER_DCHECK(prev_slot != kNoSlot);
    const std::uint32_t* prev = &pool_[prev_slot * txn_count_];
    std::copy(prev, prev + txn_count_, scratch_anc_.begin());
    scratch_anc_[j] = std::max(scratch_anc_[j], op.index);
    const IncrementalTopology::AddResult added = topo_.AddEdge(gid - 1, gid);
    RELSER_CHECK(added != IncrementalTopology::AddResult::kCycle);
    ++arcs_submitted_;
    if (added == IncrementalTopology::AddResult::kInserted) {
      ++arcs_inserted_total_;
    }
    if (tracer_ != nullptr && tracer_->counting()) {
      tracer_->AddArcStats(1,
                           added == IncrementalTopology::AddResult::kInserted
                               ? 1
                               : 0,
                           0);
      if (tracer_->events_on()) {
        tracer_->RecordArc(kInternalArc, indexer_.Op(txns_, gid - 1), op,
                           tracer_->tick());
      }
    }
  } else {
    std::fill(scratch_anc_.begin(), scratch_anc_.end(), 0);
  }
  CommitOp(op, gid, obj_idx);
  return AdmitResult::Accept(j);
}

void OnlineRsrChecker::CommitOp(const Operation& op, std::size_t gid,
                                std::uint32_t obj_idx) {
  const TxnId j = op.txn;
  const std::uint32_t slot = AcquireSlot(gid);
  std::copy(scratch_anc_.begin(), scratch_anc_.end(),
            &pool_[slot * txn_count_]);
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
    // this write. Drop its retention claims.
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
  state.ops.push_back(gid);
  txn_objects_[j].push_back(obj_idx);

  executed_[gid] = 1;
  ++executed_count_;
  feed_log_.push_back(gid);
}

void OnlineRsrChecker::RetainFrontier(std::size_t gid) {
  flags_[gid] = static_cast<std::uint8_t>(flags_[gid] | kFrontierFlag);
  if (slot_of_[gid] != kNoSlot) return;
  // The array was released when this op left the frontier; resurrect it
  // from the newest retained array of its transaction. That array is a
  // superset of the op's true ancestors (arrays are cumulative along
  // program order), so admission stays sound.
  const TxnId txn = indexer_.TxnOf(gid);
  const std::size_t newest = newest_gid_[txn];
  RELSER_DCHECK(newest != kNoGid && slot_of_[newest] != kNoSlot);
  const std::size_t src = static_cast<std::size_t>(slot_of_[newest]) *
                          txn_count_;
  const std::uint32_t slot = AcquireSlot(gid);
  std::copy(&pool_[src], &pool_[src + txn_count_], &pool_[slot * txn_count_]);
}

void OnlineRsrChecker::RebuildFrontier(ObjState& state) {
  state.last_writer = kNoGid;
  state.readers.clear();
  rebuild_reads_.clear();
  for (std::size_t i = state.ops.size(); i > 0; --i) {
    const std::size_t gid = state.ops[i - 1];
    if (indexer_.Op(txns_, gid).is_write()) {
      state.last_writer = gid;
      break;
    }
    rebuild_reads_.push_back(gid);
  }
  state.readers.assign(rebuild_reads_.rbegin(), rebuild_reads_.rend());
  // A removal only widens the frontier (survivors keep their membership),
  // so re-flagging every member — resurrecting released arrays — restores
  // the retention invariant.
  if (state.last_writer != kNoGid) RetainFrontier(state.last_writer);
  for (const std::size_t reader : state.readers) RetainFrontier(reader);
}

void OnlineRsrChecker::RemoveTransaction(TxnId txn) {
  const std::size_t begin = indexer_.TxnBegin(txn);
  const std::size_t end = indexer_.TxnEnd(txn);
  for (std::size_t gid = begin; gid < end; ++gid) {
    // Unexecuted ops can still carry arcs (F-arc sources / B-arc targets
    // land on future ops), so every node of the transaction is isolated.
    //
    // Frontier-pruned arcs encode many dependencies only as *paths*, and
    // a path between survivors may route through this node (e.g. the
    // write chain w1 -> w_removed -> w3 carries the direct w1/w3
    // conflict). Bypass arcs pred -> succ preserve the survivor-restricted
    // transitive closure exactly, so no admitted dependency loses its
    // path (docs/hotpath.md, abort section). Internal I-arcs only ever
    // point to higher gids, so processing gids in increasing order chains
    // bypasses through multi-op removals correctly.
    bypass_in_.assign(topo_.graph().InNeighbors(gid).begin(),
                      topo_.graph().InNeighbors(gid).end());
    bypass_out_.assign(topo_.graph().OutNeighbors(gid).begin(),
                       topo_.graph().OutNeighbors(gid).end());
    topo_.IsolateNode(gid);
    for (const NodeId pred : bypass_in_) {
      for (const NodeId succ : bypass_out_) {
        // A rejected bypass would mean pred -> gid -> succ closed a cycle
        // before the removal, which an acyclic graph cannot contain.
        RELSER_CHECK(topo_.AddEdge(pred, succ) !=
                     IncrementalTopology::AddResult::kCycle);
      }
    }
    if (executed_[gid] != 0) {
      executed_[gid] = 0;
      --executed_count_;
    }
    flags_[gid] = 0;
    ReleaseSlotIfAny(gid);
  }
  newest_gid_[txn] = kNoGid;
  // Every arc incident on the transaction's nodes was removed by
  // IsolateNode (the bypass arcs connect only survivor nodes), so its
  // fresh incarnation starts isolated again.
  safe_[txn] = 1;
  // Scrub the removed transaction's column from every retained array.
  // Entries of *other* transactions that flowed through the removed ops
  // are kept: a sound over-approximation (class-level comment).
  for (std::size_t slot = 0; slot < slot_owner_.size(); ++slot) {
    if (slot_owner_[slot] != kNoGid) {
      pool_[slot * txn_count_ + txn] = 0;
    }
  }
  ClearMemoPairsOf(txn);
  // Reverse-index scrub: only objects this transaction touched.
  ++obj_gen_;
  for (const std::uint32_t obj_idx : txn_objects_[txn]) {
    if (obj_stamp_[obj_idx] == obj_gen_) continue;
    obj_stamp_[obj_idx] = obj_gen_;
    ObjState& state = objects_[obj_idx];
    std::erase_if(state.ops, [&](std::size_t gid) {
      return gid >= begin && gid < end;
    });
    RebuildFrontier(state);
  }
  txn_objects_[txn].clear();
  std::erase_if(feed_log_, [&](std::size_t gid) {
    return gid >= begin && gid < end;
  });
}

void OnlineRsrChecker::RemoveTransactionExact(TxnId txn) {
  const std::size_t begin = indexer_.TxnBegin(txn);
  const std::size_t end = indexer_.TxnEnd(txn);

  // Snapshot the surviving feed, then reset every piece of admission
  // state to its freshly-constructed value.
  replay_feed_.clear();
  replay_feed_.reserve(feed_log_.size());
  for (const std::size_t gid : feed_log_) {
    if (gid < begin || gid >= end) replay_feed_.push_back(gid);
  }
  ResetAndReplay();
}

std::size_t OnlineRsrChecker::Truncate(
    const std::atomic<std::uint8_t>* settled) {
  replay_feed_.clear();
  replay_feed_.reserve(feed_log_.size());
  std::size_t dropped = 0;
  for (const std::size_t gid : feed_log_) {
    const TxnId t = indexer_.TxnOf(gid);
    if (settled[t].load(std::memory_order_relaxed) != 0) {
      ++dropped;
    } else {
      replay_feed_.push_back(gid);
    }
  }
  if (dropped == 0) return 0;
  ResetAndReplay();
  return dropped;
}

void OnlineRsrChecker::ClearMemoPairsOf(TxnId txn) {
  const auto clear = [this](MemoEntry& entry) {
    if (entry.u_max_p1 == 0) return;
    entry = MemoEntry{};
    --memo_live_;
  };
  for (TxnId other = 0; other < txn_count_; ++other) {
    clear(memo_[MemoKey(other, txn)]);  // row txn
    clear(memo_[MemoKey(txn, other)]);  // column txn
  }
}

void OnlineRsrChecker::ResetAndReplay() {
  // Only the rows of transactions with executed ops hold memo entries
  // (a row is written when its transaction appends, and cleared when it
  // is removed), so clearing those rows empties the whole memo.
  for (TxnId t = 0; t < txn_count_; ++t) {
    if (newest_gid_[t] == kNoGid) continue;
    MemoEntry* row = &memo_[MemoKey(0, t)];
    std::fill(row, row + txn_count_, MemoEntry{});
  }
  memo_live_ = 0;
  topo_ = IncrementalTopology(indexer_.total_ops());
  topo_.Reserve(4 * indexer_.total_ops());
  topo_.ReserveAdjacency(8);
  std::fill(executed_.begin(), executed_.end(), std::uint8_t{0});
  std::fill(safe_.begin(), safe_.end(), std::uint8_t{1});
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
  std::fill(newest_gid_.begin(), newest_gid_.end(), kNoGid);
  pool_.clear();
  free_slots_.clear();
  slot_owner_.clear();
  object_index_.Clear();
  objects_.clear();
  obj_stamp_.clear();
  obj_gen_ = 0;
  for (auto& touched : txn_objects_) touched.clear();
  executed_count_ = 0;
  feed_log_.clear();

  // Silent replay of the survivors: no trace events, and rejections()
  // keeps its pre-abort value (the replay cannot reject — see below).
  Tracer* const saved_tracer = tracer_;
  tracer_ = nullptr;
  const std::size_t saved_rejections = rejections_;
  for (const std::size_t gid : replay_feed_) {
    // Every survivor re-admits: the replayed prefix's RSG is a subgraph
    // of the original graph restricted to survivors (conflict frontiers
    // and ancestor maxima can only shrink when operations disappear),
    // and a subgraph of an acyclic graph is acyclic.
    RELSER_CHECK_MSG(TryAppend(indexer_.Op(txns_, gid)).ok(),
                     "surviving feed must replay cleanly after an abort");
  }
  rejections_ = saved_rejections;
  tracer_ = saved_tracer;
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
  mix(executed_count_);
  for (const std::uint8_t bit : executed_) mix(bit);
  for (const std::uint8_t bit : safe_) mix(bit);
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
      mix(object);
      mix(state.ops.size());
      for (const std::size_t gid : state.ops) mix(gid);
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
    const std::uint32_t* row = &pool_[static_cast<std::size_t>(slot) *
                                      txn_count_];
    for (std::size_t t = 0; t < txn_count_; ++t) mix(row[t]);
  }
  // F/B memo: live entries in key order.
  for (std::size_t key = 0; key < memo_.size(); ++key) {
    if (memo_[key].u_max_p1 == 0) continue;
    mix(key);
    mix(memo_[key].u_max_p1);
    mix(memo_[key].pf_p1);
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
