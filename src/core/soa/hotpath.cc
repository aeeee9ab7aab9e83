#include "core/soa/hotpath.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/explain.h"
#include "core/rsg.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/simd.h"

namespace relser {

namespace {
constexpr std::size_t kLanesPerBlock = 64;  // lanes covered by one mask word
constexpr std::size_t kBlockBytes = kLanesPerBlock * sizeof(std::uint32_t);
}  // namespace

SoaRsrChecker::SoaRsrChecker(const TransactionSet& txns,
                             const AtomicitySpec& spec)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      topo_(indexer_.total_ops()),
      txn_count_(indexer_.txn_count()),
      mask_words_((txn_count_ + 63) / 64),
      row_stride_(mask_words_ * kLanesPerBlock),
      executed_(indexer_.total_ops(), 0),
      taint_(txn_count_),
      flags_(indexer_.total_ops(), 0),
      slot_of_(indexer_.total_ops(), kNoSlot),
      newest_gid_(txn_count_, kNoGid),
      obj_writer_(txns.object_count(), kNoGid),
      obj_writer_txn_(txns.object_count(), kNoTxn),
      obj_readers_(txns.object_count()),
      memo_(txn_count_ * txn_count_),
      scratch_anc_(row_stride_, 0),
      scratch_mask_(mask_words_, 0) {
  RELSER_CHECK_MSG(spec.ValidateAgainst(txns).ok(),
                   "specification does not match the transaction set");
  RELSER_CHECK_MSG(indexer_.total_ops() <= 0xFFFFFFFFu,
                   "packed reader entries require 32-bit op ids");
  arc_buf_.reserve(64);
  arc_kind_buf_.reserve(64);
  pred_buf_.reserve(32);
  feed_log_.reserve(indexer_.total_ops());
  pending_memos_.reserve(txn_count_);
  topo_.Reserve(4 * indexer_.total_ops());
  topo_.ReserveAdjacency(8);
}

std::uint32_t SoaRsrChecker::AcquireSlot(std::size_t gid) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_owner_.size());
    slot_owner_.push_back(kNoGid);
    pool_.resize(pool_.size() + row_stride_);
    pool_mask_.resize(pool_mask_.size() + mask_words_);
  }
  slot_owner_[slot] = gid;
  slot_of_[gid] = slot;
  return slot;
}

void SoaRsrChecker::ReleaseSlotIfAny(std::size_t gid) {
  const std::uint32_t slot = slot_of_[gid];
  if (slot == kNoSlot || flags_[gid] != 0) return;
  slot_of_[gid] = kNoSlot;
  slot_owner_[slot] = kNoGid;
  free_slots_.push_back(slot);
}

void SoaRsrChecker::ClearScratch() {
  // Only blocks dirtied by the previous append can be nonzero; zero those
  // and the invariant "scratch is all-zero outside its mask" holds again.
  for (std::size_t w = 0; w < mask_words_; ++w) {
    if (scratch_mask_[w] == 0) continue;
    std::memset(&scratch_anc_[w * kLanesPerBlock], 0, kBlockBytes);
    scratch_mask_[w] = 0;
  }
}

void SoaRsrChecker::SeedFromRow(std::uint32_t slot) {
  const std::uint32_t* row = &pool_[static_cast<std::size_t>(slot) *
                                    row_stride_];
  const std::uint64_t* mask = &pool_mask_[static_cast<std::size_t>(slot) *
                                          mask_words_];
  // Scratch is all-zero here, so a copy of the masked blocks is the same
  // as a max-merge, one pass cheaper.
  for (std::size_t w = 0; w < mask_words_; ++w) {
    if (mask[w] == 0) continue;
    std::memcpy(&scratch_anc_[w * kLanesPerBlock], &row[w * kLanesPerBlock],
                kBlockBytes);
  }
  std::memcpy(scratch_mask_.data(), mask,
              mask_words_ * sizeof(std::uint64_t));
}

void SoaRsrChecker::MergeRowMax(std::uint32_t slot) {
  const std::uint32_t* row = &pool_[static_cast<std::size_t>(slot) *
                                    row_stride_];
  const std::uint64_t* mask = &pool_mask_[static_cast<std::size_t>(slot) *
                                          mask_words_];
  for (std::size_t w = 0; w < mask_words_; ++w) {
    if (mask[w] == 0) continue;
    MaxU32(&scratch_anc_[w * kLanesPerBlock], &row[w * kLanesPerBlock],
           kLanesPerBlock);
    scratch_mask_[w] |= mask[w];
  }
}

AdmitResult SoaRsrChecker::TryAppend(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransactionExact");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;

  // Seed the scratch ancestor row from the previous op of the same
  // transaction (rows are cumulative along program order).
  ClearScratch();
  if (op.index > 0) {
    const std::uint32_t prev_slot = slot_of_[gid - 1];
    RELSER_DCHECK(prev_slot != kNoSlot);
    SeedFromRow(prev_slot);
    RaiseLane(j, op.index);  // the previous op itself
  }

  // Direct cross-transaction predecessors: the conflicting members of
  // the object's conflict frontier, read straight from the frontier
  // columns (no Operation records touched).
  pred_buf_.clear();
  const ObjectId obj = op.object;
  {
    if (obj_writer_[obj] != kNoGid && obj_writer_txn_[obj] != j) {
      pred_buf_.push_back(obj_writer_[obj]);
    }
    if (op.is_write()) {
      for (const std::uint64_t packed : obj_readers_[obj]) {
        if (ReaderTxn(packed) != j) pred_buf_.push_back(ReaderGid(packed));
      }
    }
  }

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
    const std::uint32_t pred_slot = slot_of_[pred];
    RELSER_DCHECK(pred_slot != kNoSlot);
    MergeRowMax(pred_slot);
    const TxnId pred_txn = indexer_.TxnOf(pred);
    const std::uint32_t pred_index =
        static_cast<std::uint32_t>(pred - indexer_.TxnBegin(pred_txn));
    RaiseLane(pred_txn, pred_index + 1);
  }

  // F/B arcs, memoized per (ancestor txn, this txn). Iterating the set
  // bits of the scratch column mask ascending visits exactly the nonzero
  // ancestor columns in the same order the AoS checker scans them, so
  // arc emission — and therefore every decision and witness — matches.
  pending_memos_.clear();
  const MemoEntry* memo_row = &memo_[MemoKey(0, j)];
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t bits = scratch_mask_[w];
    while (bits != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (i == j) continue;
      const std::uint32_t u_p1 = scratch_anc_[i];
      MemoEntry memo = memo_row[i];
      if (u_p1 <= memo.u_max_p1) continue;  // nothing new to push or pull
      const std::uint32_t u = u_p1 - 1;
      const std::uint32_t pushed =
          spec_.PushForward(static_cast<TxnId>(i), j, u);
      if (pushed + 1 > memo.pf_p1) {
        if (pushed > u) {
          arc_buf_.emplace_back(indexer_.GlobalId(static_cast<TxnId>(i),
                                                  pushed),
                                gid);  // F-arc
          arc_kind_buf_.push_back(kPushForwardArc);
        }
        memo.pf_p1 = pushed + 1;
      }
      const std::uint32_t pulled =
          spec_.PullBackward(j, static_cast<TxnId>(i), op.index);
      if (pulled < op.index) {
        arc_buf_.emplace_back(indexer_.GlobalId(static_cast<TxnId>(i), u),
                              indexer_.GlobalId(j, pulled));  // B-arc
        arc_kind_buf_.push_back(kPullBackwardArc);
      }
      memo.u_max_p1 = u_p1;
      pending_memos_.push_back({MemoKey(static_cast<TxnId>(i), j), memo});
    }
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

  for (const PendingMemo& pending : pending_memos_) {
    MemoEntry& entry = memo_[pending.key];
    if (entry.u_max_p1 == 0) ++memo_live_;
    entry = pending.entry;
  }
  // Taint (the inverse of the AoS safe_ bits), word-parallel: every arc
  // emitted above is incident only on transactions with a set scratch
  // mask bit (plus j itself), so ORing the mask into the taint bitset —
  // and j's bit when any cross column exists — maintains the invariant
  // that an untainted transaction has no cross-transaction arc.
  {
    const std::size_t jw = static_cast<std::size_t>(j) >> 6;
    const std::uint64_t jbit = 1ULL << (static_cast<std::size_t>(j) & 63);
    bool cross = false;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      std::uint64_t m = scratch_mask_[w];
      if (w == jw) m &= ~jbit;
      if (m != 0) {
        cross = true;
        break;
      }
    }
    if (cross) {
      OrWords(taint_.words(), scratch_mask_.data(), mask_words_);
      taint_.Set(j);
    }
  }
  CommitOp(op, gid);
  return AdmitResult::Accept(j);
}

AdmitResult SoaRsrChecker::TryAppendIsolated(const Operation& op) {
  const std::size_t gid = indexer_.GlobalId(op);
  RELSER_CHECK_MSG(executed_[gid] == 0,
                   "operation fed twice without RemoveTransactionExact");
  if (op.index > 0) {
    RELSER_CHECK_MSG(executed_[gid - 1] != 0,
                     "operations must be fed in program order");
  }
  const TxnId j = op.txn;
  if (taint_.Test(j)) return AdmitResult::Retry(j);
  const ObjectId obj = op.object;
  // Eligibility identical to OnlineRsrChecker::TryAppendIsolated: the
  // object's frontier must be empty or owned by j.
  if (obj_writer_[obj] != kNoGid && obj_writer_txn_[obj] != j) {
    return AdmitResult::Retry(j);
  }
  for (const std::uint64_t packed : obj_readers_[obj]) {
    if (ReaderTxn(packed) != j) return AdmitResult::Retry(j);
  }

  // Guaranteed accept: the only emission is the program-order I-arc into
  // the fresh sink node `gid`, which cannot close a cycle.
  ClearScratch();
  if (op.index > 0) {
    const std::uint32_t prev_slot = slot_of_[gid - 1];
    RELSER_DCHECK(prev_slot != kNoSlot);
    SeedFromRow(prev_slot);
    RaiseLane(j, op.index);
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
  }
  CommitOp(op, gid);
  return AdmitResult::Accept(j);
}

void SoaRsrChecker::CommitOp(const Operation& op, std::size_t gid) {
  const TxnId j = op.txn;
  const std::uint32_t slot = AcquireSlot(gid);
  // Persist scratch: masked value blocks plus the whole mask row (the
  // row may be a reused slot, so every mask word must be overwritten;
  // value blocks under zero mask words stay garbage and are never read).
  std::uint32_t* row = &pool_[static_cast<std::size_t>(slot) * row_stride_];
  for (std::size_t w = 0; w < mask_words_; ++w) {
    if (scratch_mask_[w] == 0) continue;
    std::memcpy(&row[w * kLanesPerBlock], &scratch_anc_[w * kLanesPerBlock],
                kBlockBytes);
  }
  std::memcpy(&pool_mask_[static_cast<std::size_t>(slot) * mask_words_],
              scratch_mask_.data(), mask_words_ * sizeof(std::uint64_t));

  flags_[gid] = static_cast<std::uint8_t>(kNewestFlag | kFrontierFlag);
  if (op.index > 0) {
    flags_[gid - 1] = static_cast<std::uint8_t>(flags_[gid - 1] &
                                                ~std::uint32_t{kNewestFlag});
    ReleaseSlotIfAny(gid - 1);
  }
  newest_gid_[j] = gid;

  const ObjectId obj = op.object;
  if (op.is_write()) {
    // The old frontier is dominated: future conflicts reach it through
    // this write. Drop its retention claims.
    if (obj_writer_[obj] != kNoGid) {
      const std::size_t old = obj_writer_[obj];
      flags_[old] = static_cast<std::uint8_t>(flags_[old] &
                                              ~std::uint32_t{kFrontierFlag});
      ReleaseSlotIfAny(old);
    }
    for (const std::uint64_t packed : obj_readers_[obj]) {
      const std::size_t reader = ReaderGid(packed);
      flags_[reader] = static_cast<std::uint8_t>(
          flags_[reader] & ~std::uint32_t{kFrontierFlag});
      ReleaseSlotIfAny(reader);
    }
    obj_readers_[obj].clear();
    obj_writer_[obj] = gid;
    obj_writer_txn_[obj] = j;
  } else {
    if (obj_readers_[obj].capacity() == 0) obj_readers_[obj].reserve(8);
    obj_readers_[obj].push_back(PackReader(j, gid));
  }

  executed_[gid] = 1;
  ++executed_count_;
  feed_log_.push_back(gid);
}

void SoaRsrChecker::RemoveTransactionExact(TxnId txn) {
  const std::size_t begin = indexer_.TxnBegin(txn);
  const std::size_t end = indexer_.TxnEnd(txn);

  // Snapshot the surviving feed, then reset every column to its
  // freshly-constructed value (scratch excepted: its mask still tracks
  // which blocks are dirty, and the next TryAppend clears exactly those).
  replay_feed_.clear();
  replay_feed_.reserve(feed_log_.size());
  for (const std::size_t gid : feed_log_) {
    if (gid < begin || gid >= end) replay_feed_.push_back(gid);
  }
  ResetAndReplay();
}

std::size_t SoaRsrChecker::Truncate(const std::atomic<std::uint8_t>* settled) {
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

void SoaRsrChecker::ResetAndReplay() {
  // Only the rows of transactions with executed ops hold memo entries (a
  // row is written when its transaction appends), so clearing those rows
  // empties the whole memo.
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
  taint_.Clear();
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(slot_of_.begin(), slot_of_.end(), kNoSlot);
  std::fill(newest_gid_.begin(), newest_gid_.end(), kNoGid);
  pool_.clear();
  pool_mask_.clear();
  free_slots_.clear();
  slot_owner_.clear();
  std::fill(obj_writer_.begin(), obj_writer_.end(), kNoGid);
  std::fill(obj_writer_txn_.begin(), obj_writer_txn_.end(), kNoTxn);
  for (auto& readers : obj_readers_) readers.clear();
  executed_count_ = 0;
  feed_log_.clear();

  // Silent replay of the survivors: no trace events, and rejections()
  // keeps its pre-abort value (the replay cannot reject — the survivor-
  // restricted RSG is a subgraph of the original acyclic graph).
  Tracer* const saved_tracer = tracer_;
  tracer_ = nullptr;
  const std::size_t saved_rejections = rejections_;
  for (const std::size_t gid : replay_feed_) {
    RELSER_CHECK_MSG(TryAppend(indexer_.Op(txns_, gid)).ok(),
                     "surviving feed must replay cleanly after an abort");
  }
  rejections_ = saved_rejections;
  tracer_ = saved_tracer;
}

std::size_t SoaRsrChecker::FrontierWriterGid(ObjectId object) const {
  if (object >= obj_writer_.size()) return kNoOp;
  const std::size_t writer = obj_writer_[object];
  return writer == kNoGid ? kNoOp : writer;
}

void SoaRsrChecker::FrontierReaders(ObjectId object,
                                    std::vector<std::size_t>* out) const {
  if (object >= obj_readers_.size()) return;
  for (const std::uint64_t packed : obj_readers_[object]) {
    out->push_back(ReaderGid(packed));
  }
}

std::uint64_t SoaRsrChecker::StateDigest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(executed_count_);
  for (const std::uint8_t bit : executed_) mix(bit);
  for (std::size_t t = 0; t < txn_count_; ++t) mix(taint_.Test(t) ? 1 : 0);
  for (const std::size_t gid : newest_gid_) mix(gid);
  // Frontier columns over the dense ObjectId universe (dense ids are a
  // stable order, unlike the AoS checker's first-touch map).
  for (ObjectId obj = 0; obj < obj_writer_.size(); ++obj) {
    if (obj_writer_[obj] == kNoGid && obj_readers_[obj].empty()) continue;
    mix(obj);
    mix(obj_writer_[obj]);
    mix(obj_readers_[obj].size());
    for (const std::uint64_t packed : obj_readers_[obj]) mix(packed);
  }
  // Retained ancestor rows: masked lanes only — lanes outside a row's
  // mask are allocation history, never read, and must not participate.
  for (std::size_t gid = 0; gid < slot_of_.size(); ++gid) {
    const std::uint32_t slot = slot_of_[gid];
    if (slot == kNoSlot) continue;
    mix(gid);
    mix(flags_[gid]);
    const std::uint32_t* row = &pool_[static_cast<std::size_t>(slot) *
                                      row_stride_];
    const std::uint64_t* mask = &pool_mask_[static_cast<std::size_t>(slot) *
                                            mask_words_];
    for (std::size_t w = 0; w < mask_words_; ++w) {
      std::uint64_t bits = mask[w];
      while (bits != 0) {
        const std::size_t lane =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        mix(lane);
        mix(row[lane]);
      }
    }
  }
  // F/B memo: live entries in key order.
  for (std::size_t key = 0; key < memo_.size(); ++key) {
    if (memo_[key].u_max_p1 == 0) continue;
    mix(key);
    mix(memo_[key].u_max_p1);
    mix(memo_[key].pf_p1);
  }
  // Graph adjacency, sorted per node.
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

std::size_t SoaRsrChecker::FirstRejection(const TransactionSet& txns,
                                          const AtomicitySpec& spec,
                                          const Schedule& schedule) {
  SoaRsrChecker checker(txns, spec);
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    if (!checker.TryAppend(schedule.op(pos))) {
      return pos;
    }
  }
  return schedule.size();
}

}  // namespace relser
