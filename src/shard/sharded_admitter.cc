#include "shard/sharded_admitter.h"

#include <algorithm>
#include <thread>

#include "exec/faultplan.h"
#include "util/check.h"

namespace relser {
namespace {

// First arc of `arcs` (one source's ascending out_arcs) whose target is
// not below `to`.
template <typename Arc>
auto ArcLowerBound(std::vector<Arc>& arcs, TxnId to) {
  return std::lower_bound(
      arcs.begin(), arcs.end(), to,
      [](const Arc& arc, TxnId target) { return arc.to < target; });
}

// The arc to `to` in `arcs`; nullptr when absent (never recorded, or
// collected with its settled source).
template <typename Arc>
Arc* FindArc(std::vector<Arc>& arcs, TxnId to) {
  const auto at = ArcLowerBound(arcs, to);
  return at != arcs.end() && at->to == to ? &*at : nullptr;
}

}  // namespace

ShardedAdmitter::Core::Core(const ShardSlice& slice_in, std::size_t txn_count,
                            TraceLevel trace_level)
    : slice(slice_in),
      checker(slice_in.txns, slice_in.spec),
      tracer(trace_level),
      readers_of(txn_count),
      out_arcs(txn_count),
      in_arcs(txn_count),
      tainted(txn_count, 0),
      local_dead(txn_count, 0) {}

ShardedAdmitter::ShardedAdmitter(const TransactionSet& txns,
                                 const AtomicitySpec& spec, ShardRouter router,
                                 ShardedAdmitterOptions options)
    : txns_(txns),
      spec_(spec),
      indexer_(txns),
      plan_(std::make_unique<ShardPlan>(txns, spec, std::move(router))),
      options_(options),
      coordinator_(txns.txn_count(), &coordinator_tracer_),
      coordinator_tracer_(options.tracer != nullptr ? options.tracer->level()
                                                    : TraceLevel::kOff),
      kill_remaining_(
          std::vector<std::atomic<std::uint32_t>>(txns.txn_count())),
      decision_(std::vector<std::atomic<std::uint8_t>>(indexer_.total_ops())),
      txn_state_(std::vector<std::atomic<std::uint8_t>>(txns.txn_count())),
      pending_(std::vector<std::atomic<std::uint32_t>>(txns.txn_count())) {
  if (options_.snapshot_reads) store_ = std::make_unique<VersionStore>(txns);
  if (options_.epoch_gc) {
    epochs_ =
        std::make_unique<EpochManager>(txns.txn_count(), options_.gc_interval);
  }
  BuildCores();
}

void ShardedAdmitter::BuildCores() {
  const TraceLevel level = options_.tracer != nullptr ? options_.tracer->level()
                                                      : TraceLevel::kOff;
  const std::size_t shard_count = plan_->shard_count();
  cores_.reserve(shard_count);
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    cores_.push_back(
        std::make_unique<Core>(plan_->slice(shard), txns_.txn_count(), level));
    cores_.back()->shard_id = shard;
    if (options_.tracer != nullptr) {
      cores_.back()->checker.set_tracer(&cores_.back()->tracer);
    }
  }
  // Multi-shard transactions are born tainted on every shard they touch:
  // their program-order glue spans shards, so every local conflict arc
  // incident to them must reach the coordinator (the taint flood extends
  // this to their local conflict components).
  const auto txn_count = static_cast<TxnId>(txns_.txn_count());
  for (TxnId txn = 0; txn < txn_count; ++txn) {
    if (!plan_->spans().MultiShard(txn)) continue;
    for (const std::uint32_t shard : plan_->spans().ShardsOf(txn)) {
      cores_[shard]->tainted[txn] = 1;
    }
  }
}

ShardedAdmitter::~ShardedAdmitter() { Stop(); }

namespace {

// The admitter whose controls this thread must settle before its next
// SubmitAndWait or AbortTxn on it: set after a verdict that may have
// posted kills to other shards (any terminal non-accept).
thread_local const ShardedAdmitter* settle_owed = nullptr;

// Shards this thread posted an operation or a control to and has not
// tried since (rule (b)); drained by TryPostedShards before the
// thread leaves the admitter.
thread_local std::vector<std::uint32_t> posted_shards;

// A snapshot admit's trace events, ticked at the admit's watermark.
void TraceSnapshotAdmit(Tracer* tracer, const SnapshotAdmitRecord& rec) {
  tracer->RecordSnapshotRead(rec.txn, rec.epoch);
  tracer->RecordCommit(rec.txn, rec.epoch);
}

}  // namespace

AdmitResult ShardedAdmitter::SubmitAndWait(const Operation& op,
                                           std::chrono::microseconds timeout) {
  SettleOwedControls();
  const AdmitResult result = Submit(op, timeout);
  if (result.outcome != AdmitOutcome::kAccept &&
      result.outcome != AdmitOutcome::kRetry) {
    settle_owed = this;
  }
  return result;
}

void ShardedAdmitter::SettleOwedControls() {
  if (settle_owed != this) return;
  settle_owed = nullptr;
  while (controls_inflight_.load(std::memory_order_acquire) != 0) {
    for (auto& core : cores_) {
      // Taken even when nothing is posted: it waits out a step that has
      // already swapped this shard's inbox and is still applying it.
      while (!core->TryTake()) core->token.wait(1, std::memory_order_relaxed);
      if (core->posted.load(std::memory_order_acquire)) {
        Step(*core, nullptr);
      }
      Release(*core);
    }
  }
  TryPostedShards();
}

AdmitResult ShardedAdmitter::Submit(const Operation& op,
                                    std::chrono::microseconds timeout) {
  const std::size_t gid = indexer_.GlobalId(op);
  // Snapshot-read fast path: a settled read-only transaction commits
  // here, on the client thread, without touching any shard inbox. The
  // feeding contract makes this thread the transaction's only
  // submitter; a concurrent AbortTxn is arbitrated by the commit CAS.
  // The merge stamp is drawn from admission_stamp_ AFTER that CAS.
  // Stamp order is sound because a shard core's token holder stamps a
  // writer's program-order-last accept BEFORE its release
  // NoteCommit decrement (Decide), and the classification here
  // acquire-reads that decrement before drawing its own stamp — so a
  // snapshot block's stamp exceeds the stamp of every operation of
  // every committed writer of its read set, and CommittedLog splices
  // the block after every write it read.
  if (store_ != nullptr && store_->IsReadOnly(op.txn)) {
    const std::uint8_t word = decision_[gid].load(std::memory_order_acquire);
    if (word != 0) {
      return AdmitResult{static_cast<AdmitOutcome>(word - 1), {}, op.txn};
    }
    if (op.index == 0 && TxnState(op.txn) == kStateLive) {
      if (store_->ReadSetSettled(op.txn)) {
        std::uint8_t expected = kStateLive;
        if (txn_state_[op.txn].compare_exchange_strong(
                expected, kStateCommitted, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          // Watermark read after the settledness check: it covers the
          // epoch of every finished writer this transaction reads.
          const std::uint64_t epoch = store_->watermark();
          const std::uint64_t stamp =
              admission_stamp_.fetch_add(1, std::memory_order_relaxed);
          store_->LogSnapshotAdmit(op.txn, epoch, stamp);
          const Transaction& txn = txns_.txn(op.txn);
          constexpr auto kAcceptWord = static_cast<std::uint8_t>(
              1 + static_cast<std::uint8_t>(AdmitOutcome::kAccept));
          for (std::uint32_t i = 0; i < txn.size(); ++i) {
            decision_[indexer_.GlobalId(op.txn, i)].store(
                kAcceptWord, std::memory_order_release);
          }
          accepted_.fetch_add(txn.size(), std::memory_order_relaxed);
          // Arc-free and fully resolved: report the finish.
          if (epochs_ != nullptr) epochs_->NoteFinish(op.txn);
          return AdmitResult::Accept(op.txn);
        }
        // Lost the CAS to a concurrent AbortTxn: report the death.
        if (expected >= kStateDead) {
          return AdmitResult{static_cast<AdmitOutcome>(expected - kStateDead),
                             {},
                             op.txn};
        }
        return AdmitResult::Reject(op.txn);  // defensive; cannot happen
      }
      store_->TryCountEscalation(op.txn);
    }
  }
  const std::uint32_t shard = plan_->router().ShardOf(op.object);
  Core& core = *cores_[shard];
  pending_[op.txn].fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Caller-runs: an idle shard decides the operation right here, with
  // no inbox or condition-variable round trip.
  if (core.TryTake()) {
    Step(core, &op);
    Release(core);
    TryPostedShards();
    const std::uint8_t word = decision_[gid].load(std::memory_order_acquire);
    return AdmitResult{static_cast<AdmitOutcome>(word - 1), {}, op.txn};
  }
  if (!Post(core, Request{op, RequestKind::kOp})) {
    pending_[op.txn].fetch_sub(1, std::memory_order_relaxed);
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    retry_count_.fetch_add(1, std::memory_order_relaxed);
    return AdmitResult::Retry(op.txn);
  }
  // Rule (b): the holder that beat this thread to the token may have
  // made its last re-check before the post.
  posted_shards.push_back(shard);
  TryPostedShards();
  const auto decided = [&] {
    return decision_[gid].load(std::memory_order_acquire) != 0;
  };
  std::unique_lock<std::mutex> lock(decide_mu_);
  if (timeout <= std::chrono::microseconds::zero()) {
    decided_cv_.wait(lock, decided);
  } else {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    if (!decided_cv_.wait_until(lock, deadline, decided)) {
      lock.unlock();
      // Doom the transaction; the next step of the shard publishes the
      // in-flight decision word when it reaches the operation, so nobody
      // hangs.
      PostControl(shard, op.txn, RequestKind::kTimeoutAbort);
      TryPostedShards();
      return AdmitResult::Timeout(op.txn);
    }
  }
  const std::uint8_t word = decision_[gid].load(std::memory_order_acquire);
  return AdmitResult{static_cast<AdmitOutcome>(word - 1), {}, op.txn};
}

AdmitResult ShardedAdmitter::SubmitWithBackoff(
    const Operation& op, Backoff& backoff, std::chrono::microseconds timeout) {
  for (;;) {
    const AdmitResult result = SubmitAndWait(op, timeout);
    if (result.outcome != AdmitOutcome::kRetry) {
      backoff.Reset();
      return result;
    }
    std::this_thread::sleep_for(backoff.Next());
  }
}

AdmitResult ShardedAdmitter::AbortTxn(TxnId txn) {
  SettleOwedControls();
  settle_owed = this;
  const std::uint8_t state = TxnState(txn);
  if (state == kStateCommitted) return AdmitResult::Reject(txn);
  if (state >= kStateDead) {
    return AdmitResult{static_cast<AdmitOutcome>(state - kStateDead), {}, txn};
  }
  PostControl(plan_->spans().ShardsOf(txn).front(), txn, RequestKind::kAbort);
  TryPostedShards();
  std::unique_lock<std::mutex> lock(decide_mu_);
  decided_cv_.wait(lock, [&] { return TxnState(txn) != kStateLive; });
  const std::uint8_t final_state = TxnState(txn);
  if (final_state == kStateCommitted) {
    return AdmitResult::Reject(txn);  // the commit won the race
  }
  return AdmitResult{static_cast<AdmitOutcome>(final_state - kStateDead), {},
                     txn};
}

bool ShardedAdmitter::Post(Core& core, const Request& request) {
  std::lock_guard<std::mutex> lock(core.inbox_mu);
  if (request.kind == RequestKind::kOp) {
    // Backpressure bounds operations only. A control is never refused,
    // so a cascading holder never waits on another shard's inbox.
    if (core.queued_ops >= options_.queue_capacity) return false;
    ++core.queued_ops;
  }
  core.inbox.push_back(request);
  core.posted.store(true, std::memory_order_release);
  return true;
}

void ShardedAdmitter::PostControl(std::uint32_t shard, TxnId txn,
                                  RequestKind kind) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  controls_inflight_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  request.op.txn = txn;
  request.kind = kind;
  Post(*cores_[shard], request);
  posted_shards.push_back(shard);
}

std::optional<AdmitOutcome> ShardedAdmitter::OpOutcome(
    const Operation& op) const {
  const std::uint8_t word =
      decision_[indexer_.GlobalId(op)].load(std::memory_order_acquire);
  if (word == 0) return std::nullopt;
  return static_cast<AdmitOutcome>(word - 1);
}

AdmitResult ShardedAdmitter::TxnVerdict(TxnId txn) {
  std::unique_lock<std::mutex> lock(decide_mu_);
  decided_cv_.wait(lock, [&] {
    return pending_[txn].load(std::memory_order_acquire) == 0;
  });
  const std::uint8_t state = TxnState(txn);
  if (state >= kStateDead) {
    return AdmitResult{static_cast<AdmitOutcome>(state - kStateDead), {}, txn};
  }
  return AdmitResult::Accept(txn);
}

void ShardedAdmitter::Flush() {
  std::unique_lock<std::mutex> lock(decide_mu_);
  decided_cv_.wait(lock, [&] {
    return decided_.load(std::memory_order_acquire) ==
           submitted_.load(std::memory_order_acquire);
  });
}

void ShardedAdmitter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  Flush();
  if (options_.tracer != nullptr) {
    for (const auto& core : cores_) {
      options_.tracer->MergeFrom(core->tracer);
    }
    options_.tracer->MergeFrom(coordinator_tracer_);
    options_.tracer->AddRetries(retry_count_.load(std::memory_order_acquire));
    if (store_ != nullptr) {
      // Snapshot admits bypass every core, so no per-core tracer saw
      // them; fold the events of those still logged here (GC folded the
      // dropped ones into a core's tracer).
      for (const SnapshotAdmitRecord& rec : store_->SnapshotAdmits()) {
        TraceSnapshotAdmit(options_.tracer, rec);
      }
      options_.tracer->AddSnapshotEscalations(store_->snapshot_escalations());
    }
    options_.tracer->SetCoordinatorArcCensus(coordinator_.arcs_live(),
                                             coordinator_.arcs_dead());
  }
}

namespace {

// (stamp, sub) merge key: shard-core accepts are single operations at
// sub 0; a snapshot-admitted read-only transaction expands to a whole
// program-order block at its one stamp, ordered by sub. Stamps are
// unique (one fetch_add per accept / per snapshot admit), so the sort
// is a total order.
struct StampedEntry {
  std::uint64_t stamp;
  std::uint32_t sub;
  Operation op;
};

std::vector<Operation> FinishMerge(std::vector<StampedEntry> merged) {
  std::sort(merged.begin(), merged.end(),
            [](const StampedEntry& a, const StampedEntry& b) {
              return a.stamp != b.stamp ? a.stamp < b.stamp : a.sub < b.sub;
            });
  std::vector<Operation> log;
  log.reserve(merged.size());
  for (const StampedEntry& entry : merged) log.push_back(entry.op);
  return log;
}

void AppendSnapshotBlocks(const VersionStore* store,
                          const TransactionSet& txns,
                          std::vector<StampedEntry>* merged) {
  if (store == nullptr) return;
  for (const SnapshotAdmitRecord& rec : store->SnapshotAdmits()) {
    const Transaction& txn = txns.txn(rec.txn);
    for (std::uint32_t i = 0; i < txn.size(); ++i) {
      merged->push_back(StampedEntry{rec.stamp, i, txn.op(i)});
    }
  }
}

}  // namespace

std::vector<Operation> ShardedAdmitter::CommittedLog() const {
  std::vector<StampedEntry> merged;
  const auto add_committed =
      [&](const std::vector<std::pair<std::uint64_t, Operation>>& log) {
        for (const auto& entry : log) {
          if (TxnState(entry.second.txn) == kStateCommitted) {
            merged.push_back(StampedEntry{entry.first, 0, entry.second});
          }
        }
      };
  add_committed(swap_archive_);
  for (const auto& core : cores_) {
    add_committed(core->archived_accepts);
    add_committed(core->accept_log);
  }
  AppendSnapshotBlocks(store_.get(), txns_, &merged);
  return FinishMerge(std::move(merged));
}

std::vector<Operation> ShardedAdmitter::AdmittedLog() const {
  std::vector<StampedEntry> merged;
  const auto add_all =
      [&](const std::vector<std::pair<std::uint64_t, Operation>>& log) {
        for (const auto& entry : log) {
          merged.push_back(StampedEntry{entry.first, 0, entry.second});
        }
      };
  add_all(swap_archive_);
  for (const auto& core : cores_) {
    add_all(core->archived_accepts);
    add_all(core->accept_log);
  }
  AppendSnapshotBlocks(store_.get(), txns_, &merged);
  return FinishMerge(std::move(merged));
}

ShardedAdmitter::ShardStats ShardedAdmitter::shard_stats(
    std::uint32_t shard) const {
  const Core& core = *cores_[shard];
  ShardStats stats;
  stats.ops_routed = core.ops_routed;
  stats.escalations = core.escalations;
  stats.accepted = core.accepts_total;
  stats.rejected = core.ops_routed - stats.accepted;
  stats.inline_decisions = core.inline_decisions;
  return stats;
}

void ShardedAdmitter::Step(Core& core, const Operation* own) {
  Tracer* const tracer = &core.tracer;
  core.batch.clear();
  if (core.posted.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(core.inbox_mu);
    core.batch.swap(core.inbox);
    core.queued_ops = 0;
    core.posted.store(false, std::memory_order_relaxed);
  }
  // Controls (kills, aborts, timeouts) before operations, so every
  // control posted before an operation was submitted is applied before
  // that operation is decided.
  std::size_t controls = 0;
  for (const Request& request : core.batch) {
    if (request.kind == RequestKind::kOp) continue;
    ProcessControl(core, request);
    ++core.core_steps;
    ++controls;
  }
  if (controls > 0) {
    // After the processing: the kills it cascaded were counted first.
    controls_inflight_.fetch_sub(controls, std::memory_order_release);
  }
  // The step's own operation counts toward the drain it rides in.
  const std::size_t ops =
      core.batch.size() - controls + (own != nullptr ? 1 : 0);
  if (tracer->counting() && ops > 0) tracer->NoteQueueDepth(ops);
  const auto decide = [&](const Operation& op) {
    Decide(core, op);
    ++core.core_steps;
    if (options_.faults != nullptr) {
      const std::uint32_t pause_us =
          options_.faults->CorePauseUs(core.core_steps);
      if (pause_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
      }
    }
  };
  for (const Request& request : core.batch) {
    if (request.kind == RequestKind::kOp) decide(request.op);
  }
  if (own != nullptr) {
    decide(*own);
    ++core.inline_decisions;
  }
  if (tracer->counting() && ops > 0) tracer->NoteBatch(ops);
  MaybeGcCore(core);
  const std::size_t decided = controls + ops;
  if (decided > 0) {
    decided_.fetch_add(decided, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(decide_mu_); }
    decided_cv_.notify_all();
  }
}

void ShardedAdmitter::Release(Core& core) {
  for (;;) {
    // An exchange, not a store: every token write is a read-modify-write,
    // so this release synchronizes with every earlier try, failed or not,
    // and the re-check below sees the work those posters published.
    core.token.exchange(0, std::memory_order_seq_cst);
    core.token.notify_one();
    if (!core.posted.load(std::memory_order_acquire) || !core.TryTake()) {
      return;  // rule (a)
    }
    Step(core, nullptr);
  }
}

void ShardedAdmitter::TryPostedShards() {
  // Rule (b). Steps below may post to further shards; those are tried in
  // turn, after the step's own token is released.
  while (!posted_shards.empty()) {
    Core& core = *cores_[posted_shards.back()];
    posted_shards.pop_back();
    if (core.TryTake()) {
      Step(core, nullptr);
      Release(core);
    }
  }
}

void ShardedAdmitter::ProcessControl(Core& core, const Request& request) {
  const TxnId txn = request.op.txn;
  if (request.kind == RequestKind::kKill) {
    // Another shard won the kill CAS; this is our share of the
    // withdrawal. The state is already dead — skip if a racing local
    // path (coordinator kDead) already withdrew it here.
    if (!core.local_dead[txn]) KillLocal(core, txn);
    return;
  }
  if (TxnState(txn) != kStateLive) return;  // already resolved
  const AdmitOutcome outcome = request.kind == RequestKind::kTimeoutAbort
                                   ? AdmitOutcome::kTimeout
                                   : AdmitOutcome::kAborted;
  GlobalKill(core, txn, outcome, /*cascade=*/false);
}

void ShardedAdmitter::Decide(Core& core, const Operation& op) {
  Tracer* const tracer = &core.tracer;
  const std::size_t gid = indexer_.GlobalId(op);
  const TxnId txn = op.txn;
  ++core.ops_routed;
  const std::uint8_t state = TxnState(txn);
  if (state != kStateLive) {
    // Died (abort/cascade/timeout) with this operation in flight, or a
    // feeding-contract violation against a committed transaction.
    const AdmitOutcome outcome =
        state == kStateCommitted
            ? AdmitOutcome::kReject
            : static_cast<AdmitOutcome>(state - kStateDead);
    Publish(gid, txn, outcome);
    if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
    return;
  }
  const Operation projected = core.slice.Project(op);
  // The transaction is live, so this is its first operation on the shard
  // exactly when it is the first of its projection.
  if (projected.index == 0 && plan_->spans().MultiShard(txn)) {
    tracer->RecordShardRoute(
        txn, static_cast<std::uint32_t>(plan_->spans().ShardsOf(txn).size()),
        core.core_steps);
  }
  const AdmitResult result = core.checker.TryAppend(projected);
  if (!result.ok()) {
    // Shard-local certification rejection. Projected arcs map to global
    // RSG paths (shard/projection.h), so this is never spurious: the
    // transaction dies exactly as under the single checker. The verdict
    // is published only after the kill is posted everywhere, so the
    // client's next operation cannot overtake it on another shard.
    if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
    GlobalKill(core, txn, AdmitOutcome::kAborted, /*cascade=*/false);
    Publish(gid, txn, AdmitOutcome::kReject);
    return;
  }

  // Locally accepted. The checker's D-arc sources for this operation are
  // its direct conflicts (the foreign members of the pre-operation
  // frontier, writer first): record them in the local conflict DAG, and
  // mirror whatever the taint discipline requires. Dead sources (killed
  // globally, not yet withdrawn here) still get arcs: the durable-arc
  // discipline routes surviving conflict chains through them
  // (shard/coordinator.h).
  core.mirror_buf.clear();
  core.newly_tainted.clear();
  const std::vector<TxnId>& conflicts = core.checker.last_conflicts();
  for (const TxnId source : conflicts) InsertArc(core, source, txn);
  // A read conflicts with the frontier writer only: the one it read.
  const TxnId writer =
      op.is_read() && !conflicts.empty() ? conflicts.front() : kNoTxn;

  if (!core.mirror_buf.empty()) {
    std::pair<TxnId, TxnId> witness{0, 0};
    const CrossShardCoordinator::ArcResult verdict =
        coordinator_.AddArcs(txn, core.mirror_buf, &witness);
    if (verdict != CrossShardCoordinator::ArcResult::kOk) {
      // Nothing was retained coordinator-side: unwind the speculative
      // mirror marks and taints so the local invariant (mirrored bit ⇔
      // arc present in coordinator) holds.
      for (const auto& [from, to] : core.mirror_buf) {
        Core::OutArc* arc = FindArc(core.out_arcs[from], to);
        RELSER_DCHECK(arc != nullptr);
        arc->mirrored = false;
      }
      for (const TxnId undo : core.newly_tainted) core.tainted[undo] = 0;
      if (verdict == CrossShardCoordinator::ArcResult::kCycle) {
        // Cross-shard conflict: the mirrored batch would close a
        // transaction-level cycle. Withdraw the local accept by killing
        // the transaction — the same all-or-nothing semantics a local
        // rejection has (and the same publish-after-kill order).
        if (tracer->counting()) {
          TraceCause cause;
          cause.kind = TraceCauseKind::kConflictArc;
          cause.holder = witness.second;
          cause.note = "coordinator cycle";
          tracer->AttachCause(std::move(cause));
          tracer->RecordReject(op, core.core_steps, 0);
        }
        GlobalKill(core, txn, AdmitOutcome::kAborted, /*cascade=*/false);
        Publish(gid, txn, AdmitOutcome::kReject);
      } else {  // kDead: another shard killed this transaction mid-flight
        const std::uint8_t dead_state = TxnState(txn);
        const AdmitOutcome outcome =
            dead_state >= kStateDead
                ? static_cast<AdmitOutcome>(dead_state - kStateDead)
                : AdmitOutcome::kAborted;
        if (tracer->counting()) tracer->RecordReject(op, core.core_steps, 0);
        if (!core.local_dead[txn]) KillLocal(core, txn);
        Publish(gid, txn, outcome);
      }
      return;
    }
    core.escalations += core.newly_tainted.size();
    if (tracer->counting()) {
      for (std::size_t i = 0; i < core.newly_tainted.size(); ++i) {
        tracer->CountEscalation();
      }
    }
  }

  // Recoverability bookkeeping. A read of an uncommitted frontier write
  // is dirty: if that writer dies, the reader cascades. "Not committed"
  // rather than "live" because a globally-dead writer may not have been
  // withdrawn from this shard yet — registering keeps the late
  // withdrawal's cascade complete.
  if (writer != kNoTxn && TxnState(writer) != kStateCommitted) {
    core.readers_of[writer].push_back(txn);
  }

  const bool last_op = op.index + 1 == txns_.txn(txn).size();
  bool committed = false;
  if (last_op) {
    // Blocking program-order feeding: this accept means every operation
    // of the transaction (on every shard) was accepted — commit, unless
    // a concurrent kill wins the CAS.
    std::uint8_t expected = kStateLive;
    if (txn_state_[txn].compare_exchange_strong(expected, kStateCommitted,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      committed = true;
      if (tracer->counting()) tracer->RecordCommit(txn, core.core_steps);
    }
  }
  const std::uint64_t stamp =
      admission_stamp_.fetch_add(1, std::memory_order_relaxed);
  core.accept_log.emplace_back(stamp, op);
  ++core.accepts_total;
  // NoteCommit strictly AFTER the last operation's stamp draw: a
  // snapshot reader observes the release decrement, so its own stamp
  // (SubmitAndWait fast path) lands after every stamp of this writer.
  if (committed && store_ != nullptr) store_->NoteCommit(txn);
  if (committed) {
    // All of this transaction's arcs were noted before its last accept
    // (program-order blocking feeding), so the finish is final word.
    if (epochs_ != nullptr) epochs_->NoteFinish(txn);
  }
  Publish(gid, txn, AdmitOutcome::kAccept);
  if (tracer->counting()) tracer->RecordAdmit(op, core.core_steps, 0);
}

void ShardedAdmitter::InsertArc(Core& core, TxnId from, TxnId to) {
  std::vector<Core::OutArc>& succs = core.out_arcs[from];
  auto at = ArcLowerBound(succs, to);
  if (at == succs.end() || at->to != to) {
    at = succs.insert(at, {to, false});
    core.in_arcs[to].push_back(from);
    // Every transaction-level dependency — local or mirrored — surfaces
    // here exactly once; the coordinator's arcs are a subset of these
    // pairs, so this single feed covers the whole settlement graph.
    if (epochs_ != nullptr) epochs_->NoteDep(from, to);
  }
  if (!at->mirrored && (core.tainted[from] != 0 || core.tainted[to] != 0)) {
    at->mirrored = true;
    core.mirror_buf.emplace_back(from, to);
    Taint(core, from);
    Taint(core, to);
  }
}

void ShardedAdmitter::Taint(Core& core, TxnId txn) {
  if (core.tainted[txn] != 0) return;
  core.flood_stack.clear();
  core.flood_stack.push_back(txn);
  while (!core.flood_stack.empty()) {
    const TxnId current = core.flood_stack.back();
    core.flood_stack.pop_back();
    if (core.tainted[current] != 0) continue;
    core.tainted[current] = 1;
    core.newly_tainted.push_back(current);
    // Flush every not-yet-mirrored local arc incident to `current` and
    // spread the taint across it: after the flood, the whole undirected
    // conflict component is coordinator-visible.
    for (Core::OutArc& arc : core.out_arcs[current]) {
      if (arc.mirrored) continue;
      arc.mirrored = true;
      core.mirror_buf.emplace_back(current, arc.to);
      if (core.tainted[arc.to] == 0) core.flood_stack.push_back(arc.to);
    }
    for (const TxnId source : core.in_arcs[current]) {
      Core::OutArc* arc = FindArc(core.out_arcs[source], current);
      if (arc == nullptr || arc->mirrored) continue;
      arc->mirrored = true;
      core.mirror_buf.emplace_back(source, current);
      if (core.tainted[source] == 0) core.flood_stack.push_back(source);
    }
  }
}

void ShardedAdmitter::GlobalKill(Core& core, TxnId root, AdmitOutcome outcome,
                                 bool cascade) {
  std::uint8_t expected = kStateLive;
  const auto dead_word = static_cast<std::uint8_t>(
      kStateDead + static_cast<std::uint8_t>(outcome));
  if (!txn_state_[root].compare_exchange_strong(expected, dead_word,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
    // Lost the race: already dead (its owner runs the withdrawal) or
    // committed (irrevocable). A committed dirty reader is exactly the
    // unrecoverable-read case the cascade cannot fix.
    if (cascade && expected == kStateCommitted) {
      unrecoverable_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (store_ != nullptr) store_->NoteAbort(root);
  Tracer* const tracer = &core.tracer;
  if (tracer->counting()) {
    if (outcome == AdmitOutcome::kTimeout) {
      tracer->RecordTimeout(root, core.core_steps);
    }
    tracer->RecordAbort(root, core.core_steps, cascade);
  }
  const auto& shards = plan_->spans().ShardsOf(root);
  if (epochs_ != nullptr) {
    // The epoch finish waits for the LAST resident shard to apply its
    // withdrawal (KillLocal's countdown): settling a half-withdrawn
    // transaction would let a checker truncate rows a sibling shard is
    // about to restore around. Initialized before MarkDead, so any core
    // that observes kDead (and thus may run KillLocal) sees the count.
    kill_remaining_[root].store(static_cast<std::uint32_t>(shards.size()),
                                std::memory_order_release);
    if (shards.empty()) epochs_->NoteFinish(root);
  }
  coordinator_.MarkDead(root);
  for (const std::uint32_t shard : shards) {
    if (shard == core.shard_id) {
      KillLocal(core, root);
    } else {
      PostControl(shard, root, RequestKind::kKill);
    }
  }
}

void ShardedAdmitter::KillLocal(Core& core, TxnId txn) {
  RELSER_DCHECK(core.local_dead[txn] == 0);
  core.local_dead[txn] = 1;
  // The exact withdrawal restores the checker's conflict frontiers, so
  // FUTURE conflicts link against survivors. The local conflict DAG
  // keeps the withdrawn transaction's arcs: they are the durable
  // waypoints surviving conflict chains route through (a writer chain
  // Ta -> Tdead -> Tc must still read as Ta => Tc after the withdrawal,
  // as the checker orders them when it re-admits Tc's dependent
  // operations against Ta's surviving frontier).
  if (core.checker.TxnHasExecuted(txn)) {
    core.checker.RemoveTransactionExact(txn);
  }
  // Recoverability cascade: live dirty readers of the withdrawn writes
  // die with it, wherever their other operations live.
  for (const TxnId reader : core.readers_of[txn]) {
    const std::uint8_t reader_state = TxnState(reader);
    if (reader_state == kStateLive) {
      GlobalKill(core, reader, AdmitOutcome::kAborted, /*cascade=*/true);
    } else if (reader_state == kStateCommitted) {
      unrecoverable_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  core.readers_of[txn].clear();
  if (epochs_ != nullptr &&
      kill_remaining_[txn].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    epochs_->NoteFinish(txn);
  }
}

namespace {

void FetchMax(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value && !slot.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedAdmitter::LiveHighWater ShardedAdmitter::live_high_water() const {
  LiveHighWater hw;
  hw.pool_rows = hw_pool_rows_.load(std::memory_order_relaxed);
  hw.retained_ops = hw_retained_ops_.load(std::memory_order_relaxed);
  hw.accept_entries = hw_accept_entries_.load(std::memory_order_relaxed);
  hw.coordinator_arcs = hw_coordinator_arcs_.load(std::memory_order_relaxed);
  hw.dep_arcs = hw_dep_arcs_.load(std::memory_order_relaxed);
  return hw;
}

void ShardedAdmitter::MaybeGcCore(Core& core) {
  if (epochs_ == nullptr) return;
  const std::uint64_t gen = epochs_->gc_generation();
  if (gen == core.gc_seen_gen) return;
  core.gc_seen_gen = gen;
  // High-water sampling at the pre-truncation local maximum.
  FetchMax(hw_pool_rows_, core.checker.pool_rows());
  FetchMax(hw_retained_ops_, core.checker.retained_ops());
  FetchMax(hw_accept_entries_, core.accept_log.size());
  FetchMax(hw_coordinator_arcs_, coordinator_.arc_count());
  FetchMax(hw_dep_arcs_, epochs_->dep_arcs_live());
  const std::atomic<std::uint8_t>* settled = epochs_->settled_view();
  const auto is_settled = [settled](TxnId txn) {
    return settled[txn].load(std::memory_order_relaxed) != 0;
  };
  // Settled accept-log entries leave the live log (archived when the
  // full CommittedLog is wanted, dropped when capping memory). All
  // survivors are committed: kills withdrew dead transactions before
  // they could settle, and a settled transaction is finished.
  std::size_t kept = 0;
  for (auto& entry : core.accept_log) {
    if (is_settled(entry.second.txn)) {
      if (options_.committed_log) core.archived_accepts.push_back(entry);
    } else {
      core.accept_log[kept++] = entry;
    }
  }
  core.accept_log.resize(kept);
  // Checker truncation: drop the settled transactions in place —
  // bit-identical future decisions (core/online.h).
  const std::size_t dropped = core.checker.Truncate(settled);
  // A settled transaction leaves the local conflict DAG with its two
  // arc lists: its incoming arcs froze at finish and had settled sources
  // themselves (settledness is predecessor-closed), and an unsettled
  // successor's in_arcs entry for it finds no arc from then on. Settled
  // writers committed, so their dirty-reader lists are moot too.
  for (TxnId txn = 0; txn < static_cast<TxnId>(core.readers_of.size());
       ++txn) {
    if (!is_settled(txn)) continue;
    std::vector<TxnId>().swap(core.readers_of[txn]);
    std::vector<Core::OutArc>().swap(core.out_arcs[txn]);
    std::vector<TxnId>().swap(core.in_arcs[txn]);
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  if (core.tracer.counting()) {
    core.tracer.RecordCheckpoint(dropped, core.core_steps);
  }
  // Shared structures once per generation: the first core to notice
  // claims the coordinator collect.
  std::uint64_t prev = gc_claim_.load(std::memory_order_relaxed);
  while (prev < gen && !gc_claim_.compare_exchange_weak(
                           prev, gen, std::memory_order_acq_rel,
                           std::memory_order_relaxed)) {
  }
  if (prev < gen) {
    coordinator_.CollectSettled(settled);
    // Settled snapshot readers leave the admit log too when memory is
    // capped; their events fold into this core's tracer, so Stop's
    // counts stay exact.
    if (store_ != nullptr && !options_.committed_log) {
      core.gc_admit_buf.clear();
      store_->TakeSettledAdmits(settled, &core.gc_admit_buf);
      for (const SnapshotAdmitRecord& rec : core.gc_admit_buf) {
        TraceSnapshotAdmit(&core.tracer, rec);
      }
    }
    if (core.tracer.counting()) {
      core.tracer.RecordEpochAdvance(epochs_->settled_count(),
                                     epochs_->watermark(), core.core_steps);
    }
  }
}

void ShardedAdmitter::InstallRouter(ShardRouter router) {
  RELSER_CHECK_MSG(options_.epoch_gc,
                   "InstallRouter requires options.epoch_gc");
  RELSER_CHECK_MSG(!stopped_, "InstallRouter after Stop");
  Flush();
  // The caller's cut: no call races this one, and every started
  // transaction is committed or dead. Blocking program-order feeding
  // decides a transaction's first operation before it submits another,
  // so a live transaction with a decided first operation is one a
  // client is still running.
  const auto txn_count = static_cast<TxnId>(txns_.txn_count());
  for (TxnId txn = 0; txn < txn_count; ++txn) {
    RELSER_CHECK_MSG(
        txns_.txn(txn).size() == 0 || TxnState(txn) != kStateLive ||
            decision_[indexer_.GlobalId(txn, 0)].load(
                std::memory_order_acquire) == 0,
        "InstallRouter outside a quiescent cut: transaction "
            << txn << " has a decided operation and is unfinished");
  }
  // Flush drained every control too, so no kill is half-applied across
  // shards. At the cut nothing unfinished has ever appended (unstarted
  // transactions have no arcs), so this sweep settles ALL history: the
  // swap is a full-history GC tick, and empty fresh cores are exactly
  // what truncation would leave behind.
  epochs_->Sweep();
  coordinator_.CollectSettled(epochs_->settled_view());
  for (auto& core : cores_) {
    if (options_.tracer != nullptr) options_.tracer->MergeFrom(core->tracer);
    if (options_.committed_log) {
      swap_archive_.insert(swap_archive_.end(),
                           core->archived_accepts.begin(),
                           core->archived_accepts.end());
      swap_archive_.insert(swap_archive_.end(), core->accept_log.begin(),
                           core->accept_log.end());
    }
  }
  // Cores hold references into the old plan's slices: destroy them
  // strictly before the plan swap.
  cores_.clear();
  plan_ = std::make_unique<ShardPlan>(txns_, spec_, std::move(router));
  BuildCores();
  if (options_.tracer != nullptr) {
    options_.tracer->RecordRouterSwap(decided_.load(std::memory_order_relaxed));
  }
  ++router_swaps_;
}

void ShardedAdmitter::Publish(std::size_t gid, TxnId txn,
                              AdmitOutcome outcome) {
  if (outcome == AdmitOutcome::kAccept) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  decision_[gid].store(
      static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(outcome)),
      std::memory_order_release);
  pending_[txn].fetch_sub(1, std::memory_order_release);
}

}  // namespace relser
