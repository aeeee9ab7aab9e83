// ShardedAdmitter: the multi-client, fault-tolerant admission front-end
// — N shard cores, each a sequential OnlineRsrChecker over its projected
// sub-schedule, glued by a transaction-level CrossShardCoordinator.
//
// Certification mutates a relative serialization graph, so each shard
// core (a shard's checker and bookkeeping; not a thread) has one writer
// at a time: whoever holds the core's ownership token, an atomic word
// taken by exchange. The admitter starts no threads. A submitter that
// finds the token free takes it and decides its own operation on its
// own thread (caller-runs, i.e. flat combining with no dedicated
// combiner: Hendler, Incze, Shavit, Tzafrir, SPAA 2010) — first
// applying anything other clients left in the shard's inbox, so no
// thread hand-off sits on the uncontended path. A submitter that finds
// the token taken appends its operation to the shard's inbox (one
// mutex-guarded vector for operations and controls alike) and sleeps on
// its decision. Two rules leave no inbox request without a thread
// responsible for it (docs/parallelism.md has the proof): (a) whoever
// releases a token re-checks that shard's inbox flag and steps again
// while it is set and the token is free; (b) whoever posts to an inbox
// then tries the target's token. Every holder runs the same step body (Step), so a
// decision does not depend on which thread took it. Partitioning the
// object space (shard/router.h) spreads that work over cores: conflicts
// are per-object, so every direct conflict is resident on exactly one
// shard, and each shard certifies its own projected sub-schedule
// (shard/projection.h) with a private checker — one uncontended token
// per decision, no cross-shard locks. Global relative serializability
// is recovered as
//
//     (every shard-local projected RSG acyclic)
//   ∧ (coordinator transaction-level graph acyclic)
//     ⇒ global RSG acyclic,
//
// where the coordinator graph receives the cross-shard glue: conflict
// arcs incident to multi-shard transactions, extended by *taint
// flooding* — multi-shard transactions are born tainted on every shard
// they touch; mirroring an arc taints both endpoints; tainting a
// transaction flushes all its local conflict arcs to the coordinator,
// recursively. Any transaction-level conflict walk that crosses shards
// therefore lies entirely inside tainted components and is visible to
// the coordinator, while purely local structure stays local — the
// relative-atomicity relaxation keeps its value inside each shard, and
// a single-shard configuration (ShardRouter(n, 1, kRange)) never
// escalates anything: it decides exactly as the serial
// abort-and-cascade policy does (hard-gated by tests/shard_test.cc).
// docs/sharding.md develops the full argument.
//
// Robustness (docs/robustness.md): every verdict speaks AdmitOutcome
// (core/admit.h). A certification rejection kills the whole
// transaction; client aborts (AbortTxn) and deadline timeouts do too.
// A kill CASes the transaction dead, withdraws it from its resident
// shards (RemoveTransactionExact, exact restoration), tombstones it at
// the coordinator (its transaction-level arcs stay behind as
// conservative constraints — the durable-arc discipline,
// shard/coordinator.h), and cascades to live dirty readers wherever
// they live, via controls posted to the other shards' inboxes, which
// are never refused. Committed readers of an aborted writer cannot be
// cascaded; they are counted as unrecoverable_reads(). Backpressure is
// a verdict, not a stall: an inbox already holding queue_capacity
// operations answers the next one kRetry,
// and SubmitWithBackoff rides it out with jittered exponential backoff
// (exec/backoff.h).
//
// Feeding contract: all operations of one transaction must be submitted
// by one thread, in program order, through the blocking entry points
// (SubmitAndWait / SubmitWithBackoff) — at most one operation of a
// transaction in flight at a time. That is what lets a transaction
// commit the moment its program-order-last operation is accepted, and
// what keeps the per-shard projected feeds consistent with one global
// interleaving. A client that receives a terminal verdict (kReject,
// kAborted, kTimeout) should stop submitting the transaction;
// stragglers are answered with its death outcome.
#ifndef RELSER_SHARD_SHARDED_ADMITTER_H_
#define RELSER_SHARD_SHARDED_ADMITTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/admit.h"
#include "core/mvcc/version_store.h"
#include "core/online.h"
#include "epoch/epoch.h"
#include "exec/backoff.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/projection.h"
#include "shard/router.h"
#include "util/flat_map.h"

namespace relser {

class FaultPlan;

/// Knobs for ShardedAdmitter.
struct ShardedAdmitterOptions {
  /// Exact per-shard bound on queued operations: a submitter that finds
  /// the shard's token taken while this many operations already wait in
  /// its inbox is answered kRetry. Controls are never bounded.
  std::size_t queue_capacity = 1024;
  /// Observability sink. Each shard core and the coordinator record
  /// into private tracers (a core's tracer is written only by the
  /// holder of its token); Stop merges them all into this one, and
  /// InstallRouter merges the cores it replaces.
  Tracer* tracer = nullptr;
  /// Deterministic per-core pause schedule (exec/faultplan.h), keyed by
  /// each shard core's own decision count; a pause runs on whichever
  /// thread holds the core's token. Must outlive the admitter.
  const FaultPlan* faults = nullptr;
  /// MVCC snapshot-read fast path (core/mvcc/version_store.h): when on,
  /// read-only transactions whose read set is settled (every static
  /// writer finished) commit on the CLIENT thread against the committed
  /// watermark — no inbox hop, no shard core, no checker arcs, no
  /// coordinator traffic. Classification reads per-object
  /// unfinished-writer counters and the commit counter; no committed
  /// versions are stored, so GC has nothing to prune here. Unsettled
  /// read-only transactions escalate to the normal sharded path
  /// unchanged. Off by default: the flag is a relaxation knob, and
  /// decision bit-identity with the flag off is the differential
  /// baseline (tests/mvcc_test.cc, RatioZeroBitIdentitySharded).
  bool snapshot_reads = false;
  /// Epoch-based stable-prefix GC (epoch/epoch.h). Every core feeds the
  /// shared EpochManager (direct-conflict arcs at local-DAG insertion,
  /// finishes at commit / fully-applied kill) and polls gc_generation
  /// per step: on advance it truncates its checker's settled rows,
  /// scrubs arc bookkeeping of settled transactions, and
  /// archives (or drops) settled accept-log entries; one core per
  /// generation additionally collects coordinator arcs.
  /// Decision-identical to gc off — a settled transaction can never lie
  /// on a future cycle in any shard checker or the coordinator graph
  /// (tests/epoch_gc_differential_test.cc).
  /// Also the prerequisite for InstallRouter.
  bool epoch_gc = false;
  /// NoteFinish calls between settlement sweeps (epoch_gc only).
  std::uint32_t gc_interval = 64;
  /// With epoch_gc on, keep GC'd settled accept-log entries in a
  /// per-core archive, and settled snapshot admits in the admit log, so
  /// CommittedLog/AdmittedLog still cover the full history. Turn off to
  /// cap memory at the unsettled suffix (the long-lived bench does); GC
  /// then drops both, and the logs cover only the survivors.
  bool committed_log = true;
};

/// Partitioned, fault-tolerant admission front-end: one checker per
/// shard plus a cross-shard coordinator.
class ShardedAdmitter {
 public:
  /// `txns` and `spec` must outlive the admitter; `router` must
  /// partition exactly `txns.object_count()` objects. Starts no threads:
  /// every decision runs on a calling thread.
  ShardedAdmitter(const TransactionSet& txns, const AtomicitySpec& spec,
                  ShardRouter router, ShardedAdmitterOptions options = {});
  ShardedAdmitter(const TransactionSet&, AtomicitySpec&&, ShardRouter,
                  ShardedAdmitterOptions = {}) = delete;
  ~ShardedAdmitter();

  ShardedAdmitter(const ShardedAdmitter&) = delete;
  ShardedAdmitter& operator=(const ShardedAdmitter&) = delete;

  /// Routes `op` to the shard owning its object and returns its
  /// decision. When the shard's token is free the calling thread decides
  /// the operation itself; otherwise it posts the operation to the
  /// shard's inbox, tries the token once more, and blocks until a token
  /// holder decides it.
  /// Outcomes: kAccept / kReject (this op failed certification; the
  /// transaction was aborted) / a death outcome (kAborted, kTimeout: the
  /// transaction died before this op was decided) / kRetry (inbox full,
  /// nothing queued) / kTimeout (the deadline expired first; a
  /// timeout-abort was scheduled and the transaction is doomed). The
  /// deadline bounds waiting only: an operation decided on the calling thread is never
  /// answered kTimeout. timeout zero waits forever. After any other
  /// non-accept verdict the thread's next call first applies every kill
  /// still in flight, so one client's decisions do not depend on which
  /// threads ran them.
  AdmitResult SubmitAndWait(
      const Operation& op,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// SubmitAndWait in a jittered-exponential retry loop on kRetry.
  AdmitResult SubmitWithBackoff(
      const Operation& op, Backoff& backoff,
      std::chrono::microseconds timeout = std::chrono::microseconds::zero());

  /// Client-initiated abort; blocks until the transaction is resolved.
  /// kReject when it had already committed (commits are irrevocable),
  /// otherwise its death outcome.
  AdmitResult AbortTxn(TxnId txn);

  /// The published decision for `op`; nullopt until its shard got to it.
  std::optional<AdmitOutcome> OpOutcome(const Operation& op) const;

  /// Commit barrier over all shards: blocks until every submitted
  /// operation of `txn` is decided; kAccept when unscathed, otherwise
  /// the death outcome.
  AdmitResult TxnVerdict(TxnId txn);

  /// True once `txn` committed (program-order-last operation accepted).
  bool TxnCommitted(TxnId txn) const {
    return txn_state_[txn].load(std::memory_order_acquire) == kStateCommitted;
  }

  /// Blocks until every request submitted so far has been decided.
  void Flush();

  /// Flushes and folds the per-core and coordinator tracers into
  /// options.tracer. Idempotent; called by the destructor. No
  /// submissions may race with or follow Stop.
  void Stop();

  std::size_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }
  std::size_t rejected() const {
    return rejected_.load(std::memory_order_acquire);
  }
  /// Client submissions refused by inbox backpressure.
  std::uint64_t retries() const {
    return retry_count_.load(std::memory_order_acquire);
  }
  /// Committed transactions caught reading from a later-aborted writer:
  /// the cascade could not reach them (commits are final), so the read
  /// stands unrecoverable — a recoverability metric, not a
  /// serializability violation.
  std::uint64_t unrecoverable_reads() const {
    return unrecoverable_reads_.load(std::memory_order_acquire);
  }

  /// Every operation of every committed transaction, in global
  /// admission order (per-shard accept logs merged by the global
  /// admission stamp). This is the schedule the differential tests
  /// replay through a full single-checker; safe once Stop returned.
  std::vector<Operation> CommittedLog() const;

  /// All accepted operations in global admission order, including those
  /// of transactions that later aborted. Safe once Stop returned.
  std::vector<Operation> AdmittedLog() const;

  const ShardPlan& plan() const { return *plan_; }
  const CrossShardCoordinator& coordinator() const { return coordinator_; }

  /// Reshard (requires options.epoch_gc): replaces the object partition
  /// with `router` at a quiescent cut the caller provides. Like Stop,
  /// it must not race any other call on the admitter (no submission,
  /// abort, verdict or another InstallRouter), and every transaction
  /// that has submitted an operation must be committed or dead; a
  /// started, unfinished transaction is a checked failure. At that cut
  /// a settlement sweep settles ALL history (nothing unfinished ever
  /// appended), so every checker row, coordinator arc and accept-log
  /// entry is reclaimable, and fresh per-shard cores over the new
  /// partition are sound by the same argument that justifies truncation
  /// — the swap IS a full-history GC tick. The old cores' tracers are
  /// merged into options.tracer and their accept logs archived, so
  /// observability and CommittedLog span the swap. `router` must
  /// partition the same object universe.
  void InstallRouter(ShardRouter router);

  /// Completed InstallRouter swaps.
  std::uint64_t router_swaps() const { return router_swaps_; }
  /// The epoch manager driving stable-prefix GC; nullptr when off.
  const EpochManager* epochs() const { return epochs_.get(); }
  /// Per-core checker truncation passes taken; 0 when epoch_gc is off.
  std::uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// The snapshot-read store; nullptr unless options.snapshot_reads.
  const VersionStore* version_store() const { return store_.get(); }

  /// Read-only transactions admitted arc-free from the committed
  /// watermark (0 unless options.snapshot_reads).
  std::uint64_t snapshot_admits() const {
    return store_ != nullptr ? store_->snapshot_admits() : 0;
  }
  /// Read-only transactions that failed the settled-read-set test at
  /// classification and took the normal sharded path instead.
  std::uint64_t snapshot_escalations() const {
    return store_ != nullptr ? store_->snapshot_escalations() : 0;
  }

  /// Race-free live-state high-water marks, sampled by the holder of
  /// each shard's token at every GC tick just BEFORE truncation — i.e.
  /// at local maxima of retained state — so readers never race
  /// shard-private structures.
  /// Per-shard gauges (pool rows, feed entries, accept-log) take the
  /// max over shards; shared gauges (coordinator arcs, dep arcs) are
  /// instantaneous retained counts. All zeros until the first GC tick;
  /// meaningful only with options.epoch_gc.
  struct LiveHighWater {
    std::uint64_t pool_rows = 0;         ///< ancestor rows (max shard)
    std::uint64_t retained_ops = 0;      ///< checker feed rows (max shard)
    /// Always 0. Kept because the benchmark's `checker.memo_entries_hw`
    /// column reads it.
    std::uint64_t memo_entries = 0;
    std::uint64_t accept_entries = 0;    ///< live accept-log (max shard)
    std::uint64_t coordinator_arcs = 0;  ///< retained coordinator arcs
    /// Always 0: the snapshot-read store keeps no versions. Kept
    /// because the benchmark's `mvcc.versions_hw` column reads it.
    std::uint64_t versions = 0;
    std::uint64_t dep_arcs = 0;          ///< epoch-manager dep arcs live
  };
  LiveHighWater live_high_water() const;

  /// Per-shard roll-up; safe once Stop returned.
  struct ShardStats {
    std::size_t ops_routed = 0;     ///< operations decided by this shard
    std::size_t accepted = 0;
    std::size_t rejected = 0;       ///< non-accept decisions published
    /// Always 0. Kept because the benchmark's `shard.fast_path_ratio`
    /// column reads it.
    std::size_t fast_path = 0;
    std::uint64_t escalations = 0;  ///< txns taint-flooded to coordinator
    /// Operations decided by their own submitter (a step's own
    /// operation); the rest of ops_routed came through the inbox.
    std::size_t inline_decisions = 0;
  };
  ShardStats shard_stats(std::uint32_t shard) const;

  /// The shard's checker, over its projected sub-schedule (at one shard,
  /// the original one). Safe to inspect once Stop has returned.
  const OnlineRsrChecker& checker(std::uint32_t shard) const {
    return cores_[shard]->checker;
  }

 private:
  enum class RequestKind : std::uint8_t { kOp = 0, kAbort, kTimeoutAbort,
                                          kKill };
  struct Request {
    Operation op{};  // controls use only op.txn (the target)
    RequestKind kind = RequestKind::kOp;
  };

  // txn_state_ encoding. Writers CAS from kStateLive (several shard
  // cores may race on a kill/commit).
  static constexpr std::uint8_t kStateLive = 0;
  static constexpr std::uint8_t kStateCommitted = 1;
  static constexpr std::uint8_t kStateDead = 2;  // kStateDead + outcome

  static constexpr TxnId kNoTxn = ~static_cast<TxnId>(0);

  /// One shard core: ownership token, inbox, projected checker,
  /// conflict bookkeeping, taint state, private tracer. Owned via
  /// unique_ptr so addresses stay stable while clients step it.
  struct Core {
    Core(const ShardSlice& slice, std::size_t txn_count,
         TraceLevel trace_level);

    // Ownership token, 1 while held; its holder is the inbox's only
    // consumer and the only writer of everything below `posted`.
    // Every write is an exchange, and a failed one proves another holder
    // (unlike try_lock): docs/parallelism.md's liveness proof needs both.
    std::atomic<std::uint32_t> token{0};
    // The shard's one request channel: operations whose submitter found
    // the token taken, and controls (kills, aborts, timeouts) from any
    // thread, in posting order. `queued_ops` counts the operations in it.
    std::mutex inbox_mu;
    std::vector<Request> inbox;
    std::size_t queued_ops = 0;
    // Set under inbox_mu exactly while `inbox` is non-empty, so Step and
    // the release re-check skip the lock when nothing was posted.
    std::atomic<bool> posted{false};

    bool TryTake() { return token.exchange(1, std::memory_order_seq_cst) == 0; }

    // The inbox as Step swapped it out (token holder only), reused so
    // steady-state submission does not allocate.
    std::vector<Request> batch;

    const ShardSlice& slice;
    OnlineRsrChecker checker;  // over slice.txns / slice.spec
    Tracer tracer;             // private; merged into the user's at Stop

    std::vector<std::vector<TxnId>> readers_of;  // dirty readers (cascade)

    // Local transaction-level conflict DAG + taint state. arc_state
    // values: 1 = recorded locally, 2 = also mirrored to coordinator.
    FlatMap64<std::uint8_t> arc_state;
    std::vector<std::vector<TxnId>> arc_neighbors;  // undirected
    std::vector<std::uint8_t> tainted;
    std::vector<std::uint8_t> local_dead;  // withdrawn from this checker

    // Scratch, reused across decisions.
    std::vector<std::pair<TxnId, TxnId>> mirror_buf;
    std::vector<TxnId> flood_stack;
    std::vector<TxnId> newly_tainted;  // per-decision taint undo log
    std::vector<std::uint64_t> gc_key_buf;  // settled arc keys per GC pass
    std::vector<SnapshotAdmitRecord> gc_admit_buf;  // settled snapshot admits

    std::uint32_t shard_id = 0;

    // (global admission stamp, original operation) per accept.
    std::vector<std::pair<std::uint64_t, Operation>> accept_log;
    // Settled entries moved out of accept_log by GC (committed_log).
    std::vector<std::pair<std::uint64_t, Operation>> archived_accepts;
    std::uint64_t gc_seen_gen = 0;  // last gc_generation acted on

    std::uint64_t core_steps = 0;  // decisions taken (fault key, tick)
    std::size_t ops_routed = 0;
    std::size_t accepts_total = 0;  // survives GC (accept_log shrinks)
    std::uint64_t escalations = 0;
    std::size_t inline_decisions = 0;
  };

  /// Builds one core per shard of the current plan and applies
  /// born-taint (constructor + InstallRouter).
  void BuildCores();
  /// GC tick (token holder only): when the settled set advanced,
  /// archive/drop settled accept-log entries, truncate the checker and
  /// scrub settled bookkeeping; the generation's claim winner also
  /// collects coordinator arcs and, without committed_log, drops settled
  /// snapshot-admit records.
  void MaybeGcCore(Core& core);
  /// One step of `core` (token held): swaps the inbox out; applies its
  /// controls, then decides its operations and then `own` (when given),
  /// with FaultPlan pauses per decision; runs MaybeGcCore; publishes
  /// decided_ and wakes waiters.
  void Step(Core& core, const Operation* own);
  /// Rule (a): releases `core`'s token (held by the caller), then
  /// re-checks the inbox flag, and takes the token and steps again while
  /// the flag is set and the token is free.
  void Release(Core& core);
  /// Rule (b): tries the token of each shard this thread posted an
  /// operation or a control to since its last call, stepping and releasing
  /// each one it takes.
  void TryPostedShards();
  /// SubmitAndWait's body: the snapshot fast path, then the inline step
  /// or the inbox and the wait.
  AdmitResult Submit(const Operation& op, std::chrono::microseconds timeout);
  /// When this thread's last verdict from this admitter was a terminal
  /// non-accept (or an AbortTxn), applies every posted control before
  /// its next call: takes each shard's token in turn (blocking, one at a
  /// time), stepping the shards with controls posted, until none is in
  /// flight. A kill that verdict posted to other shards, and the
  /// cascades it started there, so land before the client's next
  /// operation is classified or decided, whichever threads run them.
  void SettleOwedControls();
  void Decide(Core& core, const Operation& op);
  void ProcessControl(Core& core, const Request& request);
  /// CASes `root` dead with `outcome`; on winning, drops its
  /// coordinator arcs, withdraws it from the calling core's shard
  /// synchronously, and posts kKill controls to its other resident
  /// shards. No-op when the CAS loses (already dead or committed).
  void GlobalKill(Core& core, TxnId root, AdmitOutcome outcome, bool cascade);
  /// This shard's share of a kill: withdraw from the checker (which
  /// restores its conflict frontiers), cascade local dirty readers.
  void KillLocal(Core& core, TxnId txn);
  /// Records conflict pair u -> v in the local DAG; mirrors + floods
  /// taint when either endpoint is tainted.
  void InsertArc(Core& core, TxnId from, TxnId to);
  void Taint(Core& core, TxnId txn);
  void Publish(std::size_t gid, TxnId txn, AdmitOutcome outcome);
  /// Appends `request` to `core`'s inbox and sets its flag; false, with
  /// nothing appended, when `request` is an operation and
  /// options_.queue_capacity operations already wait there.
  bool Post(Core& core, const Request& request);
  /// Posts a control to `shard` and records the shard for the caller's
  /// TryPostedShards.
  void PostControl(std::uint32_t shard, TxnId txn, RequestKind kind);
  std::uint8_t TxnState(TxnId txn) const {
    return txn_state_[txn].load(std::memory_order_acquire);
  }

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;  // retained for InstallRouter re-planning
  OpIndexer indexer_;  // over the ORIGINAL set (decision words, logs)
  // Behind a pointer so InstallRouter can replace it wholesale (cores
  // hold references into the plan's slices; they are destroyed first).
  std::unique_ptr<ShardPlan> plan_;
  ShardedAdmitterOptions options_;
  /// Version store for the snapshot-read fast path; null when off.
  /// Snapshot admits draw their merge stamp from admission_stamp_, the
  /// same counter the shard cores stamp accepts with, so CommittedLog
  /// can splice whole read-only blocks between stamped operations.
  std::unique_ptr<VersionStore> store_;
  CrossShardCoordinator coordinator_;
  Tracer coordinator_tracer_;
  // Stable-prefix GC authority (non-null iff options_.epoch_gc).
  std::unique_ptr<EpochManager> epochs_;
  // txn -> resident-shard withdrawals still outstanding after a kill;
  // the last KillLocal reports the fully-applied abort to epochs_.
  std::vector<std::atomic<std::uint32_t>> kill_remaining_;
  // Highest gc_generation whose shared work (the coordinator collect)
  // some core has claimed.
  std::atomic<std::uint64_t> gc_claim_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  // live_high_water() marks, fed by MaybeGcCore (CAS-max).
  std::atomic<std::uint64_t> hw_pool_rows_{0};
  std::atomic<std::uint64_t> hw_retained_ops_{0};
  std::atomic<std::uint64_t> hw_accept_entries_{0};
  std::atomic<std::uint64_t> hw_coordinator_arcs_{0};
  std::atomic<std::uint64_t> hw_dep_arcs_{0};

  std::uint64_t router_swaps_ = 0;  // written by InstallRouter only
  // Pre-swap stamped accepts, rescued from destroyed cores
  // (committed_log only); merged into CommittedLog/AdmittedLog.
  std::vector<std::pair<std::uint64_t, Operation>> swap_archive_;

  std::vector<std::unique_ptr<Core>> cores_;

  std::vector<std::atomic<std::uint8_t>> decision_;  // gid -> 1 + outcome
  std::vector<std::atomic<std::uint8_t>> txn_state_;
  std::vector<std::atomic<std::uint32_t>> pending_;  // txn -> undecided

  std::atomic<std::uint64_t> admission_stamp_{0};  // global accept order
  std::atomic<std::size_t> submitted_{0};  // ops + control messages
  std::atomic<std::size_t> decided_{0};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::uint64_t> retry_count_{0};
  std::atomic<std::uint64_t> unrecoverable_reads_{0};

  // Controls posted and not yet fully applied: a step subtracts the
  // ones it drained after processing them (and counting their cascades).
  std::atomic<std::size_t> controls_inflight_{0};

  std::mutex decide_mu_;
  std::condition_variable decided_cv_;

  bool stopped_ = false;  // caller-side (Stop is not thread-safe)
};

}  // namespace relser

#endif  // RELSER_SHARD_SHARDED_ADMITTER_H_
