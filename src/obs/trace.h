// relser::Tracer — the scheduler observability substrate.
//
// Every concurrency-control component (SimulationEngine, the schedule
// replay driver, OnlineRsrChecker, the graph- and lock-based schedulers)
// can be handed one Tracer. While a request is being decided, the
// component that knows *why* attaches a TraceCause — the witnessing RSG
// arc (I/D/F/B kind with operation endpoints), the blocking lock-table
// entry, or the waits-for deadlock cycle — and the component that knows
// the *outcome* records the decision event. One event per decision,
// cause included, so every stall in a run is attributable (the paper's
// Section 5 concurrency claims, made measurable).
//
// Overhead contract:
//   * No tracer attached (the default everywhere): the instrumented code
//     paths cost one pointer compare. bench_online_hotpath guards this —
//     bench/trajectory/ keeps before/after snapshots.
//   * TraceLevel::kOff: a Tracer is attached but records nothing.
//   * kCounters: O(1) counter bumps and latency-histogram inserts; no
//     per-event allocation.
//   * kFull: kCounters plus structured TraceEvents (JSONL / Chrome-trace
//     export via obs/export.h).
//   * Compile-time kill switch: configure with -DRELSER_TRACING=OFF and
//     every instrumentation site folds to nothing (kTracingCompiledIn is
//     constant false).
#ifndef RELSER_OBS_TRACE_H_
#define RELSER_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "model/operation.h"

#ifndef RELSER_TRACING_ENABLED
#define RELSER_TRACING_ENABLED 1
#endif

namespace relser {

/// Constant false when the library was configured with
/// -DRELSER_TRACING=OFF; instrumentation sites test it first so the
/// whole hook folds away at compile time.
inline constexpr bool kTracingCompiledIn = RELSER_TRACING_ENABLED != 0;

/// How much the tracer records.
enum class TraceLevel : std::uint8_t {
  kOff,       ///< attached but inert
  kCounters,  ///< counters + latency histogram only
  kFull,      ///< counters + structured events
};

/// What happened. One decision event per scheduler request, plus
/// transaction-lifecycle and (at kFull) arc-insertion events.
enum class TraceEventKind : std::uint8_t {
  kAdmit,         ///< request granted and executed
  kDelay,         ///< request blocked; will be retried
  kReject,        ///< request failed certification / chose a victim
  kAbort,         ///< transaction rolled back (its own rejection)
  kCascadeAbort,  ///< transaction rolled back because a dependency aborted
  kCommit,        ///< transaction committed
  kArc,           ///< an arc entered the scheduler's graph (kFull only)
  kTimeout,       ///< a deadline-bearing wait expired; transaction doomed
  // Sharded admission (shard/): coordinator-side events. Both are
  // transaction-level (has_op == false); the counterpart transaction
  // rides in cause.holder.
  kShardRoute,         ///< multi-shard transaction registered for routing
  kCrossShardArc,      ///< conflict arc mirrored into the coordinator
  kCoordinatorReject,  ///< arc batch closed a transaction-level cycle
  // MVCC snapshot-read fast path (core/mvcc/): transaction-level.
  kSnapshotRead,  ///< read-only txn admitted from the committed snapshot
  // Epoch/watermark GC (epoch/ + its consumers). All informational and
  // transaction-free (txn == 0, has_op == false); `count` carries the
  // reclaimed quantity where one applies.
  kEpochAdvance,   ///< a sweep settled `count` transactions
  kArcGc,          ///< coordinator dropped `count` settled/tombstoned arcs
  kCheckpoint,     ///< a checker truncated `count` settled feed entries
  kRouterSwap,     ///< a new ShardRouter was installed at a quiescent cut
};

/// Stable lowercase name ("admit", "delay", ...).
const char* TraceEventKindName(TraceEventKind kind);

/// What witnessed a non-admit decision.
enum class TraceCauseKind : std::uint8_t {
  kNone,         ///< admits; or the component attached nothing
  kRsgArc,       ///< Definition 3 arc (RSGT certification / RA blocking)
  kConflictArc,  ///< transaction-level conflict-graph arc (SGT)
  kLock,         ///< a held lock-table entry (2PL family)
  kDeadlock,     ///< waits-for cycle; the requester was chosen as victim
};

const char* TraceCauseKindName(TraceCauseKind kind);

/// Arc-kind bitmask matching core/rsg.h's ArcKind (I=1, D=2, F=4, B=8).
/// 0 denotes a transaction-level conflict arc (SGT has no op-level kinds).
using TraceArcKinds = std::uint8_t;

/// Renders an arc-kind bitmask as "I", "D,F", ... ("C" for 0, the
/// transaction-level conflict arc).
std::string TraceArcKindsToString(TraceArcKinds kinds);

/// The witness attached to a delay/reject/abort decision.
struct TraceCause {
  TraceCauseKind kind = TraceCauseKind::kNone;

  // kRsgArc / kConflictArc: the witnessing arc. For RSG arcs `from` and
  // `to` are exact operations; for SGT conflict arcs they are the two
  // conflicting accesses that induced the transaction-level arc.
  TraceArcKinds arc_kinds = 0;
  Operation from;
  Operation to;

  // kLock: the blocking lock-table entry. kDeadlock: `holder` is the
  // first transaction on the waits-for cycle.
  ObjectId object = 0;
  TxnId holder = 0;
  bool exclusive = false;

  /// Human-readable elaboration (core/explain's rendering of the arc's
  /// unit provenance); empty at kCounters or when not computed.
  std::string note;
};

/// One recorded event.
struct TraceEvent {
  std::uint64_t seq = 0;   ///< monotonic per-tracer sequence number
  std::uint64_t tick = 0;  ///< engine tick / replay round
  TraceEventKind kind = TraceEventKind::kAdmit;
  TxnId txn = 0;           ///< subject transaction
  bool has_op = false;     ///< lifecycle events carry no operation
  Operation op;            ///< the operation decided on (when has_op)
  std::uint64_t latency_ns = 0;  ///< decision latency when measured
  /// Reclaimed quantity for the epoch-GC kinds (settled transactions,
  /// collected arcs, truncated feed entries); 0 for every other kind.
  std::uint64_t count = 0;
  TraceCause cause;
};

/// Monotonic counters; `requests == admits + delays + rejects` always
/// (checked by tests/trace_test.cc).
struct TraceCounters {
  std::uint64_t requests = 0;
  std::uint64_t admits = 0;
  std::uint64_t delays = 0;
  std::uint64_t rejects = 0;
  std::uint64_t aborts = 0;
  std::uint64_t cascade_aborts = 0;
  std::uint64_t commits = 0;
  // Robustness layer (shard/sharded_admitter.h). Neither feeds
  // `requests`: timeouts are transaction-level verdicts and retries
  // happen on the client side of a shard's inbox, before any request
  // exists.
  std::uint64_t timeouts = 0;  ///< SubmitAndWait deadlines expired
  std::uint64_t retries = 0;   ///< client submissions refused by backpressure
  std::uint64_t arcs_submitted = 0;   ///< handed to the cycle checker
  std::uint64_t arcs_inserted = 0;    ///< actually new in the graph
  std::uint64_t cycle_repairs = 0;    ///< Pearce-Kelly reorder passes
  std::uint64_t early_lock_releases = 0;  ///< unit-2PL / altruistic
  // Admission cores (shard/sharded_admitter.h): drain-batch shape.
  std::uint64_t batches = 0;          ///< admission-core drain batches
  std::uint64_t batched_ops = 0;      ///< operations drained in batches
  std::uint64_t queue_depth_high_water = 0;  ///< max ops seen in one drain
  // Sharded admission (shard/): coordinator traffic.
  std::uint64_t cross_shard_arcs = 0;     ///< arcs mirrored (first inserts)
  std::uint64_t coordinator_rejects = 0;  ///< txn-level cycle rejections
  std::uint64_t escalations = 0;  ///< txns whose components were flushed
  // MVCC snapshot-read fast path (core/mvcc/).
  std::uint64_t snapshot_admits = 0;  ///< read-only txns admitted arc-free
  std::uint64_t snapshot_escalations = 0;  ///< read-only txns sent to checker
  // Cross-shard coordinator durable-arc census (gauges, not monotonic
  // within a run: MarkDead moves arcs live -> dead; summed by MergeFrom
  // like everything else since exactly one shard tracer carries them).
  std::uint64_t coordinator_arcs_live = 0;
  std::uint64_t coordinator_arcs_dead = 0;
  // Epoch/watermark GC (epoch/ + consumers): sweeps that advanced the
  // settled set, coordinator arcs reclaimed, checker truncation
  // checkpoints taken, and live ShardRouter swaps completed.
  std::uint64_t epochs_advanced = 0;
  std::uint64_t arcs_gcd = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t router_swaps = 0;
};

/// Power-of-two-bucketed latency histogram: bucket b holds samples with
/// bit_width(ns) == b, so quantiles are exact to within a factor of 2 —
/// plenty for p50/p99 trend lines, and insertion is branch-free.
class LatencyHistogram {
 public:
  void Record(std::uint64_t ns);
  /// Folds another histogram's buckets in (sharded-tracer merge).
  void MergeFrom(const LatencyHistogram& other);
  std::uint64_t samples() const { return samples_; }
  /// Approximate quantile (geometric bucket midpoint); 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t samples_ = 0;
};

/// Point-in-time roll-up of a tracer (JSON via SnapshotToJson).
struct TraceSnapshot {
  TraceCounters counters;
  std::uint64_t events_recorded = 0;
  std::uint64_t admit_latency_samples = 0;
  double admit_p50_ns = 0.0;
  double admit_p99_ns = 0.0;
  // Drain-batch size distribution (admission cores).
  double batch_size_p50 = 0.0;
  double batch_size_p99 = 0.0;
};

/// Serializes a snapshot as a single JSON object.
std::string SnapshotToJson(const TraceSnapshot& snapshot);

/// The collector. Not thread-safe (the simulator is single-threaded);
/// attach one tracer per engine/checker.
class Tracer {
 public:
  explicit Tracer(TraceLevel level = TraceLevel::kFull) : level_(level) {}

  TraceLevel level() const { return level_; }
  void set_level(TraceLevel level) { level_ = level; }

  /// True when counters (and possibly events) are being recorded.
  bool counting() const {
    return kTracingCompiledIn && level_ != TraceLevel::kOff;
  }
  /// True when structured events are being recorded.
  bool events_on() const {
    return kTracingCompiledIn && level_ == TraceLevel::kFull;
  }

  /// Advances the logical clock stamped onto events recorded by
  /// components that never see the engine tick themselves (arc events
  /// from OnlineRsrChecker). The engine / replay driver sets it once per
  /// tick; decision records still pass their tick explicitly.
  void SetTick(std::uint64_t tick) { tick_ = tick; }
  std::uint64_t tick() const { return tick_; }

  /// Attaches the witness for the in-flight request; consumed by the
  /// next RecordDecision. The latest attach wins (schedulers attach at
  /// most one per request).
  void AttachCause(TraceCause cause);

  /// Records an arc insertion (kFull only): kinds is the ArcKind bitmask
  /// (0 = SGT transaction-level conflict arc).
  void RecordArc(TraceArcKinds kinds, const Operation& from,
                 const Operation& to, std::uint64_t tick);

  /// Bulk counter feed from the graph substrate after a batch insert.
  void AddArcStats(std::uint64_t submitted, std::uint64_t inserted,
                   std::uint64_t repairs);

  void CountEarlyLockRelease();

  /// Admission-core hooks (each shard core owns its tracer, so the
  /// single-writer contract is preserved): the number of
  /// operations found queued at the start of a drain, and the size of
  /// the batch actually drained (also fed to the batch-size histogram).
  void NoteQueueDepth(std::uint64_t depth);
  void NoteBatch(std::uint64_t ops);

  /// Records the outcome of one request. `granted`/`blocked` map to
  /// admit/delay; anything else is a reject. Consumes the pending cause.
  void RecordAdmit(const Operation& op, std::uint64_t tick,
                   std::uint64_t latency_ns);
  void RecordDelay(const Operation& op, std::uint64_t tick,
                   std::uint64_t latency_ns);
  void RecordReject(const Operation& op, std::uint64_t tick,
                    std::uint64_t latency_ns);

  void RecordCommit(TxnId txn, std::uint64_t tick);
  void RecordAbort(TxnId txn, std::uint64_t tick, bool cascade);

  /// Robustness event: a SubmitAndWait deadline expiry (the subsequent
  /// abort is recorded separately by RecordAbort when it takes effect).
  void RecordTimeout(TxnId txn, std::uint64_t tick);

  /// Sharded admission (shard/). Transaction-level events: an arc
  /// mirrored into the cross-shard coordinator, a coordinator cycle
  /// rejection (issuer plus the witnessing arc), and a taint escalation
  /// (a local conflict component flushed to the coordinator). Called by
  /// the coordinator / shard cores under the coordinator mutex or from
  /// a single shard core, so the single-writer contract holds.
  void RecordShardRoute(TxnId txn, std::uint32_t shards, std::uint64_t tick);
  void RecordCrossShardArc(TxnId from, TxnId to, std::uint64_t tick);
  void RecordCoordinatorReject(TxnId issuer, TxnId from, TxnId to,
                               std::uint64_t tick);
  void CountEscalation();

  /// MVCC snapshot-read fast path (core/mvcc/,
  /// shard/sharded_admitter.h). RecordSnapshotRead logs one arc-free
  /// snapshot admission (transaction-level event; `tick` is the
  /// committed watermark the reader was admitted against) — the
  /// admitters fold these in after Stop, from the VersionStore's admit
  /// log, to respect the single-writer contract. AddSnapshotEscalations
  /// folds the escalation count the same way; SetCoordinatorArcCensus
  /// publishes the coordinator's live/dead durable-arc gauges.
  void RecordSnapshotRead(TxnId txn, std::uint64_t tick);
  void AddSnapshotEscalations(std::uint64_t escalations);
  void SetCoordinatorArcCensus(std::uint64_t live, std::uint64_t dead);

  /// Epoch/watermark GC (epoch/ + consumers). Transaction-free
  /// informational events carrying the reclaimed quantity in `count`
  /// (docs/trace-format.md, additive-informational exception). Called
  /// from the single GC driver (an admission/shard core at a batch
  /// boundary, or the admitter thread at a quiescent cut), so the
  /// single-writer contract holds.
  void RecordEpochAdvance(std::uint64_t settled, std::uint64_t watermark,
                          std::uint64_t tick);
  void RecordArcGc(std::uint64_t collected, std::uint64_t tick);
  void RecordCheckpoint(std::uint64_t dropped, std::uint64_t tick);
  void RecordRouterSwap(std::uint64_t tick);

  /// Folds the client-side backpressure-retry count in. Called once,
  /// after the admission core has quiesced (Stop), to respect the
  /// single-writer contract.
  void AddRetries(std::uint64_t retries);

  /// Folds another tracer's counters, histograms, and events into this
  /// one (events are re-sequenced after the existing tail). The sharded
  /// admitter gives each shard core a private tracer and merges them
  /// into the user-facing one after Stop, when no writer is live.
  void MergeFrom(const Tracer& other);

  const TraceCounters& counters() const { return counters_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  TraceSnapshot Snapshot() const;

  /// Drops events and resets counters/histograms (the level is kept).
  void Clear();

 private:
  void RecordDecisionEvent(TraceEventKind kind, const Operation& op,
                           std::uint64_t tick, std::uint64_t latency_ns);

  TraceLevel level_;
  TraceCounters counters_;
  LatencyHistogram admit_latency_;
  LatencyHistogram batch_size_;  // power-of-two buckets fit counts too
  std::vector<TraceEvent> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t tick_ = 0;
  TraceCause pending_cause_;
  bool has_pending_cause_ = false;
};

}  // namespace relser

#endif  // RELSER_OBS_TRACE_H_
