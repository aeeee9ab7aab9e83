#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/json.h"

namespace relser {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAdmit: return "admit";
    case TraceEventKind::kDelay: return "delay";
    case TraceEventKind::kReject: return "reject";
    case TraceEventKind::kAbort: return "abort";
    case TraceEventKind::kCascadeAbort: return "cascade_abort";
    case TraceEventKind::kCommit: return "commit";
    case TraceEventKind::kArc: return "arc";
    case TraceEventKind::kTimeout: return "timeout";
    case TraceEventKind::kShardRoute: return "shard_route";
    case TraceEventKind::kCrossShardArc: return "cross_shard_arc";
    case TraceEventKind::kCoordinatorReject: return "coordinator_reject";
    case TraceEventKind::kSnapshotRead: return "snapshot_read";
    case TraceEventKind::kEpochAdvance: return "epoch_advance";
    case TraceEventKind::kArcGc: return "arc_gc";
    case TraceEventKind::kCheckpoint: return "checkpoint";
    case TraceEventKind::kRouterSwap: return "router_swap";
  }
  return "?";
}

const char* TraceCauseKindName(TraceCauseKind kind) {
  switch (kind) {
    case TraceCauseKind::kNone: return "none";
    case TraceCauseKind::kRsgArc: return "rsg_arc";
    case TraceCauseKind::kConflictArc: return "conflict_arc";
    case TraceCauseKind::kLock: return "lock";
    case TraceCauseKind::kDeadlock: return "deadlock";
  }
  return "?";
}

std::string TraceArcKindsToString(TraceArcKinds kinds) {
  if (kinds == 0) return "C";
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (kinds & 0x1) append("I");
  if (kinds & 0x2) append("D");
  if (kinds & 0x4) append("F");
  if (kinds & 0x8) append("B");
  return out;
}

void LatencyHistogram::Record(std::uint64_t ns) {
  const auto bucket =
      std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(ns)),
                            buckets_.size() - 1);
  ++buckets_[bucket];
  ++samples_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  samples_ += other.samples_;
}

double LatencyHistogram::Quantile(double q) const {
  if (samples_ == 0) return 0.0;
  const double rank = q * static_cast<double>(samples_ - 1);
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += static_cast<double>(buckets_[b]);
    if (seen > rank) {
      // bucket b holds [2^(b-1), 2^b); report the geometric midpoint.
      if (b == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo * 1.5;
    }
  }
  return std::ldexp(1.0, 63);
}

void Tracer::AttachCause(TraceCause cause) {
  if (!events_on()) return;
  pending_cause_ = std::move(cause);
  has_pending_cause_ = true;
}

void Tracer::RecordArc(TraceArcKinds kinds, const Operation& from,
                       const Operation& to, std::uint64_t tick) {
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kArc;
  event.txn = to.txn;
  event.has_op = true;
  event.op = to;
  event.cause.kind = kinds == 0 ? TraceCauseKind::kConflictArc
                                : TraceCauseKind::kRsgArc;
  event.cause.arc_kinds = kinds;
  event.cause.from = from;
  event.cause.to = to;
  events_.push_back(std::move(event));
}

void Tracer::AddArcStats(std::uint64_t submitted, std::uint64_t inserted,
                         std::uint64_t repairs) {
  if (!counting()) return;
  counters_.arcs_submitted += submitted;
  counters_.arcs_inserted += inserted;
  counters_.cycle_repairs += repairs;
}

void Tracer::AddImpliedBArcs(std::uint64_t implied) {
  if (!counting()) return;
  counters_.b_arcs_implied += implied;
}

void Tracer::CountEarlyLockRelease() {
  if (!counting()) return;
  ++counters_.early_lock_releases;
}

void Tracer::RecordDecisionEvent(TraceEventKind kind, const Operation& op,
                                 std::uint64_t tick,
                                 std::uint64_t latency_ns) {
  if (events_on()) {
    TraceEvent event;
    event.seq = next_seq_++;
    event.tick = tick;
    event.kind = kind;
    event.txn = op.txn;
    event.has_op = true;
    event.op = op;
    event.latency_ns = latency_ns;
    if (has_pending_cause_) {
      event.cause = std::move(pending_cause_);
      pending_cause_ = TraceCause{};
    }
    events_.push_back(std::move(event));
  }
  has_pending_cause_ = false;
}

void Tracer::RecordAdmit(const Operation& op, std::uint64_t tick,
                         std::uint64_t latency_ns) {
  if (!counting()) return;
  ++counters_.requests;
  ++counters_.admits;
  admit_latency_.Record(latency_ns);
  RecordDecisionEvent(TraceEventKind::kAdmit, op, tick, latency_ns);
}

void Tracer::RecordDelay(const Operation& op, std::uint64_t tick,
                         std::uint64_t latency_ns) {
  if (!counting()) return;
  ++counters_.requests;
  ++counters_.delays;
  RecordDecisionEvent(TraceEventKind::kDelay, op, tick, latency_ns);
}

void Tracer::RecordReject(const Operation& op, std::uint64_t tick,
                          std::uint64_t latency_ns) {
  if (!counting()) return;
  ++counters_.requests;
  ++counters_.rejects;
  RecordDecisionEvent(TraceEventKind::kReject, op, tick, latency_ns);
}

void Tracer::RecordCommit(TxnId txn, std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.commits;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kCommit;
  event.txn = txn;
  events_.push_back(std::move(event));
}

void Tracer::RecordAbort(TxnId txn, std::uint64_t tick, bool cascade) {
  if (!counting()) return;
  if (cascade) {
    ++counters_.cascade_aborts;
  } else {
    ++counters_.aborts;
  }
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = cascade ? TraceEventKind::kCascadeAbort
                       : TraceEventKind::kAbort;
  event.txn = txn;
  events_.push_back(std::move(event));
}

void Tracer::RecordTimeout(TxnId txn, std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.timeouts;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kTimeout;
  event.txn = txn;
  events_.push_back(std::move(event));
}

void Tracer::RecordShardRoute(TxnId txn, std::uint32_t shards,
                              std::uint64_t tick) {
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kShardRoute;
  event.txn = txn;
  event.cause.note = "spans " + std::to_string(shards) + " shards";
  events_.push_back(std::move(event));
}

void Tracer::RecordCrossShardArc(TxnId from, TxnId to, std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.cross_shard_arcs;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kCrossShardArc;
  event.txn = from;
  event.cause.kind = TraceCauseKind::kConflictArc;
  event.cause.holder = to;
  events_.push_back(std::move(event));
}

void Tracer::RecordCoordinatorReject(TxnId issuer, TxnId from, TxnId to,
                                     std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.coordinator_rejects;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kCoordinatorReject;
  event.txn = issuer;
  event.cause.kind = TraceCauseKind::kConflictArc;
  event.cause.object = 0;
  event.cause.holder = from;
  event.cause.note = "witness arc T" + std::to_string(from) + " -> T" +
                     std::to_string(to);
  events_.push_back(std::move(event));
}

void Tracer::CountEscalation() {
  if (!counting()) return;
  ++counters_.escalations;
}

void Tracer::RecordSnapshotRead(TxnId txn, std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.snapshot_admits;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kSnapshotRead;
  event.txn = txn;
  event.cause.note = "snapshot @ watermark " + std::to_string(tick);
  events_.push_back(std::move(event));
}

void Tracer::AddSnapshotEscalations(std::uint64_t escalations) {
  if (!counting()) return;
  counters_.snapshot_escalations += escalations;
}

void Tracer::SetCoordinatorArcCensus(std::uint64_t live, std::uint64_t dead) {
  if (!counting()) return;
  counters_.coordinator_arcs_live = live;
  counters_.coordinator_arcs_dead = dead;
}

void Tracer::RecordEpochAdvance(std::uint64_t settled,
                                std::uint64_t watermark,
                                std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.epochs_advanced;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kEpochAdvance;
  event.count = settled;
  event.cause.note = "watermark " + std::to_string(watermark);
  events_.push_back(std::move(event));
}

void Tracer::RecordArcGc(std::uint64_t collected, std::uint64_t tick) {
  if (!counting()) return;
  counters_.arcs_gcd += collected;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kArcGc;
  event.count = collected;
  events_.push_back(std::move(event));
}

void Tracer::RecordCheckpoint(std::uint64_t dropped, std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.checkpoints;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kCheckpoint;
  event.count = dropped;
  events_.push_back(std::move(event));
}

void Tracer::RecordRouterSwap(std::uint64_t tick) {
  if (!counting()) return;
  ++counters_.router_swaps;
  if (!events_on()) return;
  TraceEvent event;
  event.seq = next_seq_++;
  event.tick = tick;
  event.kind = TraceEventKind::kRouterSwap;
  events_.push_back(std::move(event));
}

void Tracer::AddRetries(std::uint64_t retries) {
  if (!counting()) return;
  counters_.retries += retries;
}

void Tracer::MergeFrom(const Tracer& other) {
  if (!counting()) return;
  const TraceCounters& c = other.counters_;
  counters_.requests += c.requests;
  counters_.admits += c.admits;
  counters_.delays += c.delays;
  counters_.rejects += c.rejects;
  counters_.aborts += c.aborts;
  counters_.cascade_aborts += c.cascade_aborts;
  counters_.commits += c.commits;
  counters_.timeouts += c.timeouts;
  counters_.retries += c.retries;
  counters_.arcs_submitted += c.arcs_submitted;
  counters_.arcs_inserted += c.arcs_inserted;
  counters_.cycle_repairs += c.cycle_repairs;
  counters_.b_arcs_implied += c.b_arcs_implied;
  counters_.early_lock_releases += c.early_lock_releases;
  counters_.batches += c.batches;
  counters_.batched_ops += c.batched_ops;
  counters_.queue_depth_high_water = std::max(
      counters_.queue_depth_high_water, c.queue_depth_high_water);
  counters_.cross_shard_arcs += c.cross_shard_arcs;
  counters_.coordinator_rejects += c.coordinator_rejects;
  counters_.escalations += c.escalations;
  counters_.snapshot_admits += c.snapshot_admits;
  counters_.snapshot_escalations += c.snapshot_escalations;
  counters_.coordinator_arcs_live += c.coordinator_arcs_live;
  counters_.coordinator_arcs_dead += c.coordinator_arcs_dead;
  counters_.epochs_advanced += c.epochs_advanced;
  counters_.arcs_gcd += c.arcs_gcd;
  counters_.checkpoints += c.checkpoints;
  counters_.router_swaps += c.router_swaps;
  admit_latency_.MergeFrom(other.admit_latency_);
  batch_size_.MergeFrom(other.batch_size_);
  if (events_on()) {
    for (TraceEvent event : other.events_) {
      event.seq = next_seq_++;
      events_.push_back(std::move(event));
    }
  }
}

void Tracer::NoteQueueDepth(std::uint64_t depth) {
  if (!counting()) return;
  if (depth > counters_.queue_depth_high_water) {
    counters_.queue_depth_high_water = depth;
  }
}

void Tracer::NoteBatch(std::uint64_t ops) {
  if (!counting()) return;
  ++counters_.batches;
  counters_.batched_ops += ops;
  batch_size_.Record(ops);
}

TraceSnapshot Tracer::Snapshot() const {
  TraceSnapshot snapshot;
  snapshot.counters = counters_;
  snapshot.events_recorded = events_.size();
  snapshot.admit_latency_samples = admit_latency_.samples();
  snapshot.admit_p50_ns = admit_latency_.Quantile(0.50);
  snapshot.admit_p99_ns = admit_latency_.Quantile(0.99);
  snapshot.batch_size_p50 = batch_size_.Quantile(0.50);
  snapshot.batch_size_p99 = batch_size_.Quantile(0.99);
  return snapshot;
}

void Tracer::Clear() {
  counters_ = TraceCounters{};
  admit_latency_ = LatencyHistogram{};
  batch_size_ = LatencyHistogram{};
  events_.clear();
  next_seq_ = 0;
  tick_ = 0;
  pending_cause_ = TraceCause{};
  has_pending_cause_ = false;
}

std::string SnapshotToJson(const TraceSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("requests");
  json.Uint(snapshot.counters.requests);
  json.Key("admits");
  json.Uint(snapshot.counters.admits);
  json.Key("delays");
  json.Uint(snapshot.counters.delays);
  json.Key("rejects");
  json.Uint(snapshot.counters.rejects);
  json.Key("aborts");
  json.Uint(snapshot.counters.aborts);
  json.Key("cascade_aborts");
  json.Uint(snapshot.counters.cascade_aborts);
  json.Key("commits");
  json.Uint(snapshot.counters.commits);
  json.Key("timeouts");
  json.Uint(snapshot.counters.timeouts);
  json.Key("retries");
  json.Uint(snapshot.counters.retries);
  json.Key("arcs_submitted");
  json.Uint(snapshot.counters.arcs_submitted);
  json.Key("arcs_inserted");
  json.Uint(snapshot.counters.arcs_inserted);
  json.Key("cycle_repairs");
  json.Uint(snapshot.counters.cycle_repairs);
  json.Key("b_arcs_implied");
  json.Uint(snapshot.counters.b_arcs_implied);
  json.Key("early_lock_releases");
  json.Uint(snapshot.counters.early_lock_releases);
  json.Key("batches");
  json.Uint(snapshot.counters.batches);
  json.Key("batched_ops");
  json.Uint(snapshot.counters.batched_ops);
  json.Key("queue_depth_high_water");
  json.Uint(snapshot.counters.queue_depth_high_water);
  json.Key("cross_shard_arcs");
  json.Uint(snapshot.counters.cross_shard_arcs);
  json.Key("coordinator_rejects");
  json.Uint(snapshot.counters.coordinator_rejects);
  json.Key("escalations");
  json.Uint(snapshot.counters.escalations);
  json.Key("snapshot_admits");
  json.Uint(snapshot.counters.snapshot_admits);
  json.Key("snapshot_escalations");
  json.Uint(snapshot.counters.snapshot_escalations);
  json.Key("coordinator_arcs_live");
  json.Uint(snapshot.counters.coordinator_arcs_live);
  json.Key("coordinator_arcs_dead");
  json.Uint(snapshot.counters.coordinator_arcs_dead);
  json.Key("epochs_advanced");
  json.Uint(snapshot.counters.epochs_advanced);
  json.Key("arcs_gcd");
  json.Uint(snapshot.counters.arcs_gcd);
  json.Key("checkpoints");
  json.Uint(snapshot.counters.checkpoints);
  json.Key("router_swaps");
  json.Uint(snapshot.counters.router_swaps);
  json.Key("batch_size_p50");
  json.Double(snapshot.batch_size_p50);
  json.Key("batch_size_p99");
  json.Double(snapshot.batch_size_p99);
  json.Key("events_recorded");
  json.Uint(snapshot.events_recorded);
  json.Key("admit_latency_samples");
  json.Uint(snapshot.admit_latency_samples);
  json.Key("admit_p50_ns");
  json.Double(snapshot.admit_p50_ns);
  json.Key("admit_p99_ns");
  json.Double(snapshot.admit_p99_ns);
  json.EndObject();
  return json.str();
}

}  // namespace relser
