// Golden-sequence and invariant tests for the obs/ tracing layer: the
// paper's figures replayed under traced schedulers, the JSONL schema
// contract, the counter identities, the disabled-path guarantees, and
// the online checker's steady allocations per operation.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/paper_examples.h"
#include "core/rsg.h"
#include "model/text.h"
#include "obs/export.h"
#include "obs/inspect.h"
#include "obs/trace.h"
#include "sched/engine.h"
#include "sched/factory.h"
#include "sched/replay.h"
#include "spec/builders.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

// Counting operator new: proves the untraced / kOff replay paths do not
// allocate more than the tracer-free run, and bounds the online
// checker's steady allocations per operation and the bytes its row pool
// allocates (CheckerAllocations below).
std::size_t g_alloc_count = 0;
std::size_t g_alloc_bytes = 0;

const TraceEvent* FindEvent(const Tracer& tracer, TraceEventKind kind,
                            const Operation& op) {
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == kind && event.has_op && event.op == op) return &event;
  }
  return nullptr;
}

std::size_t CountEvents(const Tracer& tracer, TraceEventKind kind) {
  std::size_t count = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == kind) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Figure 3's S2 under the blocking "ra" scheduler: T1 is atomic relative
// to T2, so after w1[x] executes, T1's open unit [w1[x] r1[z]] delays
// r2[x] — the delay's cause must be exactly the push-forward arc
// r1[z] -> r2[x] of Definition 3.

TEST(TraceGolden, RelativelyAtomicFigure3DelayNamesPushForwardArc) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("ra", example.txns, example.spec);
  ASSERT_NE(scheduler, nullptr);
  Tracer tracer(TraceLevel::kFull);

  const ReplayResult result = ReplaySchedule(
      example.txns, scheduler.get(), example.schedule("S2"), &tracer);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.granted, 6u);
  EXPECT_EQ(result.delays, 1u);
  EXPECT_EQ(result.rounds, 2u);

  const Operation r2x = example.txns.txn(1).op(0);  // r2[x]
  const Operation r1z = example.txns.txn(0).op(1);  // r1[z]
  const TraceEvent* delay = FindEvent(tracer, TraceEventKind::kDelay, r2x);
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->cause.kind, TraceCauseKind::kRsgArc);
  EXPECT_EQ(delay->cause.arc_kinds, kPushForwardArc);
  EXPECT_EQ(delay->cause.from, r1z);
  EXPECT_EQ(delay->cause.to, r2x);
  EXPECT_FALSE(delay->cause.note.empty());
  // The delayed op is admitted in the next round.
  const TraceEvent* admit = FindEvent(tracer, TraceEventKind::kAdmit, r2x);
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(admit->tick, 1u);
}

// RSGT admits the whole schedule (S2 is relatively serializable) but
// its arc stream must contain the same witnessing F-arc, recorded when
// r2[x] is certified.
TEST(TraceGolden, RsgtFigure3RecordsPushForwardArc) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("rsgt", example.txns, example.spec);
  ASSERT_NE(scheduler, nullptr);
  Tracer tracer(TraceLevel::kFull);

  const ReplayResult result = ReplaySchedule(
      example.txns, scheduler.get(), example.schedule("S2"), &tracer);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.delays, 0u);
  EXPECT_EQ(result.rounds, 1u);

  const Operation r2x = example.txns.txn(1).op(0);
  const Operation r1z = example.txns.txn(0).op(1);
  bool found_f_arc = false;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == TraceEventKind::kArc &&
        event.cause.arc_kinds == kPushForwardArc &&
        event.cause.from == r1z && event.cause.to == r2x) {
      found_f_arc = true;
    }
  }
  EXPECT_TRUE(found_f_arc);
}

// Figure 1's S2 is relatively serializable but not conflict
// serializable: RSGT admits all 10 operations, SGT must reject one and
// name a witnessing conflict arc.
TEST(TraceGolden, RsgtAdmitsFigure1S2Completely) {
  const PaperExample example = Figure1();
  const auto scheduler = MakeScheduler("rsgt", example.txns, example.spec);
  Tracer tracer(TraceLevel::kFull);
  const ReplayResult result = ReplaySchedule(
      example.txns, scheduler.get(), example.schedule("S2"), &tracer);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.granted, 10u);
  EXPECT_EQ(CountEvents(tracer, TraceEventKind::kAdmit), 10u);
  EXPECT_EQ(CountEvents(tracer, TraceEventKind::kReject), 0u);
  EXPECT_EQ(CountEvents(tracer, TraceEventKind::kCommit), 3u);
}

TEST(TraceGolden, SgtRejectsFigure1S2WithConflictArc) {
  const PaperExample example = Figure1();
  const auto scheduler = MakeScheduler("sgt", example.txns, example.spec);
  Tracer tracer(TraceLevel::kFull);
  const ReplayResult result = ReplaySchedule(
      example.txns, scheduler.get(), example.schedule("S2"), &tracer);
  EXPECT_FALSE(result.completed);
  // w3[y]'s rejection kills T3; r1[y] then closes T1 -> T2 -> T1 against
  // the standing w1[x] -> r2[x] arc and T1 dies too.  Only T2 commits.
  EXPECT_EQ(result.aborted_txns, 2u);
  ASSERT_EQ(CountEvents(tracer, TraceEventKind::kReject), 2u);
  EXPECT_EQ(CountEvents(tracer, TraceEventKind::kCommit), 1u);

  const Operation w3y = example.txns.txn(2).op(1);  // w3[y] closes the cycle
  const TraceEvent* reject = FindEvent(tracer, TraceEventKind::kReject, w3y);
  ASSERT_NE(reject, nullptr);
  EXPECT_EQ(reject->cause.kind, TraceCauseKind::kConflictArc);
  EXPECT_EQ(reject->cause.arc_kinds, 0);  // txn-level arc, rendered "C"
  EXPECT_EQ(reject->cause.to, w3y);
  // The witnessing conflict access belongs to T2 (the T2 -> T3 arc that
  // closes the cycle against the standing T3 -> T2 arc).
  EXPECT_EQ(reject->cause.from.txn, 1u);
  EXPECT_EQ(reject->cause.from.object, w3y.object);
}

// ---------------------------------------------------------------------------
// Schema + counter invariants across every figure and both certification
// schedulers.

TEST(TraceInvariants, FiguresSweepCountersAndSchema) {
  for (const PaperExample& example : AllPaperExamples()) {
    for (const char* name : {"rsgt", "sgt"}) {
      for (const auto& [schedule_name, schedule] : example.schedules) {
        const auto scheduler = MakeScheduler(name, example.txns, example.spec);
        Tracer tracer(TraceLevel::kFull);
        ReplaySchedule(example.txns, scheduler.get(), schedule, &tracer);

        const TraceCounters& counters = tracer.counters();
        EXPECT_EQ(counters.requests,
                  counters.admits + counters.delays + counters.rejects)
            << example.name << "/" << schedule_name << " under " << name;
        EXPECT_GE(counters.arcs_submitted, counters.arcs_inserted);

        const std::string jsonl = TraceToJsonl(tracer, example.txns);
        const TraceValidation validation = ValidateTraceJsonl(jsonl);
        EXPECT_TRUE(validation.ok)
            << example.name << "/" << schedule_name << " under " << name
            << ": " << (validation.errors.empty() ? "no events"
                                                  : validation.errors[0]);
      }
    }
  }
}

TEST(TraceInvariants, EngineRunCountersConsistent) {
  const PaperExample example = Figure1();
  for (const char* name : {"rsgt", "sgt", "2pl", "unit2pl", "ra"}) {
    const auto scheduler = MakeScheduler(name, example.txns, example.spec);
    ASSERT_NE(scheduler, nullptr) << name;
    Tracer tracer(TraceLevel::kFull);
    SimParams params;
    params.tracer = &tracer;
    const SimResult result =
        RunSimulation(example.txns, scheduler.get(), params);
    ASSERT_TRUE(result.metrics.completed) << name;

    const TraceCounters& counters = tracer.counters();
    EXPECT_EQ(counters.requests,
              counters.admits + counters.delays + counters.rejects)
        << name;
    EXPECT_EQ(counters.admits, result.metrics.grants) << name;
    EXPECT_EQ(counters.delays, result.metrics.blocks) << name;
    EXPECT_EQ(counters.commits, example.txns.txn_count()) << name;
    EXPECT_EQ(counters.aborts, result.metrics.aborts) << name;
    EXPECT_EQ(counters.cascade_aborts, result.metrics.cascade_aborts) << name;

    const std::string jsonl = TraceToJsonl(tracer, example.txns);
    EXPECT_TRUE(ValidateTraceJsonl(jsonl).ok) << name;
  }
}

TEST(TraceInvariants, SnapshotJsonParsesAndMatchesCounters) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("rsgt", example.txns, example.spec);
  Tracer tracer(TraceLevel::kFull);
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 &tracer);

  const std::string json = SnapshotToJson(tracer.Snapshot());
  const auto parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* admits = parsed->Find("admits");
  ASSERT_NE(admits, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(admits->number_value()),
            tracer.counters().admits);
  ASSERT_NE(parsed->Find("admit_p50_ns"), nullptr);
  ASSERT_NE(parsed->Find("admit_p99_ns"), nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(
                parsed->Find("admit_latency_samples")->number_value()),
            tracer.counters().admits);
}

// The checker's implied-B-arc count reaches every surface that reports
// counters: the kCounters snapshot JSON, the JSONL header and
// trace_inspect's summary. The feed is online_test's hand-built case:
// w3[x] leaves out the B-arc w1[x] -> w3[y], implied through r2[x].
TEST(TraceInvariants, ImpliedBArcCountReachesSnapshotAndSummary) {
  auto txns =
      ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\nT3 = w3[y] w3[x]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  for (const TraceLevel level : {TraceLevel::kCounters, TraceLevel::kFull}) {
    Tracer tracer(level);
    OnlineRsrChecker checker(*txns, spec);
    checker.set_tracer(&tracer);
    for (const TxnId t : {0u, 1u, 2u}) {
      for (const Operation& op : txns->txn(t).ops()) {
        ASSERT_TRUE(checker.TryAppend(op));
      }
    }
    EXPECT_EQ(checker.b_arcs_implied(), 1u);
    EXPECT_EQ(tracer.counters().b_arcs_implied, 1u);
    const auto parsed = JsonValue::Parse(SnapshotToJson(tracer.Snapshot()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_NE(parsed->Find("b_arcs_implied"), nullptr);
    EXPECT_EQ(parsed->Find("b_arcs_implied")->number_value(), 1.0);
    if (level != TraceLevel::kFull) continue;
    const std::string jsonl = TraceToJsonl(tracer, *txns);
    EXPECT_TRUE(ValidateTraceJsonl(jsonl).ok);
    const TraceSummary summary = SummarizeTraceJsonl(jsonl);
    EXPECT_EQ(summary.b_arcs_implied, 1u);
    EXPECT_NE(RenderTraceSummary(summary).find("B-arcs implied: 1"),
              std::string::npos);
  }
}

// One synchronous client makes the admitter's counters fully
// deterministic: every SubmitAndWait blocks until its decision, so the
// (single) shard core drains exactly one operation per batch.
TEST(TraceInvariants, AdmitterCountersGoldenForSynchronousClient) {
  const PaperExample example = Figure1();
  const Schedule& schedule = example.schedule("S2");
  Tracer tracer(TraceLevel::kCounters);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  {
    ShardedAdmitter admitter(
        example.txns, example.spec,
        ShardRouter(example.txns.object_count(), 1, ShardStrategy::kRange),
        options);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      admitter.SubmitAndWait(schedule.op(i));
    }
    admitter.Stop();
    EXPECT_EQ(admitter.accepted() + admitter.rejected(), schedule.size());
  }
  const TraceCounters& counters = tracer.counters();
  EXPECT_EQ(counters.batches, schedule.size());
  EXPECT_EQ(counters.batched_ops, schedule.size());
  EXPECT_EQ(counters.queue_depth_high_water, 1u);
  EXPECT_EQ(counters.requests, counters.admits + counters.rejects);
  EXPECT_EQ(counters.admits + counters.rejects, schedule.size());

  // Every batch had size 1, so the whole distribution sits in the first
  // histogram bucket (the estimator may interpolate inside the bucket,
  // but p50 and p99 must coincide and stay below the next bucket).
  const TraceSnapshot snapshot = tracer.Snapshot();
  EXPECT_EQ(snapshot.batch_size_p50, snapshot.batch_size_p99);
  EXPECT_GE(snapshot.batch_size_p50, 1.0);
  EXPECT_LT(snapshot.batch_size_p50, 2.0);
  const auto parsed = JsonValue::Parse(SnapshotToJson(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const char* key : {"batches", "batched_ops", "queue_depth_high_water",
                          "batch_size_p50", "batch_size_p99"}) {
    ASSERT_NE(parsed->Find(key), nullptr) << key;
  }
  EXPECT_EQ(
      static_cast<std::uint64_t>(parsed->Find("batches")->number_value()),
      counters.batches);
}

TEST(TraceInvariants, ChromeTraceIsValidJsonWithPerTxnLanes) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("ra", example.txns, example.spec);
  Tracer tracer(TraceLevel::kFull);
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 &tracer);

  const std::string chrome = TraceToChromeJson(tracer, example.txns);
  const auto parsed = JsonValue::Parse(chrome);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata: one process_name + one thread_name per transaction.
  std::size_t lanes = 0;
  for (const JsonValue& event : events->array_items()) {
    const JsonValue* name = event.Find("name");
    if (name != nullptr && name->string_value() == "thread_name") ++lanes;
  }
  EXPECT_EQ(lanes, example.txns.txn_count());
  EXPECT_GT(events->array_items().size(),
            1 + example.txns.txn_count());  // metadata + real events
}

TEST(TraceInvariants, SummaryAttributesTopBlockingCause) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("ra", example.txns, example.spec);
  Tracer tracer(TraceLevel::kFull);
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 &tracer);

  const TraceSummary summary =
      SummarizeTraceJsonl(TraceToJsonl(tracer, example.txns));
  EXPECT_EQ(summary.admits, 6u);
  EXPECT_EQ(summary.delays, 1u);
  ASSERT_FALSE(summary.top_blocking.empty());
  EXPECT_NE(summary.top_blocking[0].label.find("F-arc r1[z] -> r2[x]"),
            std::string::npos)
      << summary.top_blocking[0].label;
  ASSERT_FALSE(summary.longest_delayed.empty());
  EXPECT_EQ(summary.longest_delayed[0].op, "r2[x]");
  EXPECT_EQ(summary.longest_delayed[0].wait_ticks(), 1u);
}

// ---------------------------------------------------------------------------
// Disabled-path guarantees: a kOff tracer records nothing, and neither a
// missing tracer nor a kOff tracer changes the allocation profile of a
// replay (the zero-overhead-when-disabled contract of docs/hotpath.md).

std::size_t ReplayAllocations(Tracer* tracer) {
  const PaperExample example = Figure1();
  const auto scheduler = MakeScheduler("rsgt", example.txns, example.spec);
  const std::size_t before = g_alloc_count;
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 tracer);
  return g_alloc_count - before;
}

TEST(TraceDisabled, OffTracerRecordsNothing) {
  const PaperExample example = Figure1();
  const auto scheduler = MakeScheduler("rsgt", example.txns, example.spec);
  Tracer tracer(TraceLevel::kOff);
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 &tracer);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.counters().requests, 0u);
  EXPECT_EQ(tracer.counters().admits, 0u);
  EXPECT_EQ(tracer.Snapshot().admit_latency_samples, 0u);
}

TEST(TraceDisabled, OffTracerAllocationParityWithNoTracer) {
  // Warm-up run so one-time lazy allocations don't skew the comparison.
  ReplayAllocations(nullptr);
  const std::size_t without = ReplayAllocations(nullptr);
  Tracer off(TraceLevel::kOff);
  const std::size_t with_off = ReplayAllocations(&off);
  EXPECT_EQ(without, with_off);
  EXPECT_TRUE(off.events().empty());
}

TEST(TraceDisabled, CountersLevelKeepsCountsButNoEvents) {
  const PaperExample example = Figure3();
  const auto scheduler = MakeScheduler("ra", example.txns, example.spec);
  Tracer tracer(TraceLevel::kCounters);
  ReplaySchedule(example.txns, scheduler.get(), example.schedule("S2"),
                 &tracer);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.counters().admits, 6u);
  EXPECT_EQ(tracer.counters().delays, 1u);
  EXPECT_EQ(tracer.counters().requests, 7u);
}

// ---------------------------------------------------------------------------
// Allocation ceiling of the online checker's admission path.

// The online checker allocates only when an amortized structure grows,
// so the second half of a feed runs at a small, flat allocation rate.
// The workload is a uniform random schedule of `target_ops` operations
// over 16-op transactions (seed 0xB0B0 + target_ops); a rejected
// transaction's remaining operations are skipped. Measured: 0.125
// allocs/op at 10^2 and 0.044 at 10^3.
constexpr double kMaxSteadyAllocsPerOp = 0.25;

double SteadyAllocsPerOp(std::size_t target_ops) {
  const std::size_t txn_count = std::max<std::size_t>(target_ops / 16, 2);
  Rng rng(0xB0B0 + target_ops);
  WorkloadParams wp;
  wp.txn_count = txn_count;
  wp.min_ops_per_txn = target_ops / txn_count;
  wp.max_ops_per_txn = target_ops / txn_count;
  wp.object_count = std::max<std::size_t>(16, target_ops / 8);
  wp.read_ratio = 0.5;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.5, &rng);
  const Schedule schedule = RandomSchedule(txns, &rng);

  OnlineRsrChecker checker(txns, spec);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  const std::size_t half = schedule.size() / 2;
  std::size_t half_allocs = 0;
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    if (pos == half) half_allocs = g_alloc_count;
    const Operation& op = schedule.op(pos);
    if (dead[op.txn] == 0 && !checker.TryAppend(op)) dead[op.txn] = 1;
  }
  return static_cast<double>(g_alloc_count - half_allocs) /
         static_cast<double>(schedule.size() - half);
}

TEST(CheckerAllocations, SteadyAllocsPerOpUnderCeiling) {
  for (const std::size_t target_ops : {std::size_t{100}, std::size_t{1000}}) {
    EXPECT_LE(SteadyAllocsPerOp(target_ops), kMaxSteadyAllocsPerOp)
        << target_ops << " ops";
  }
}

// The bytes a feed allocates, over the bytes of the rows it keeps:
// pool_rows() rows of T 16-bit columns. Rows live in fixed 64-row
// blocks allocated once each, so the pool allocates its final size
// rounded up to a block. A pool that grows by doubling allocates about
// twice its final size, and up to four times it, since every capacity
// it passed through was allocated too. The feed has relaxed-batch's
// shape: 625 16-op transactions over 1250 uniform objects, read ratio
// 0.8, every gap a breakpoint, one random interleaving and no GC, 10^4
// operations; a rejected transaction's remaining operations are
// skipped. Measured at 5,114 rows: 1.79 with blocks (1.00 for the pool,
// 0.79 for the other structures the feed grows, mostly the undo-delta
// arena) and 3.99 with a doubling pool.
constexpr double kMaxFeedBytesPerRowByte = 2.5;

TEST(CheckerAllocations, FeedBytesTrackThePoolSize) {
  Rng rng(0xB10C);
  WorkloadParams wp;
  wp.txn_count = 625;
  wp.min_ops_per_txn = 16;
  wp.max_ops_per_txn = 16;
  wp.object_count = 1250;
  wp.read_ratio = 0.8;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 1.0, &rng);
  const Schedule schedule = RandomSchedule(txns, &rng);

  OnlineRsrChecker checker(txns, spec);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  const std::size_t before = g_alloc_bytes;
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    const Operation& op = schedule.op(pos);
    if (dead[op.txn] == 0 && !checker.TryAppend(op)) dead[op.txn] = 1;
  }
  const std::size_t fed_bytes = g_alloc_bytes - before;
  const std::size_t row_bytes = checker.pool_rows() * txns.txn_count() *
                                sizeof(OnlineRsrChecker::AncestorColumn);
  ASSERT_GT(row_bytes, 0u);
  const double ratio =
      static_cast<double>(fed_bytes) / static_cast<double>(row_bytes);
  RecordProperty("feed_bytes_per_row_byte", std::to_string(ratio));
  EXPECT_LE(ratio, kMaxFeedBytesPerRowByte)
      << fed_bytes << " bytes allocated for " << checker.pool_rows()
      << " rows";
}

// Validation must actually reject malformed traces, not just accept
// everything (guards the guard).
TEST(TraceSchema, ValidatorRejectsMalformedEvents) {
  const char* header =
      "{\"kind\":\"header\",\"version\":1,\"format\":\"relser-trace\","
      "\"txn_count\":3,\"events\":2}\n";
  EXPECT_FALSE(ValidateTraceJsonl("").ok);
  EXPECT_FALSE(ValidateTraceJsonl("not json\n").ok);
  EXPECT_FALSE(ValidateTraceJsonl(
                   std::string(header) +
                   "{\"seq\":0,\"tick\":0,\"txn\":1}\n")
                   .ok);
  // Decision events require op fields and latency.
  EXPECT_FALSE(ValidateTraceJsonl(
                   std::string(header) +
                   "{\"seq\":0,\"tick\":0,\"kind\":\"admit\",\"txn\":1}\n")
                   .ok);
  // Sequence numbers must strictly increase.
  const std::string dup_seq =
      std::string(header) +
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n"
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":2}\n";
  EXPECT_FALSE(ValidateTraceJsonl(dup_seq).ok);
  // A well-formed minimal trace passes.
  const std::string good =
      std::string(header) +
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n"
      "{\"seq\":1,\"tick\":0,\"kind\":\"commit\",\"txn\":2}\n";
  EXPECT_TRUE(ValidateTraceJsonl(good).ok);
  // The header is not optional, and its version must match this build.
  EXPECT_FALSE(ValidateTraceJsonl(
                   "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n")
                   .ok);
  EXPECT_FALSE(ValidateTraceJsonl(
                   "{\"kind\":\"header\",\"version\":999,"
                   "\"format\":\"relser-trace\"}\n")
                   .ok);
}

// No writer emits version_prune any more, but version-1 readers accept
// every version-1 kind: an older trace carrying one still validates and
// its count is still tallied.
TEST(TraceSchema, RetiredVersionPruneKindStillReads) {
  const std::string trace =
      "{\"kind\":\"header\",\"version\":1,\"format\":\"relser-trace\","
      "\"txn_count\":2,\"events\":3}\n"
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n"
      "{\"seq\":1,\"tick\":1,\"kind\":\"version_prune\",\"txn\":0,"
      "\"count\":7}\n"
      "{\"seq\":2,\"tick\":2,\"kind\":\"version_prune\",\"txn\":0,"
      "\"count\":5}\n";
  const TraceValidation validation = ValidateTraceJsonl(trace);
  EXPECT_TRUE(validation.ok) << (validation.errors.empty()
                                     ? "unknown"
                                     : validation.errors.front());
  const TraceSummary summary = SummarizeTraceJsonl(trace);
  EXPECT_EQ(summary.events, 3u);
  EXPECT_EQ(summary.versions_pruned, 12u);
  EXPECT_EQ(summary.commits, 1u);
  // The count is required, as for every count-carrying epoch-GC kind.
  EXPECT_FALSE(ValidateTraceJsonl(
                   "{\"kind\":\"header\",\"version\":1,"
                   "\"format\":\"relser-trace\",\"txn_count\":2,"
                   "\"events\":1}\n"
                   "{\"seq\":0,\"tick\":0,\"kind\":\"version_prune\","
                   "\"txn\":0}\n")
                   .ok);
}

}  // namespace
}  // namespace relser

// Global counting operator new/delete (outside any namespace). Kept
// out-of-line so the optimizer cannot pair an inlined malloc with a
// caller's sized delete and raise -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++relser::g_alloc_count;
  relser::g_alloc_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  ++relser::g_alloc_count;
  relser::g_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
__attribute__((noinline)) void operator delete(
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
