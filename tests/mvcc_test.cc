// Tests for the MVCC snapshot-read fast path (core/mvcc/):
//
//   * VersionStore unit behavior — settledness counters, watermark,
//     escalation counting.
//   * The write-skew shape: a read-only transaction raced by live
//     writers of its read set MUST escalate; once the writers have
//     finished it snapshot-admits arc-free.
//   * Differential soundness: >= 500 randomized workloads through the
//     SnapshotRsrChecker facade; every merged committed history must
//     replay relatively serializably through a fresh single-version
//     checker, and fully-committed histories are additionally checked
//     against the brute-force oracle (core/brute.h).
//   * Ratio-0 bit-identity: with no read-only transactions the fast
//     path is invisible in ShardedAdmitter, decision for decision,
//     under a deterministic lock-step feed.
//   * Concurrent stress (run under TSan in ci.sh): a client fleet over
//     the admitter with snapshot_reads on; replay + completeness.
//   * Trace round-trip: snapshot_read events validate against the
//     trace-format schema, summarize, and ingest into the auditor.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audit/ingest.h"
#include "core/brute.h"
#include "core/mvcc/snapshot.h"
#include "core/mvcc/version_store.h"
#include "core/online.h"
#include "exec/backoff.h"
#include "model/op_indexer.h"
#include "model/schedule.h"
#include "obs/export.h"
#include "obs/inspect.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "spec/atomicity_spec.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TEST(VersionStore, SettlednessAndWatermark) {
  TransactionSet txns;
  txns.AddObjects(2);
  Transaction* t0 = txns.AddTransaction();  // writer of x
  t0->Write(0);
  Transaction* t1 = txns.AddTransaction();  // reads x: unsettled until T0 ends
  t1->Read(0);
  Transaction* t2 = txns.AddTransaction();  // reads y: no static writer
  t2->Read(1);

  VersionStore store(txns);
  EXPECT_FALSE(store.IsReadOnly(0));
  EXPECT_TRUE(store.IsReadOnly(1));
  EXPECT_TRUE(store.IsReadOnly(2));
  EXPECT_EQ(store.UnfinishedWriters(0), 1u);
  EXPECT_EQ(store.UnfinishedWriters(1), 0u);
  EXPECT_FALSE(store.ReadSetSettled(1));
  EXPECT_TRUE(store.ReadSetSettled(2));
  EXPECT_EQ(store.watermark(), 0u);

  store.NoteCommit(0);
  EXPECT_EQ(store.watermark(), 1u);
  EXPECT_TRUE(store.ReadSetSettled(1));
  EXPECT_EQ(store.UnfinishedWriters(0), 0u);
  // Idempotent: a second NoteCommit must not double-decrement or
  // double-count.
  store.NoteCommit(0);
  EXPECT_EQ(store.watermark(), 1u);
  EXPECT_EQ(store.UnfinishedWriters(0), 0u);
}

TEST(VersionStore, AbortSettlesWithoutVersions) {
  TransactionSet txns;
  txns.AddObjects(1);
  Transaction* t0 = txns.AddTransaction();
  t0->Write(0);
  Transaction* t1 = txns.AddTransaction();
  t1->Read(0);

  VersionStore store(txns);
  EXPECT_FALSE(store.ReadSetSettled(1));
  store.NoteAbort(0);
  // An aborted writer settles the read set but is no commit.
  EXPECT_TRUE(store.ReadSetSettled(1));
  EXPECT_EQ(store.watermark(), 0u);
}

TEST(VersionStore, EscalationCountsOnce) {
  TransactionSet txns;
  txns.AddObjects(1);
  Transaction* t0 = txns.AddTransaction();
  t0->Read(0);

  VersionStore store(txns);
  EXPECT_TRUE(store.TryCountEscalation(0));
  EXPECT_FALSE(store.TryCountEscalation(0));
  EXPECT_EQ(store.snapshot_escalations(), 1u);
}

// The write-skew shape: T0: r(x) w(y); T1: r(y) w(x); R: r(x) r(y).
// While either writer is unfinished R must escalate; with both writers
// finished R snapshot-admits and contributes zero arcs.
TransactionSet WriteSkewSet() {
  TransactionSet txns;
  txns.AddObjects(2);  // 0 = x, 1 = y
  Transaction* t0 = txns.AddTransaction();
  t0->Read(0);
  t0->Write(1);
  Transaction* t1 = txns.AddTransaction();
  t1->Read(1);
  t1->Write(0);
  Transaction* reader = txns.AddTransaction();
  reader->Read(0);
  reader->Read(1);
  return txns;
}

TEST(SnapshotChecker, WriteSkewReaderEscalatesWhileWritersLive) {
  const TransactionSet txns = WriteSkewSet();
  const AtomicitySpec spec(txns);
  SnapshotRsrChecker checker(txns, spec);
  // Writers have started but not finished when R classifies.
  ASSERT_TRUE(checker.Submit(txns.txn(0).op(0)).ok());
  ASSERT_TRUE(checker.Submit(txns.txn(1).op(0)).ok());
  ASSERT_TRUE(checker.Submit(txns.txn(2).op(0)).ok());
  EXPECT_EQ(checker.Classification(2),
            SnapshotRsrChecker::TxnClass::kEscalated);
  EXPECT_EQ(checker.snapshot_admits(), 0u);
  EXPECT_EQ(checker.snapshot_escalations(), 1u);
}

TEST(SnapshotChecker, WriteSkewReaderSnapshotAdmitsOnceWritersFinished) {
  const TransactionSet txns = WriteSkewSet();
  const AtomicitySpec spec(txns);
  SnapshotRsrChecker checker(txns, spec);
  for (TxnId t = 0; t < 2; ++t) {
    for (const Operation& op : txns.txn(t).ops()) {
      ASSERT_TRUE(checker.Submit(op).ok());
    }
    ASSERT_TRUE(checker.TxnCommitted(t));
  }
  const std::size_t arcs_before_reader = checker.checker_arcs_submitted();
  ASSERT_TRUE(checker.Submit(txns.txn(2).op(0)).ok());
  ASSERT_TRUE(checker.Submit(txns.txn(2).op(1)).ok());
  EXPECT_EQ(checker.Classification(2), SnapshotRsrChecker::TxnClass::kSnapshot);
  EXPECT_TRUE(checker.TxnCommitted(2));
  EXPECT_EQ(checker.snapshot_admits(), 1u);
  // Zero arcs from the snapshot admission.
  EXPECT_EQ(checker.checker_arcs_submitted(), arcs_before_reader);

  // The merged history replays through a fresh single-version checker.
  const std::vector<Operation> log = checker.CommittedLog();
  EXPECT_EQ(log.size(), 6u);
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : log) ASSERT_TRUE(replay.TryAppend(op).ok());
}

// Differential soundness over >= 500 randomized workloads: the facade's
// merged committed history must always replay through a fresh
// single-version checker; fully-committed histories must additionally
// satisfy the brute-force relative-serializability oracle.
TEST(SnapshotChecker, DifferentialVsReplayAndBruteForce) {
  const Rng base(0x36CCD1FFULL);
  std::size_t snapshot_admits_total = 0;
  std::size_t escalations_total = 0;
  std::size_t brute_checked = 0;
  for (std::size_t iter = 0; iter < 500; ++iter) {
    Rng rng = base.Split(iter);
    WorkloadParams wp;
    wp.txn_count = 4;
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 4;
    wp.object_count = 2 + iter % 5;
    wp.read_ratio = 0.6;
    wp.read_only_txn_ratio = 0.5;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const Schedule feed = RandomSchedule(txns, &rng);

    SnapshotRsrChecker checker(txns, spec);
    for (const Operation& op : feed.ops()) checker.Submit(op);
    snapshot_admits_total += checker.snapshot_admits();
    escalations_total += checker.snapshot_escalations();

    const std::vector<Operation> log = checker.CommittedLog();
    OnlineRsrChecker replay(txns, spec);
    std::vector<std::uint32_t> ops_of(txns.txn_count(), 0);
    for (const Operation& op : log) {
      ASSERT_TRUE(replay.TryAppend(op).ok())
          << "iter " << iter << ": merged history replay rejected";
      ++ops_of[op.txn];
    }
    bool all_committed = true;
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (checker.TxnCommitted(t)) {
        ASSERT_EQ(ops_of[t], txns.txn(t).size()) << "iter " << iter;
      } else {
        ASSERT_EQ(ops_of[t], 0u) << "iter " << iter;
        all_committed = false;
      }
    }
    if (!all_committed) continue;
    // Complete history: the brute-force oracle must agree it is
    // relatively serializable.
    auto schedule = Schedule::Over(txns, log);
    ASSERT_TRUE(schedule.ok()) << "iter " << iter;
    const BruteForceResult verdict = BruteForceRelativelySerializable(
        txns, *schedule, spec, /*max_states=*/500000);
    ASSERT_TRUE(verdict.decided.has_value()) << "iter " << iter;
    EXPECT_TRUE(verdict.IsYes())
        << "iter " << iter << ": admitted a non-RSR history";
    ++brute_checked;
  }
  // The sweep must actually exercise both paths and the oracle.
  EXPECT_GT(snapshot_admits_total, 100u);
  EXPECT_GT(escalations_total, 20u);
  EXPECT_GT(brute_checked, 100u);
}

// Ratio 0 (every transaction has a writer): the fast path must be
// bit-invisible under a lock-step deterministic feed.
bool LockStepIdentical(const TransactionSet& txns, ShardedAdmitter& on,
                       ShardedAdmitter& off, std::size_t round) {
  std::vector<std::uint32_t> next(txns.txn_count(), 0);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (dead[t] != 0 || next[t] >= txns.txn(t).size()) continue;
      const Operation& op = txns.txn(t).op(next[t]);
      const AdmitResult a = on.SubmitAndWait(op);
      const AdmitResult b = off.SubmitAndWait(op);
      EXPECT_EQ(a.outcome, b.outcome)
          << "round " << round << " T" << t << " op " << next[t];
      if (a.outcome != b.outcome) return false;
      ++next[t];
      if (!a.ok()) dead[t] = 1;
      progress = true;
    }
  }
  on.Stop();
  off.Stop();
  const std::vector<Operation> log_on = on.CommittedLog();
  const std::vector<Operation> log_off = off.CommittedLog();
  const OpIndexer indexer(txns);
  if (log_on.size() != log_off.size()) return false;
  for (std::size_t i = 0; i < log_on.size(); ++i) {
    if (indexer.GlobalId(log_on[i]) != indexer.GlobalId(log_off[i])) {
      return false;
    }
  }
  return true;
}

TEST(SnapshotAdmitters, RatioZeroBitIdentitySharded) {
  const Rng base(0x1D36CC02ULL);
  for (std::size_t round = 0; round < 8; ++round) {
    Rng rng = base.Split(round);
    ShardedWorkloadParams wp;
    wp.txn_count = 12;
    wp.shard_count = 4;
    wp.objects_per_shard = 4;
    wp.zipf_theta = 0.9;
    wp.read_only_txn_ratio = 0.0;
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    ShardedAdmitterOptions on_opts;
    on_opts.snapshot_reads = true;
    ShardedAdmitter on(
        txns, spec,
        ShardRouter(txns.object_count(), 4, ShardStrategy::kRange), on_opts);
    ShardedAdmitter off(
        txns, spec,
        ShardRouter(txns.object_count(), 4, ShardStrategy::kRange));
    EXPECT_TRUE(LockStepIdentical(txns, on, off, round));
  }
}

// Concurrent stress with the fast path on (exercised under TSan by
// ci.sh): a client fleet over a read-heavy workload; the merged
// committed history must replay, complete, through a fresh checker.
void FleetAndGate(const TransactionSet& txns, const AtomicitySpec& spec,
                  ShardedAdmitter& admitter, std::size_t clients,
                  std::uint64_t seed) {
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      Backoff backoff(seed ^ (0xF1EE7000ULL + c));
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + clients)) {
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok()) {
            break;
          }
        }
        backoff.Reset();
      }
    });
  }
  for (std::thread& client : fleet) client.join();
  admitter.Stop();

  const std::vector<Operation> log = admitter.CommittedLog();
  OnlineRsrChecker replay(txns, spec);
  std::vector<std::uint32_t> ops_of(txns.txn_count(), 0);
  for (const Operation& op : log) {
    ASSERT_TRUE(replay.TryAppend(op).ok()) << "merged history replay rejected";
    ++ops_of[op.txn];
  }
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (admitter.TxnCommitted(t)) {
      EXPECT_EQ(ops_of[t], txns.txn(t).size()) << "T" << t;
    } else {
      EXPECT_EQ(ops_of[t], 0u) << "T" << t;
    }
  }
}

TEST(SnapshotAdmitters, ShardedFleetReadHeavySound) {
  Rng rng(0x5EED36CDULL);
  ShardedWorkloadParams wp;
  wp.txn_count = 256;
  wp.shard_count = 4;
  wp.objects_per_shard = 64;
  wp.read_ratio = 0.6;
  wp.read_only_txn_ratio = 0.9;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 4, ShardStrategy::kRange),
      options);
  FleetAndGate(txns, spec, admitter, 4, 0xC0FFEFULL);
  EXPECT_GT(admitter.snapshot_admits(), 0u);
}

// The stamp-order contract (ShardedAdmitter::Submit): a snapshot
// reader's stamp exceeds the stamp of every operation of every committed
// writer of its read set, so CommittedLog places the reader's whole
// block after all of them.
TEST(SnapshotAdmitters, SnapshotBlocksFollowTheirCommittedWriters) {
  Rng rng(0x5B10C4EDULL);
  ShardedWorkloadParams wp;
  wp.txn_count = 256;
  wp.shard_count = 4;
  wp.objects_per_shard = 16;
  wp.zipf_theta = 0.8;
  wp.read_ratio = 0.6;
  wp.read_only_txn_ratio = 0.6;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  options.tracer = &tracer;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 4, ShardStrategy::kRange),
      options);
  FleetAndGate(txns, spec, admitter, 4, 0xB10C4ULL);
  if (HasFatalFailure()) return;

  constexpr std::size_t kAbsent = ~static_cast<std::size_t>(0);
  const std::vector<Operation> log = admitter.CommittedLog();
  std::vector<std::size_t> first(txns.txn_count(), kAbsent);
  std::vector<std::size_t> last(txns.txn_count(), 0);
  for (std::size_t pos = 0; pos < log.size(); ++pos) {
    if (first[log[pos].txn] == kAbsent) first[log[pos].txn] = pos;
    last[log[pos].txn] = pos;
  }
  std::vector<std::vector<TxnId>> writers_of(txns.object_count());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (!admitter.TxnCommitted(t)) continue;
    for (const Operation& op : txns.txn(t).ops()) {
      if (op.is_write()) writers_of[op.object].push_back(t);
    }
  }
  std::size_t readers = 0;
  std::size_t pairs = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind != TraceEventKind::kSnapshotRead) continue;
    const TxnId reader = event.txn;
    ASSERT_NE(first[reader], kAbsent) << "snapshot reader T" << reader;
    ++readers;
    for (const Operation& op : txns.txn(reader).ops()) {
      for (const TxnId writer : writers_of[op.object]) {
        EXPECT_LT(last[writer], first[reader])
            << "T" << reader << " reads object " << op.object
            << " written by T" << writer;
        ++pairs;
      }
    }
  }
  EXPECT_EQ(readers, admitter.snapshot_admits());
  EXPECT_GT(pairs, 0u);
}

// snapshot_read events survive the full observability round-trip:
// schema validation, summary, and auditor ingestion.
TEST(SnapshotAdmitters, TraceRoundTripWithSnapshotReads) {
  Rng rng(0x7ACE36CCULL);
  WorkloadParams wp;
  wp.txn_count = 32;
  wp.object_count = 64;
  wp.read_only_txn_ratio = 0.8;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  options.tracer = &tracer;
  {
    ShardedAdmitter admitter(
        txns, spec, ShardRouter(txns.object_count(), 1, ShardStrategy::kRange),
        options);
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      for (const Operation& op : txns.txn(t).ops()) {
        if (!admitter.SubmitAndWait(op).ok()) break;
      }
    }
    admitter.Stop();
    ASSERT_GT(admitter.snapshot_admits(), 0u);
  }
  const std::string jsonl = TraceToJsonl(tracer, txns);
  const TraceValidation validation = ValidateTraceJsonl(jsonl);
  EXPECT_TRUE(validation.ok) << (validation.errors.empty()
                                     ? "unknown"
                                     : validation.errors.front());
  const TraceSummary summary = SummarizeTraceJsonl(jsonl);
  EXPECT_GT(summary.snapshot_reads, 0u);
  // The auditor ingests the trace (snapshot_read lines are skipped as
  // non-admission events, not rejected).
  const auto audit_input = IngestHistoryText(jsonl);
  EXPECT_TRUE(audit_input.ok()) << audit_input.status().ToString();
}

}  // namespace
}  // namespace relser
