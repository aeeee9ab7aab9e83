// Tests for the MVCC snapshot-read fast path (core/mvcc/):
//
//   * VersionStore unit behavior — settledness counters, watermark,
//     escalation counting.
//   * The write-skew shape, on one ShardedAdmitter shard: a read-only
//     transaction raced by live writers of its read set MUST escalate
//     to the shard; once the writers have finished it snapshot-admits
//     without reaching the shard.
//   * Differential soundness: 500 randomized workloads through
//     ShardedAdmitter with snapshot reads on, for each of {1, 2} shards
//     x epoch GC off/on; every merged committed history must replay
//     relatively serializably through a fresh single-version checker,
//     and fully-committed histories are additionally checked against
//     the brute-force oracle (core/brute.h).
//   * Ratio-0 bit-identity: with no read-only transactions the fast
//     path is invisible in ShardedAdmitter, decision for decision,
//     under a deterministic lock-step feed.
//   * Concurrent stress (run under TSan in ci.sh): client fleets over
//     a shards x read-only ratio x snapshot on/off grid; replay +
//     completeness in every cell, and an all-readers workload admitted
//     entirely by the fast path with zero arcs.
//   * Work saving: at read-only ratio 0.95 the shards decide at most a
//     third of the operations they decide with the fast path off.
//   * Trace round-trip: snapshot_read events validate against the
//     trace-format schema, summarize, and ingest into the auditor.
#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audit/ingest.h"
#include "core/brute.h"
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

// One range shard with the fast path on: the plain single-core
// certifier plus client-side classification.
ShardedAdmitter OneShardSnapshotAdmitter(const TransactionSet& txns,
                                         const AtomicitySpec& spec) {
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  return ShardedAdmitter(
      txns, spec, ShardRouter(txns.object_count(), 1, ShardStrategy::kRange),
      options);
}

TEST(SnapshotAdmitter, WriteSkewReaderEscalatesWhileWritersLive) {
  const TransactionSet txns = WriteSkewSet();
  const AtomicitySpec spec(txns);
  ShardedAdmitter admitter = OneShardSnapshotAdmitter(txns, spec);
  // Writers have started but not finished when R classifies.
  ASSERT_TRUE(admitter.SubmitAndWait(txns.txn(0).op(0)).ok());
  ASSERT_TRUE(admitter.SubmitAndWait(txns.txn(1).op(0)).ok());
  ASSERT_TRUE(admitter.SubmitAndWait(txns.txn(2).op(0)).ok());
  EXPECT_EQ(admitter.snapshot_admits(), 0u);
  EXPECT_EQ(admitter.snapshot_escalations(), 1u);
  admitter.Stop();
  // The reader's operation went to the shard with the writers'.
  EXPECT_EQ(admitter.shard_stats(0).ops_routed, 3u);
}

TEST(SnapshotAdmitter, WriteSkewReaderSnapshotAdmitsOnceWritersFinished) {
  const TransactionSet txns = WriteSkewSet();
  const AtomicitySpec spec(txns);
  ShardedAdmitter admitter = OneShardSnapshotAdmitter(txns, spec);
  for (TxnId t = 0; t < 2; ++t) {
    for (const Operation& op : txns.txn(t).ops()) {
      ASSERT_TRUE(admitter.SubmitAndWait(op).ok());
    }
    ASSERT_TRUE(admitter.TxnCommitted(t));
  }
  ASSERT_TRUE(admitter.SubmitAndWait(txns.txn(2).op(0)).ok());
  ASSERT_TRUE(admitter.SubmitAndWait(txns.txn(2).op(1)).ok());
  EXPECT_TRUE(admitter.TxnCommitted(2));
  EXPECT_EQ(admitter.snapshot_admits(), 1u);
  EXPECT_EQ(admitter.snapshot_escalations(), 0u);
  admitter.Stop();
  // Only the writers' operations reached the shard: the snapshot
  // admission added no arcs.
  EXPECT_EQ(admitter.shard_stats(0).ops_routed, 4u);

  // The merged history replays through a fresh single-version checker.
  const std::vector<Operation> log = admitter.CommittedLog();
  EXPECT_EQ(log.size(), 6u);
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : log) ASSERT_TRUE(replay.TryAppend(op).ok());
}

// Differential soundness over 500 randomized workloads per admitter
// configuration ({1, 2} range shards x epoch GC off / on), fed by one
// client in a random interleaving that skips a transaction's later
// operations once one is refused: the admitter's merged committed
// history must always replay through a fresh single-version checker;
// fully-committed histories must additionally satisfy the brute-force
// relative-serializability oracle.
TEST(SnapshotAdmitter, DifferentialVsReplayAndBruteForce) {
  for (const std::uint32_t shards : {1u, 2u}) {
    for (const bool gc : {false, true}) {
      SCOPED_TRACE(testing::Message() << shards << " shards, epoch GC "
                                      << (gc ? "on" : "off"));
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

        ShardedAdmitterOptions options;
        options.snapshot_reads = true;
        options.epoch_gc = gc;
        options.gc_interval = 2;
        ShardedAdmitter admitter(
            txns, spec,
            ShardRouter(txns.object_count(), shards, ShardStrategy::kRange),
            options);
        std::vector<std::uint8_t> refused(txns.txn_count(), 0);
        for (const Operation& op : feed.ops()) {
          if (refused[op.txn] != 0) continue;
          if (!admitter.SubmitAndWait(op).ok()) refused[op.txn] = 1;
        }
        admitter.Stop();
        snapshot_admits_total += admitter.snapshot_admits();
        escalations_total += admitter.snapshot_escalations();

        const std::vector<Operation> log = admitter.CommittedLog();
        OnlineRsrChecker replay(txns, spec);
        std::vector<std::uint32_t> ops_of(txns.txn_count(), 0);
        for (const Operation& op : log) {
          ASSERT_TRUE(replay.TryAppend(op).ok())
              << "iter " << iter << ": merged history replay rejected";
          ++ops_of[op.txn];
        }
        bool all_committed = true;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (admitter.TxnCommitted(t)) {
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
  }
}

// Lock-step deterministic feed: one operation of each live transaction
// per round, in transaction order, until every transaction has finished
// or had an operation refused. `submit` returns whether its operation
// was admitted.
template <typename Submit>
void LockStepFeed(const TransactionSet& txns, Submit submit) {
  std::vector<std::uint32_t> next(txns.txn_count(), 0);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (dead[t] != 0 || next[t] >= txns.txn(t).size()) continue;
      if (!submit(txns.txn(t).op(next[t]++))) dead[t] = 1;
      progress = true;
    }
  }
}

// Ratio 0 (every transaction has a writer): the fast path must be
// bit-invisible under a lock-step deterministic feed.
bool LockStepIdentical(const TransactionSet& txns, ShardedAdmitter& on,
                       ShardedAdmitter& off, std::size_t round) {
  bool same = true;
  LockStepFeed(txns, [&](const Operation& op) {
    if (!same) return false;
    const AdmitResult a = on.SubmitAndWait(op);
    const AdmitResult b = off.SubmitAndWait(op);
    EXPECT_EQ(a.outcome, b.outcome)
        << "round " << round << " T" << op.txn << " op " << op.index;
    same = a.outcome == b.outcome;
    return same && a.ok();
  });
  on.Stop();
  off.Stop();
  if (!same) return false;
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

// The fast path over a shards x read-only ratio x on/off grid: every
// cell's merged committed history replays, complete, through a fresh
// checker. An all-readers workload is admitted entirely by the fast
// path, with no arc reaching any shard's checker.
TEST(SnapshotAdmitters, FleetGridSoundAndAllReadersArcFree) {
  std::uint64_t cell = 0;
  for (const std::uint32_t shards : {1u, 4u}) {
    for (const double ratio : {0.0, 0.95, 1.0}) {
      const std::uint64_t seed = 0x36CC0000ULL + 977 * ++cell;
      Rng rng(seed);
      ShardedWorkloadParams wp;
      wp.txn_count = 128;
      wp.min_ops_per_txn = 2;
      wp.max_ops_per_txn = 5;
      wp.shard_count = shards;
      wp.objects_per_shard = 256 / shards;
      wp.read_ratio = 0.6;
      wp.read_only_txn_ratio = ratio;
      const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
      const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
      for (const bool snapshot_on : {false, true}) {
        SCOPED_TRACE(testing::Message() << shards << " shards, ratio "
                                        << ratio << ", snapshot reads "
                                        << (snapshot_on ? "on" : "off"));
        ShardedAdmitterOptions options;
        options.snapshot_reads = snapshot_on;
        ShardedAdmitter admitter(
            txns, spec,
            ShardRouter(txns.object_count(), shards, ShardStrategy::kRange),
            options);
        FleetAndGate(txns, spec, admitter, 4, seed);
        if (HasFatalFailure()) return;
        if (!snapshot_on || ratio != 1.0) continue;
        EXPECT_EQ(admitter.snapshot_admits(), txns.txn_count());
        for (std::uint32_t shard = 0; shard < shards; ++shard) {
          EXPECT_EQ(admitter.checker(shard).arcs_submitted(), 0u)
              << "shard " << shard;
        }
      }
    }
  }
}

// The fast path's work saving, counted rather than timed: on a
// read-heavy workload (95% read-only transactions) under a lock-step
// single-client feed, the shards decide at most a third of the
// operations they decide with snapshot reads off. Measured: 227/1784,
// 348/1763 and 207/1808 operations on the three seeds.
std::size_t LockStepOpsRouted(const TransactionSet& txns,
                              const AtomicitySpec& spec, bool snapshot_on) {
  ShardedAdmitterOptions options;
  options.snapshot_reads = snapshot_on;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 1, ShardStrategy::kRange),
      options);
  LockStepFeed(txns, [&](const Operation& op) {
    return admitter.SubmitAndWait(op).ok();
  });
  admitter.Stop();
  return admitter.shard_stats(0).ops_routed;
}

TEST(SnapshotAdmitters, ReadHeavyFastPathRoutesAThirdOfTheOps) {
  for (std::uint64_t k = 1; k <= 3; ++k) {
    Rng rng(0x36CC0000ULL + 977 * k);
    WorkloadParams wp;
    wp.txn_count = 512;
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 5;
    wp.object_count = 1024;
    wp.read_ratio = 0.6;
    wp.read_only_txn_ratio = 0.95;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const std::size_t on = LockStepOpsRouted(txns, spec, true);
    const std::size_t off = LockStepOpsRouted(txns, spec, false);
    EXPECT_LE(3 * on, off) << "seed offset " << k << ": " << on << " vs "
                           << off << " operations routed";
  }
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

// With epoch GC on and committed_log off, the snapshot-admit log holds
// only unsettled readers: GC drops settled records the way it drops
// settled accept-log entries, while snapshot_admits() and the tracer
// still count every admit. Eight writers finish first; thousands of
// single-read readers of their objects then snapshot-admit, and a
// one-write ticker transaction every 16 readers steps a shard core so
// GC ticks.
TEST(SnapshotAdmitters, SettledAdmitRecordsLeaveTheLogUnderGc) {
  constexpr std::size_t kReaders = 4096;
  constexpr std::size_t kTickEvery = 16;
  TransactionSet txns;
  txns.AddObjects(16);  // 0-7 read by readers, 8-15 written by tickers
  for (ObjectId o = 0; o < 8; ++o) {
    Transaction* writer = txns.AddTransaction();
    writer->Read(o);
    writer->Write(o);
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    if (r % kTickEvery == 0) {
      Transaction* ticker = txns.AddTransaction();
      ticker->Write(static_cast<ObjectId>(8 + (r / kTickEvery) % 8));
    }
    txns.AddTransaction()->Read(static_cast<ObjectId>(r % 8));
  }
  const AtomicitySpec spec(txns);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  options.epoch_gc = true;
  options.gc_interval = 64;
  options.committed_log = false;
  options.tracer = &tracer;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 2, ShardStrategy::kRange),
      options);
  std::size_t log_high_water = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    for (const Operation& op : txns.txn(t).ops()) {
      ASSERT_TRUE(admitter.SubmitAndWait(op).ok()) << "T" << t;
    }
    log_high_water = std::max(
        log_high_water, admitter.version_store()->SnapshotAdmits().size());
  }
  admitter.Stop();
  EXPECT_EQ(admitter.snapshot_admits(), kReaders);
  EXPECT_LT(log_high_water, kReaders / 16) << "admit log grew unbounded";
  EXPECT_LT(admitter.version_store()->SnapshotAdmits().size(), kReaders / 16);
  EXPECT_EQ(tracer.counters().snapshot_admits, kReaders);
  EXPECT_EQ(tracer.counters().commits, txns.txn_count());
  std::size_t snapshot_events = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind == TraceEventKind::kSnapshotRead) ++snapshot_events;
  }
  EXPECT_EQ(snapshot_events, kReaders);
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
