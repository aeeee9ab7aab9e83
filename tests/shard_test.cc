// Sharded admission subsystem tests (src/shard/): router partitioning
// and load distribution under Zipf skew, per-shard projection
// correctness (transactions and atomicity specs), the cross-shard
// coordinator's cycle/dead/dedup semantics, deterministic cross-shard
// reject and abort-cascade scenarios on the ShardedAdmitter, fault-plan
// driven backpressure/timeouts, and the single-shard gate: one shard
// decides exactly as a serial model of the abort-and-cascade policy, on
// dense and on sparse workloads. Caller-runs admission (a submitter
// deciding on its own thread under the shard's token) is checked for
// repeatable single-client decisions, for a contended client fleet that
// mixes it with the inbox fallback (also under TSan in ci.sh), and for
// liveness without any admitter thread:
// a kill posted to an idle shard, a timed-out waiter left in the inbox,
// and a client abort on a busy shard are all resolved by the token
// release re-check or the try after a post. queue_capacity is checked as
// an exact bound on queued operations, and the shard_route trace event
// as one per resident shard of each multi-shard transaction.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "model/op_indexer.h"
#include "model/text.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/projection.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/generator.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TEST(ShardRouterTest, RangeStrategyAssignsContiguousBalancedRanges) {
  const ShardRouter router(64, 4, ShardStrategy::kRange);
  EXPECT_EQ(router.shard_count(), 4u);
  EXPECT_EQ(router.object_count(), 64u);
  // Contiguous: shard ids are non-decreasing across the object space,
  // and with objects_per_shard = 16 the boundaries land exactly.
  for (ObjectId o = 0; o < 64; ++o) {
    EXPECT_EQ(router.ShardOf(o), o / 16) << "object " << o;
  }
  const std::vector<std::size_t> owned = router.ObjectsPerShard();
  ASSERT_EQ(owned.size(), 4u);
  for (const std::size_t n : owned) EXPECT_EQ(n, 16u);
}

TEST(ShardRouterTest, HashStrategyCoversEveryObjectDeterministically) {
  const ShardRouter a(257, 5, ShardStrategy::kHash);  // non-divisible
  const ShardRouter b(257, 5, ShardStrategy::kHash);
  std::size_t total = 0;
  for (const std::size_t n : a.ObjectsPerShard()) {
    // Multiplicative hashing spreads 257 objects well enough that no
    // shard is starved or hoards the space.
    EXPECT_GE(n, 257u / 5 / 4);
    EXPECT_LE(n, 257u * 2 / 5);
    total += n;
  }
  EXPECT_EQ(total, 257u);
  for (ObjectId o = 0; o < 257; ++o) {
    EXPECT_LT(a.ShardOf(o), 5u);
    EXPECT_EQ(a.ShardOf(o), b.ShardOf(o)) << "router must be a pure map";
  }
}

// Load distribution under Zipf skew: the empirical per-shard access
// frequency must match the exact distribution implied by composing the
// Zipf object marginals (util/zipf) with the router's object map.
TEST(ShardRouterTest, HashShardLoadMatchesZipfMarginalsUnderSkew) {
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kDraws = 20000;
  const ShardRouter router(kObjects, kShards, ShardStrategy::kHash);
  for (const double theta : {0.0, 0.9}) {
    const ZipfDistribution zipf(kObjects, theta);
    std::vector<double> exact(kShards, 0.0);
    for (std::size_t k = 0; k < kObjects; ++k) {
      exact[router.ShardOf(static_cast<ObjectId>(k))] += zipf.Probability(k);
    }
    Rng rng(0x21BF + static_cast<std::uint64_t>(theta * 10));
    std::vector<std::size_t> hits(kShards, 0);
    for (std::size_t draw = 0; draw < kDraws; ++draw) {
      ++hits[router.ShardOf(static_cast<ObjectId>(zipf.Sample(&rng)))];
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const double empirical =
          static_cast<double>(hits[shard]) / static_cast<double>(kDraws);
      EXPECT_NEAR(empirical, exact[shard], 0.03)
          << "theta " << theta << " shard " << shard;
      // Hashing keeps even the theta = 0.9 hot prefix from collapsing
      // the load onto one shard.
      EXPECT_GT(exact[shard], 0.05) << "theta " << theta;
    }
  }
}

TEST(ShardRouterTest, TxnSpansClassifiesMultiShardTransactions) {
  // 4 objects over 2 range shards: {a, b} -> 0, {c, d} -> 1.
  auto txns = ParseTransactionSet(
      "T1 = w1[a] r1[b]\n"
      "T2 = w2[a] w2[c]\n"
      "T3 = r3[d] w3[c] r3[a]\n");
  ASSERT_TRUE(txns.ok());
  const ShardRouter router(txns->object_count(), 2, ShardStrategy::kRange);
  const TxnSpans spans(*txns, router);
  EXPECT_EQ(spans.ShardsOf(0), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(spans.ShardsOf(1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(spans.ShardsOf(2), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(spans.MultiShard(0));
  EXPECT_TRUE(spans.MultiShard(1));
  EXPECT_TRUE(spans.MultiShard(2));
  EXPECT_EQ(spans.multi_shard_count(), 2u);
  EXPECT_EQ(spans.OpsOn(0, 0), 2u);
  EXPECT_EQ(spans.OpsOn(0, 1), 0u);
  EXPECT_EQ(spans.OpsOn(2, 0), 1u);
  EXPECT_EQ(spans.OpsOn(2, 1), 2u);
}

// Projection correctness on random workloads: each slice's transactions
// are exactly the owned subsequences, the index maps round-trip, and a
// projected gap carries a breakpoint iff some original gap it covers
// does.
TEST(ShardProjectionTest, SlicesMatchManualSubsequenceAndSpecWindows) {
  Rng rng(0x51CE);
  for (int round = 0; round < 50; ++round) {
    ShardedWorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(6);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 6;
    wp.shard_count = 1 + rng.UniformIndex(4);
    wp.objects_per_shard = 2 + rng.UniformIndex(3);
    wp.cross_shard_ratio = rng.UniformDouble();
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    ShardRouter router(txns.object_count(),
                       static_cast<std::size_t>(wp.shard_count),
                       rng.Bernoulli(0.5) ? ShardStrategy::kRange
                                          : ShardStrategy::kHash);
    const ShardPlan plan(txns, spec, router);
    for (std::uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
      const ShardSlice& slice = plan.slice(shard);
      ASSERT_EQ(slice.txns.txn_count(), txns.txn_count());
      ASSERT_EQ(slice.txns.object_count(), txns.object_count());
      for (ObjectId o = 0; o < txns.object_count(); ++o) {
        EXPECT_EQ(slice.txns.ObjectName(o), txns.ObjectName(o))
            << "round " << round << " shard " << shard << " object " << o;
      }
      for (TxnId t = 0; t < txns.txn_count(); ++t) {
        // Owned subsequence, in program order.
        std::vector<std::uint32_t> owned;
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (router.ShardOf(txns.txn(t).op(i).object) == shard) {
            owned.push_back(i);
          }
        }
        ASSERT_EQ(slice.txns.txn(t).size(), owned.size())
            << "round " << round << " shard " << shard << " T" << t;
        for (std::uint32_t g = 0; g < owned.size(); ++g) {
          const Operation& original = txns.txn(t).op(owned[g]);
          const Operation& projected = slice.txns.txn(t).op(g);
          EXPECT_EQ(projected.object, original.object);
          EXPECT_EQ(projected.type, original.type);
          EXPECT_EQ(slice.to_original[t][g], owned[g]);
          EXPECT_EQ(slice.to_projected[t][owned[g]], g);
          EXPECT_EQ(slice.Project(original).index, g);
        }
        // Spec windows: projected gap g spans original gaps
        // [owned[g], owned[g+1]).
        for (TxnId j = 0; j < txns.txn_count(); ++j) {
          if (j == t || owned.size() < 2) continue;
          for (std::uint32_t g = 0; g + 1 < owned.size(); ++g) {
            bool expected = false;
            for (std::uint32_t h = owned[g]; h < owned[g + 1]; ++h) {
              if (spec.HasBreakpoint(t, j, h)) expected = true;
            }
            EXPECT_EQ(slice.spec.HasBreakpoint(t, j, g), expected)
                << "round " << round << " shard " << shard << " T" << t
                << " vs T" << j << " gap " << g;
          }
        }
      }
    }
  }
}

// The projected spec, whichever way ProjectRow builds a row (word copy
// for a transaction resident in full, per-gap masks for a split row of
// at most 65 ops, the range test for a longer one), equals the per-gap
// PushForward definition.
TEST(ShardProjectionTest, ProjectedSpecEqualsPerGapPushForwardDefinition) {
  Rng rng(0xC09F);
  std::size_t resident_rows = 0;
  std::size_t split_rows = 0;
  for (int round = 0; round < 40; ++round) {
    ShardedWorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(10);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 1 + rng.UniformIndex(80);  // up to two words
    wp.shard_count = 1 + rng.UniformIndex(3);
    wp.objects_per_shard = 2 + rng.UniformIndex(4);
    wp.cross_shard_ratio = rng.UniformDouble() * 0.3;
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    const ShardPlan plan(txns, spec,
                         ShardRouter(txns.object_count(),
                                     static_cast<std::size_t>(wp.shard_count),
                                     rng.Bernoulli(0.5) ? ShardStrategy::kRange
                                                        : ShardStrategy::kHash));
    for (std::uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
      const ShardSlice& slice = plan.slice(shard);
      AtomicitySpec expected(slice.txns);
      for (TxnId i = 0; i < txns.txn_count(); ++i) {
        const std::vector<std::uint32_t>& back = slice.to_original[i];
        if (back.size() < 2) continue;
        ++(back.size() == txns.txn(i).size() ? resident_rows : split_rows);
        for (TxnId j = 0; j < txns.txn_count(); ++j) {
          if (i == j) continue;
          for (std::uint32_t g = 0; g + 1 < back.size(); ++g) {
            if (spec.PushForward(i, j, back[g]) < back[g + 1]) {
              expected.SetBreakpoint(i, j, g);
            }
          }
        }
      }
      EXPECT_TRUE(slice.spec == expected)
          << "round " << round << " shard " << shard;
    }
  }
  EXPECT_GT(resident_rows, 50u);
  EXPECT_GT(split_rows, 50u);
}

TEST(ShardProjectionTest, MultiWordUnitsProjectToTheirOwnedEnds) {
  // T1 has 150 ops (a three-word breakpoint row) spread over two range
  // shards; a sparse spec gives units that cross the 64-gap word edges.
  Rng rng(0x3A7);
  TransactionSet txns;
  txns.AddObjects(4);  // objects 0-1 on shard 0, 2-3 on shard 1
  Transaction* long_txn = txns.AddTransaction();
  for (int k = 0; k < 150; ++k) {
    long_txn->Write(static_cast<ObjectId>(rng.UniformIndex(4)));
  }
  Transaction* other = txns.AddTransaction();
  other->Read(0);
  other->Write(3);
  AtomicitySpec spec(txns);
  for (std::uint32_t g = 0; g + 1 < 150; ++g) {
    if (rng.Bernoulli(0.04)) spec.SetBreakpoint(0, 1, g);
  }
  spec.SetBreakpoint(0, 1, 63);
  spec.SetBreakpoint(0, 1, 64);
  const ShardPlan plan(txns, spec,
                       ShardRouter(txns.object_count(), 2,
                                   ShardStrategy::kRange));
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    const ShardSlice& slice = plan.slice(shard);
    const std::vector<std::uint32_t>& owned = slice.to_original[0];
    ASSERT_GT(owned.size(), 64u) << "shard " << shard;
    for (std::uint32_t p = 0; p < owned.size(); ++p) {
      // The original unit of owned[p], clipped to the owned ops.
      const std::uint32_t first = spec.PullBackward(0, 1, owned[p]);
      const std::uint32_t last = spec.PushForward(0, 1, owned[p]);
      std::uint32_t first_owned = p;
      while (first_owned > 0 && owned[first_owned - 1] >= first) {
        --first_owned;
      }
      std::uint32_t last_owned = p;
      while (last_owned + 1 < owned.size() && owned[last_owned + 1] <= last) {
        ++last_owned;
      }
      EXPECT_EQ(slice.spec.PushForward(0, 1, p), last_owned)
          << "shard " << shard << " op " << p;
      EXPECT_EQ(slice.spec.PullBackward(0, 1, p), first_owned)
          << "shard " << shard << " op " << p;
      EXPECT_EQ(slice.to_original[0][slice.spec.PushForward(0, 1, p)],
                owned[last_owned]);
    }
  }
}

TEST(CrossShardCoordinatorTest, DetectsCyclesSkipsDeadAndDeduplicates) {
  CrossShardCoordinator coordinator(4, nullptr);
  EXPECT_EQ(coordinator.AddArcs(0, {{0, 1}}),
            CrossShardCoordinator::ArcResult::kOk);
  EXPECT_EQ(coordinator.AddArcs(1, {{1, 2}, {2, 3}}),
            CrossShardCoordinator::ArcResult::kOk);
  EXPECT_EQ(coordinator.arc_count(), 3u);
  EXPECT_EQ(coordinator.arcs_mirrored(), 3u);

  // 3 -> 0 closes 0 -> 1 -> 2 -> 3 into a transaction-level cycle.
  std::pair<TxnId, TxnId> witness{99, 99};
  EXPECT_EQ(coordinator.AddArcs(2, {{3, 0}}, &witness),
            CrossShardCoordinator::ArcResult::kCycle);
  EXPECT_EQ(witness, (std::pair<TxnId, TxnId>{3, 0}));
  EXPECT_EQ(coordinator.rejects(), 1u);
  EXPECT_EQ(coordinator.arc_count(), 3u) << "rejected batch retains nothing";

  // Re-submitting an already-mirrored pair is a no-op.
  EXPECT_EQ(coordinator.AddArcs(0, {{1, 2}}),
            CrossShardCoordinator::ArcResult::kOk);
  EXPECT_EQ(coordinator.arcs_mirrored(), 3u);

  // Killing T1 tombstones it but its arcs persist (durable-arc
  // discipline): the path 0 => 3 through the dead transaction still
  // pins the former cycle shut.
  coordinator.MarkDead(1);
  EXPECT_TRUE(coordinator.Dead(1));
  EXPECT_EQ(coordinator.arc_count(), 3u);
  EXPECT_EQ(coordinator.AddArcs(2, {{3, 0}}),
            CrossShardCoordinator::ArcResult::kCycle);
  EXPECT_EQ(coordinator.rejects(), 2u);
  // Arcs with a dead endpoint are still accepted...
  EXPECT_EQ(coordinator.AddArcs(0, {{0, 2}}),
            CrossShardCoordinator::ArcResult::kOk);
  EXPECT_EQ(coordinator.arc_count(), 4u);
  // ...but a dead *issuer* is told so.
  EXPECT_EQ(coordinator.AddArcs(1, {{2, 0}}),
            CrossShardCoordinator::ArcResult::kDead);
  coordinator.MarkDead(1);  // idempotent
  EXPECT_EQ(coordinator.arc_count(), 4u);
}

// The canonical cross-shard conflict the per-shard checkers cannot see:
// two multi-shard writers ordered oppositely on two shards. The
// coordinator must reject the arc batch that closes the
// transaction-level cycle, and the admitter must turn that into an
// all-or-nothing abort of the issuing transaction.
TEST(ShardedAdmitterTest, CoordinatorRejectsCrossShardWriteSkew) {
  // 2 objects over 2 range shards: a -> 0, b -> 1.
  auto txns = ParseTransactionSet(
      "T1 = w1[a] w1[b]\n"
      "T2 = w2[b] w2[a]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  ShardedAdmitter admitter(
      *txns, spec, ShardRouter(2, 2, ShardStrategy::kRange), options);

  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[a]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // w2[b]
  // w1[b] conflicts behind T2 on shard 1: mirrors T2 -> T1, commits T1.
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));
  EXPECT_TRUE(admitter.TxnCommitted(0));
  // w2[a] would mirror T1 -> T2: transaction-level cycle.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(1)), AdmitOutcome::kReject);
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kAborted);
  admitter.Stop();

  EXPECT_EQ(admitter.coordinator().rejects(), 1u);
  EXPECT_TRUE(admitter.coordinator().Dead(1));
  EXPECT_EQ(admitter.accepted(), 3u);
  EXPECT_EQ(tracer.counters().coordinator_rejects, 1u);
  EXPECT_EQ(tracer.counters().cross_shard_arcs, 1u);  // only T2 -> T1 landed
  EXPECT_EQ(tracer.counters().commits, 1u);
  EXPECT_EQ(tracer.counters().aborts, 1u);
  // Both shard cores saw traffic; the committed history is just T1.
  EXPECT_EQ(admitter.shard_stats(0).ops_routed +
                admitter.shard_stats(1).ops_routed,
            4u);
  const std::vector<Operation> log = admitter.CommittedLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].txn, 0u);
  EXPECT_EQ(log[1].txn, 0u);
}

// A client abort of a multi-shard transaction must withdraw it from
// every resident shard and cascade to live dirty readers wherever they
// live, while committed dirty readers are counted unrecoverable.
TEST(ShardedAdmitterTest, CrossShardAbortCascadesToRemoteDirtyReaders) {
  // 4 objects over 2 range shards: {p, a} -> 0, {b, c} -> 1.
  auto txns = ParseTransactionSet(
      "T1 = w1[p] w1[p]\n"
      "T2 = w2[a] w2[b] w2[a]\n"
      "T3 = r3[b] w3[c] w3[c]\n"
      "T4 = r4[a]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  ShardedAdmitter admitter(
      *txns, spec, ShardRouter(4, 2, ShardStrategy::kRange), options);

  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));  // T1 commits
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // w2[a], shard 0
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[b], shard 1
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(0)));  // r3[b]: dirty
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(1)));  // w3[c]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(3).op(0)));  // r4[a]: dirty,
  EXPECT_TRUE(admitter.TxnCommitted(3));                    // commits anyway

  EXPECT_EQ(admitter.AbortTxn(1), AdmitOutcome::kAborted);
  admitter.Flush();
  EXPECT_EQ(admitter.TxnVerdict(2), AdmitOutcome::kAborted);  // cascaded
  EXPECT_TRUE(admitter.TxnCommitted(0));
  EXPECT_TRUE(admitter.TxnCommitted(3));
  // Submitting more of a dead transaction answers with its outcome.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(2)), AdmitOutcome::kAborted);
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(2).op(2)), AdmitOutcome::kAborted);
  admitter.Stop();

  EXPECT_EQ(admitter.unrecoverable_reads(), 1u);  // committed T4 read w2[a]
  EXPECT_TRUE(admitter.coordinator().Dead(1));
  EXPECT_TRUE(admitter.coordinator().Dead(2));
  EXPECT_EQ(admitter.coordinator().arc_count(), 2u);  // durable arcs stay
  // T2 (multi-shard, born tainted) flooded both dirty-reader arcs to the
  // coordinator, tainting the single-shard readers T3 and T4.
  EXPECT_EQ(tracer.counters().cross_shard_arcs, 2u);
  EXPECT_EQ(tracer.counters().escalations, 2u);
  EXPECT_EQ(tracer.counters().aborts, 1u);
  EXPECT_EQ(tracer.counters().cascade_aborts, 1u);
  EXPECT_EQ(tracer.counters().commits, 2u);
  // Committed history = T1 and T4 only, and it is relatively
  // serializable on the full unsharded checker.
  OnlineRsrChecker replay(*txns, spec);
  const std::vector<Operation> log = admitter.CommittedLog();
  ASSERT_EQ(log.size(), 3u);
  for (const Operation& op : log) {
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}

// Backpressure and deadlines survive sharding: a fault plan pausing the
// shard cores makes the tiny inboxes refuse (kRetry) and deadlines expire
// (kTimeout); SubmitWithBackoff rides it out and whatever commits still
// replays on the full checker.
TEST(ShardedAdmitterTest, BackpressureRetriesAndTimeoutsUnderFaultPlan) {
  ShardedWorkloadParams wp;
  wp.txn_count = 24;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 3;
  wp.shard_count = 2;
  wp.objects_per_shard = 32;  // sparse: decisions themselves are trivial
  wp.cross_shard_ratio = 0.4;
  Rng rng(0x5A02);
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = FullyRelaxedSpec(txns);

  FaultPlanParams fp;
  fp.core_pause_prob = 1.0;
  // Wide pauses so saturation is robust even under sanitizer slowdown:
  // a capacity-2 inbox needs three submissions inside one pause window,
  // and TSan staggers the client threads by whole milliseconds.
  fp.max_core_pause_us = 20000;
  const FaultPlan plan(0x5A03, fp);

  Tracer tracer(TraceLevel::kCounters);
  ShardedAdmitterOptions options;
  options.queue_capacity = 2;  // tiny inboxes: backpressure is the norm
  options.tracer = &tracer;
  options.faults = &plan;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 2, ShardStrategy::kRange),
      options);

  // One client per transaction: concurrent submissions against paused
  // cores are what actually fill the tiny inboxes.
  std::atomic<std::uint64_t> timeouts{0};
  std::vector<std::thread> clients;
  clients.reserve(txns.txn_count());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    clients.emplace_back([&, t] {
      Backoff backoff(0x5A04 + t);
      for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
        const Operation& op = txns.txn(t).op(i);
        if (t % 3 == 2) {
          // Deadlines far shorter than the injected core pauses.
          const AdmitResult result = admitter.SubmitWithBackoff(
              op, backoff, std::chrono::microseconds(50));
          if (result.outcome == AdmitOutcome::kTimeout) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          }
          if (!result.ok()) return;
        } else if (!admitter.SubmitWithBackoff(op, backoff).ok()) {
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  admitter.Stop();

  EXPECT_GT(admitter.retries(), 0u) << "tiny inboxes + paused cores must refuse";
  EXPECT_GT(timeouts.load(), 0u)
      << "50us deadlines under multi-ms pauses must expire";
  EXPECT_EQ(tracer.counters().retries, admitter.retries());
  EXPECT_LE(tracer.counters().timeouts, timeouts.load());
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : admitter.CommittedLog()) {
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}

// The admission policy applied serially — the reference the
// single-shard admitter must match decision for decision. A rejection
// aborts the transaction (its accepted prefix is withdrawn exactly) and
// cascade-aborts every live transaction that read one of its writes; a
// client abort does the same. Operations of dead transactions answer
// kAborted, operations of committed ones kReject. A transaction commits
// — and becomes immune — when its last operation is accepted; a
// committed reader of a writer that later aborts counts as one
// unrecoverable read per dirty read.
class SerialReference {
 public:
  SerialReference(const TransactionSet& txns, const AtomicitySpec& spec)
      : txns_(txns),
        checker_(txns, spec),
        state_(txns.txn_count(), kLive),
        last_writer_(txns.object_count(), kNone),
        readers_of_(txns.txn_count()) {}

  AdmitOutcome Submit(const Operation& op) {
    if (state_[op.txn] == kCommitted) return AdmitOutcome::kReject;
    if (state_[op.txn] == kDead) return AdmitOutcome::kAborted;
    if (!checker_.TryAppend(op).ok()) {
      Kill(op.txn);
      return AdmitOutcome::kReject;
    }
    accept_log_.push_back(op);
    if (op.is_write()) {
      last_writer_[op.object] = op.txn;
    } else {
      const TxnId writer = last_writer_[op.object];
      if (writer != kNone && writer != op.txn && state_[writer] == kLive) {
        readers_of_[writer].push_back(op.txn);
      }
    }
    if (op.index + 1 == txns_.txn(op.txn).size()) state_[op.txn] = kCommitted;
    return AdmitOutcome::kAccept;
  }

  AdmitOutcome Abort(TxnId txn) {
    if (state_[txn] == kCommitted) return AdmitOutcome::kReject;
    if (state_[txn] == kLive) Kill(txn);
    return AdmitOutcome::kAborted;
  }

  AdmitOutcome Verdict(TxnId txn) const {
    return state_[txn] == kDead ? AdmitOutcome::kAborted
                                : AdmitOutcome::kAccept;
  }
  bool Committed(TxnId txn) const { return state_[txn] == kCommitted; }
  std::size_t accepted() const { return accept_log_.size(); }
  std::uint64_t unrecoverable_reads() const { return unrecoverable_reads_; }

  std::vector<Operation> CommittedLog() const {
    std::vector<Operation> log;
    for (const Operation& op : accept_log_) {
      if (Committed(op.txn)) log.push_back(op);
    }
    return log;
  }

 private:
  static constexpr TxnId kNone = static_cast<TxnId>(-1);
  enum : std::uint8_t { kLive, kCommitted, kDead };

  void Kill(TxnId root) {
    std::vector<TxnId> stack{root};
    while (!stack.empty()) {
      const TxnId t = stack.back();
      stack.pop_back();
      if (state_[t] != kLive) continue;
      state_[t] = kDead;
      if (checker_.TxnHasExecuted(t)) checker_.RemoveTransactionExact(t);
      for (const TxnId reader : readers_of_[t]) {
        if (state_[reader] == kLive) {
          stack.push_back(reader);
        } else if (state_[reader] == kCommitted) {
          ++unrecoverable_reads_;
        }
      }
      readers_of_[t].clear();
    }
    // The withdrawals moved object frontiers; the checker is the
    // authority on which writer survived.
    for (ObjectId o = 0; o < static_cast<ObjectId>(last_writer_.size()); ++o) {
      if (last_writer_[o] == kNone || state_[last_writer_[o]] != kDead) continue;
      const std::size_t gid = checker_.FrontierWriterGid(o);
      last_writer_[o] = gid == OnlineRsrChecker::kNoOp
                            ? kNone
                            : txns_.OpByGlobalId(gid).txn;
    }
  }

  const TransactionSet& txns_;
  OnlineRsrChecker checker_;
  std::vector<std::uint8_t> state_;
  std::vector<TxnId> last_writer_;
  std::vector<std::vector<TxnId>> readers_of_;
  std::vector<Operation> accept_log_;
  std::uint64_t unrecoverable_reads_ = 0;
};

// Round-robin interleaving of all transactions' operations: a canonical
// single-thread feed order that respects each transaction's program
// order (the admitter's feeding contract).
std::vector<Operation> RoundRobinFeed(const TransactionSet& txns) {
  std::vector<Operation> feed;
  bool progress = true;
  for (std::uint32_t i = 0; progress; ++i) {
    progress = false;
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (i < txns.txn(t).size()) {
        feed.push_back(txns.txn(t).op(i));
        progress = true;
      }
    }
  }
  return feed;
}

ShardRouter OneShard(const TransactionSet& txns) {
  return ShardRouter(txns.object_count(), 1, ShardStrategy::kRange);
}

TEST(ShardedAdmitterTest, SingleClientMatchesSerialFeed) {
  Rng rng(0xADA1);
  WorkloadParams wp;
  wp.txn_count = 8;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 6;
  wp.object_count = 3;  // small: force conflicts and rejections
  wp.read_ratio = 0.4;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = AbsoluteSpec(txns);
  const std::vector<Operation> feed = RoundRobinFeed(txns);

  SerialReference reference(txns, spec);
  ShardedAdmitter admitter(txns, spec, OneShard(txns));
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    const AdmitOutcome expected = reference.Submit(feed[i]);
    const AdmitOutcome got = admitter.SubmitAndWait(feed[i]).outcome;
    EXPECT_EQ(got, expected) << "op " << i;
    rejected += got == AdmitOutcome::kAccept ? 0u : 1u;
    ASSERT_TRUE(admitter.OpOutcome(feed[i]).has_value());
    EXPECT_EQ(*admitter.OpOutcome(feed[i]), got) << "op " << i;
  }
  admitter.Stop();
  EXPECT_GT(rejected, 0u) << "workload too easy to exercise rejection";
  EXPECT_EQ(admitter.accepted() + admitter.rejected(), feed.size());
}

TEST(ShardedAdmitterTest, TxnVerdictReportsRejectedTransactions) {
  // The paper's sandwich: T2 runs entirely inside T1, touching both of
  // T1's objects; under absolute atomicity the final r1[y] must reject.
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x] w2[y]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = AbsoluteSpec(*txns);

  ShardedAdmitter admitter(*txns, spec, OneShard(*txns));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[y]
  // r1[y] closes the sandwich cycle under absolute atomicity: reject.
  const AdmitResult rejected = admitter.SubmitAndWait(txns->txn(0).op(1));
  EXPECT_EQ(rejected, AdmitOutcome::kReject);
  EXPECT_EQ(admitter.TxnVerdict(0), AdmitOutcome::kAborted);
  EXPECT_TRUE(admitter.TxnVerdict(1));
  admitter.Stop();
  EXPECT_EQ(admitter.rejected(), 1u);
  // T1's rejection aborted it and withdrew w1[x] exactly; T2 survives
  // whole. T2's r2[x] had read T1's uncommitted write, but T2 committed
  // before the abort — an unrecoverable read, counted not cascaded.
  EXPECT_EQ(admitter.checker(0).retained_ops(), 2u);
  EXPECT_TRUE(admitter.TxnCommitted(1));
  EXPECT_EQ(admitter.unrecoverable_reads(), 1u);
}

TEST(ShardedAdmitterTest, SparseWorkloadMatchesSerialReference) {
  // Sparse workload where most operations meet no foreign conflict, so
  // TryAppend skips its compare pass: the admitter's decisions must
  // still match the serial reference exactly (the skip is a shortcut,
  // not a relaxation).
  Rng rng(0xADA4);
  WorkloadParams wp;
  wp.txn_count = 12;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 6;
  wp.object_count = 48;
  wp.read_ratio = 0.6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  const std::vector<Operation> feed = RoundRobinFeed(txns);

  SerialReference reference(txns, spec);
  ShardedAdmitter admitter(txns, spec, OneShard(txns));
  for (std::size_t i = 0; i < feed.size(); ++i) {
    EXPECT_EQ(admitter.SubmitAndWait(feed[i]).outcome,
              reference.Submit(feed[i]))
        << "op " << i;
  }
  admitter.Stop();
}

// THE single-shard gate: with one shard the projection is the identity,
// the coordinator never hears anything (no multi-shard transactions, so
// nothing is ever tainted), and a deterministic single-threaded feed
// with client aborts must produce exactly the serial reference's
// decisions, verdicts, and committed history — operation by operation.
TEST(ShardedAdmitterTest, SingleShardIsDecisionIdenticalToSerialReference) {
  const Rng base(0x1D3A);
  for (int round = 0; round < 60; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    ShardedWorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(6);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.shard_count = 1;
    wp.objects_per_shard = 2 + rng.UniformIndex(4);  // dense: real conflicts
    wp.zipf_theta = rng.UniformDouble();
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);

    SerialReference reference(txns, spec);
    ShardedAdmitter sharded(txns, spec, OneShard(txns));

    // Random single-threaded interleaving with occasional client aborts
    // and occasional submissions against already-dead transactions.
    std::vector<std::uint32_t> next(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    std::size_t steps = txns.total_ops() + 6;
    while (steps-- > 0) {
      if (rng.Bernoulli(0.1)) {
        std::vector<TxnId> started;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (dead[t] == 0 && next[t] > 0) started.push_back(t);
        }
        if (!started.empty()) {
          const TxnId victim = rng.Choice(started);
          const AdmitOutcome a = reference.Abort(victim);
          const AdmitResult b = sharded.AbortTxn(victim);
          ASSERT_EQ(a, b.outcome)
              << "round " << round << " aborting T" << victim;
          if (a != AdmitOutcome::kReject) dead[victim] = 1;
          continue;
        }
      }
      std::vector<TxnId> feedable;
      for (TxnId t = 0; t < txns.txn_count(); ++t) {
        if (next[t] < txns.txn(t).size() &&
            (dead[t] == 0 || rng.Bernoulli(0.2))) {
          feedable.push_back(t);
        }
      }
      if (feedable.empty()) break;
      const TxnId t = rng.Choice(feedable);
      const Operation& op = txns.txn(t).op(next[t]);
      const AdmitOutcome a = reference.Submit(op);
      const AdmitResult b = sharded.SubmitAndWait(op);
      ASSERT_EQ(a, b.outcome)
          << "round " << round << " T" << t << " op " << next[t];
      ++next[t];
      if (a != AdmitOutcome::kAccept) dead[t] = 1;
    }
    sharded.Stop();

    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      ASSERT_EQ(reference.Committed(t), sharded.TxnCommitted(t))
          << "round " << round << " T" << t;
      ASSERT_EQ(reference.Verdict(t), sharded.TxnVerdict(t).outcome)
          << "round " << round << " T" << t;
    }
    ASSERT_EQ(reference.accepted(), sharded.accepted()) << "round " << round;
    ASSERT_EQ(reference.unrecoverable_reads(), sharded.unrecoverable_reads())
        << "round " << round;
    const std::vector<Operation> ref_log = reference.CommittedLog();
    const std::vector<Operation> shard_log = sharded.CommittedLog();
    ASSERT_EQ(ref_log.size(), shard_log.size()) << "round " << round;
    const OpIndexer indexer(txns);
    for (std::size_t i = 0; i < ref_log.size(); ++i) {
      ASSERT_EQ(indexer.GlobalId(ref_log[i]), indexer.GlobalId(shard_log[i]))
          << "round " << round << " position " << i;
    }
    // Single shard: nothing ever escalates to the coordinator.
    EXPECT_EQ(sharded.coordinator().arcs_mirrored(), 0u) << "round " << round;
    EXPECT_EQ(sharded.shard_stats(0).escalations, 0u) << "round " << round;
  }
}

// One client over two shards with snapshot reads and epoch GC, fed a
// fixed pseudo-random window of open transactions. A rejection is
// published only after its kill is posted to (and applied on) the other
// shard, and snapshot settledness reads the kill's NoteAbort, so the
// decision sequence is a function of the feed alone.
struct WindowedRun {
  std::vector<AdmitOutcome> outcomes;
  std::vector<std::size_t> committed_gids;
  std::uint64_t snapshot_admits = 0;
  std::uint64_t multi_shard_kills = 0;
};

WindowedRun FeedTwoShardSnapshotWindow(const TransactionSet& txns,
                                       const AtomicitySpec& spec,
                                       std::uint64_t seed) {
  ShardedAdmitterOptions options;
  options.snapshot_reads = true;
  options.epoch_gc = true;
  options.gc_interval = 8;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 2, ShardStrategy::kRange),
      options);
  const TxnSpans spans(txns, admitter.plan().router());
  WindowedRun run;
  Rng rng(seed);
  constexpr std::size_t kWindow = 8;
  std::vector<TxnId> open;
  std::vector<std::uint32_t> next(txns.txn_count(), 0);
  TxnId next_txn = 0;
  for (;;) {
    while (open.size() < kWindow && next_txn < txns.txn_count()) {
      open.push_back(next_txn++);
    }
    if (open.empty()) break;
    const std::size_t k = rng.UniformIndex(open.size());
    const TxnId t = open[k];
    const AdmitResult result = admitter.SubmitAndWait(txns.txn(t).op(next[t]));
    run.outcomes.push_back(result.outcome);
    if (!result.ok() || ++next[t] == txns.txn(t).size()) {
      open[k] = open.back();
      open.pop_back();
    }
  }
  admitter.Stop();
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (!admitter.TxnCommitted(t) && spans.MultiShard(t) && next[t] > 0) {
      ++run.multi_shard_kills;
    }
  }
  const OpIndexer indexer(txns);
  for (const Operation& op : admitter.CommittedLog()) {
    run.committed_gids.push_back(indexer.GlobalId(op));
  }
  run.snapshot_admits = admitter.snapshot_admits();
  return run;
}

TEST(ShardedAdmitterTest, TwoShardSnapshotSingleClientIsRepeatable) {
  Rng rng(0x2E9E);
  ShardedWorkloadParams wp;
  wp.txn_count = 160;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 8;
  wp.shard_count = 2;
  wp.objects_per_shard = 24;  // dense: rejections, kills and cascades
  wp.cross_shard_ratio = 0.2;
  wp.zipf_theta = 0.8;
  wp.read_ratio = 0.6;
  wp.read_only_txn_ratio = 0.5;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  const WindowedRun first = FeedTwoShardSnapshotWindow(txns, spec, 0x2E9F);
  EXPECT_GT(first.snapshot_admits, 0u);
  EXPECT_GT(first.multi_shard_kills, 0u) << "no cross-shard kill to race";
  for (int repeat = 1; repeat < 20; ++repeat) {
    const WindowedRun again = FeedTwoShardSnapshotWindow(txns, spec, 0x2E9F);
    ASSERT_EQ(again.outcomes, first.outcomes) << "repeat " << repeat;
    ASSERT_EQ(again.committed_gids, first.committed_gids)
        << "repeat " << repeat;
    ASSERT_EQ(again.snapshot_admits, first.snapshot_admits)
        << "repeat " << repeat;
  }
}

// Eight clients on two shards with two-slot inboxes: submitters race each
// other for the ownership tokens, so operations are decided both inline
// and through the inbox, interleaved with client aborts, deadline
// timeouts and cross-shard kills. Short fault-plan pauses keep holders
// on the token long enough for the others to fall back to the inbox.
// Every submitted operation is decided exactly once, and the committed
// history replays relatively serializably.
TEST(ShardedAdmitterTest, CallerRunsUnderContentionDecidesEveryOpOnce) {
  Rng rng(0xC0A7);
  ShardedWorkloadParams wp;
  wp.txn_count = 200;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 6;
  wp.shard_count = 2;
  wp.objects_per_shard = 12;
  wp.cross_shard_ratio = 0.3;
  wp.zipf_theta = 0.5;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  ShardedAdmitterOptions options;
  options.queue_capacity = 2;
  options.epoch_gc = true;
  FaultPlanParams fp;
  fp.core_pause_prob = 0.2;
  fp.max_core_pause_us = 200;
  const FaultPlan plan(0xC0A9, fp);
  options.faults = &plan;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 2, ShardStrategy::kRange),
      options);

  constexpr std::size_t kClients = 8;
  const OpIndexer indexer(txns);
  std::vector<std::atomic<std::uint8_t>> submitted(indexer.total_ops());
  std::atomic<std::size_t> submissions{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Backoff backoff(0xC0A8 + c);
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + kClients)) {
        const Transaction& txn = txns.txn(t);
        const bool abort_midway = t % 7 == 3;
        const auto deadline = t % 5 == 1 ? std::chrono::microseconds(30)
                                         : std::chrono::microseconds::zero();
        for (std::uint32_t i = 0; i < txn.size(); ++i) {
          if (abort_midway && i == txn.size() / 2) {
            admitter.AbortTxn(t);
            break;
          }
          const AdmitResult result =
              admitter.SubmitWithBackoff(txn.op(i), backoff, deadline);
          submitted[indexer.GlobalId(t, i)].store(1, std::memory_order_relaxed);
          submissions.fetch_add(1, std::memory_order_relaxed);
          if (!result.ok()) break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  admitter.Stop();

  std::size_t ops_routed = 0;
  std::size_t inline_decisions = 0;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    ops_routed += admitter.shard_stats(shard).ops_routed;
    inline_decisions += admitter.shard_stats(shard).inline_decisions;
  }
  EXPECT_EQ(ops_routed, submissions.load());
  EXPECT_EQ(admitter.accepted() + admitter.rejected(), submissions.load());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
      EXPECT_EQ(admitter.OpOutcome(txns.txn(t).op(i)).has_value(),
                submitted[indexer.GlobalId(t, i)].load() != 0)
          << "T" << t << " op " << i;
    }
  }
  EXPECT_GT(inline_decisions, 0u) << "no submitter ever decided inline";
  EXPECT_LT(inline_decisions, ops_routed) << "the inbox path never decided";
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : admitter.CommittedLog()) {
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}


// Liveness without an admitter thread: every operation or control left
// in an inbox is taken by the poster's token try or by the re-check of
// whoever releases the token. Each case below hangs (and fails on the
// ctest TIMEOUT) if one of the two rules is missing.

// A fault plan that pauses a shard for at least 200 ms right after its
// `step`-th decision and not at all on its other early steps, so a test
// can hold a token while other clients queue behind it. Searching seeds
// keeps the plan a pure function of its seed.
FaultPlan PlanPausingLongAt(std::uint64_t step) {
  FaultPlanParams fp;
  fp.core_pause_prob = 0.5;
  fp.max_core_pause_us = 300'000;
  for (std::uint64_t seed = 1;; ++seed) {
    const FaultPlan plan(seed, fp);
    bool fits = plan.CorePauseUs(step) >= 200'000;
    for (std::uint64_t s = 1; fits && s <= step + 4; ++s) {
      fits = s == step || plan.CorePauseUs(s) == 0;
    }
    if (fits) return plan;
  }
}

// Blocks until `op` is decided: its deciding thread then sits in the
// fault-plan pause that follows, holding the shard's token.
void AwaitDecided(const ShardedAdmitter& admitter, const Operation& op) {
  while (!admitter.OpOutcome(op).has_value()) std::this_thread::yield();
}

// (1) A rejection posts a kill to a shard that never sees another
// operation. The rejecting client's try after the post applies it, so
// Flush returns with no further submission.
TEST(ShardedAdmitterLivenessTest, KillPostedToIdleShardIsApplied) {
  // 2 objects over 2 range shards: a -> 0, b -> 1.
  auto txns = ParseTransactionSet(
      "T1 = w1[a] w1[b]\n"
      "T2 = w2[b] w2[a]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  ShardedAdmitter admitter(*txns, spec,
                           ShardRouter(2, 2, ShardStrategy::kRange));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[a]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // w2[b]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(1)));  // w1[b]
  // w2[a] closes the cross-shard cycle; T2's kill goes to shard 1.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(1)), AdmitOutcome::kReject);
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kAborted);
  admitter.Flush();
  admitter.Stop();
  // Shard 1 withdrew w2[b]: only w1[b] is left in its checker.
  EXPECT_EQ(admitter.checker(1).retained_ops(), 1u);
  EXPECT_EQ(admitter.CommittedLog().size(), 2u);
}

// (2) A waiter's deadline expires while its operation sits in the inbox
// behind a paused token holder, and no other client touches the shard.
// The holder's release re-check decides the operation, exactly once.
TEST(ShardedAdmitterLivenessTest, TimedOutQueuedRequestIsDecidedOnce) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a]\n"
      "T2 = w2[b] w2[b]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  const FaultPlan plan = PlanPausingLongAt(1);
  ShardedAdmitterOptions options;
  options.faults = &plan;
  ShardedAdmitter admitter(*txns, spec,
                           ShardRouter(2, 1, ShardStrategy::kRange), options);
  const Operation& held = txns->txn(0).op(0);
  const Operation& queued = txns->txn(1).op(0);
  std::thread holder([&] { EXPECT_TRUE(admitter.SubmitAndWait(held)); });
  AwaitDecided(admitter, held);
  EXPECT_EQ(admitter.SubmitAndWait(queued, std::chrono::milliseconds(5)),
            AdmitOutcome::kTimeout);
  holder.join();
  admitter.Stop();
  ASSERT_TRUE(admitter.OpOutcome(queued).has_value());
  EXPECT_EQ(*admitter.OpOutcome(queued), AdmitOutcome::kTimeout);
  EXPECT_EQ(admitter.shard_stats(0).ops_routed, 2u);
  EXPECT_EQ(admitter.shard_stats(0).inline_decisions, 1u);
  EXPECT_EQ(admitter.accepted() + admitter.rejected(), 2u);
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kTimeout);
}

// (3) AbortTxn of a transaction resident on a shard whose token is held
// returns its death outcome once the holder's re-check applies it.
TEST(ShardedAdmitterLivenessTest, AbortOnBusyShardReturnsDeathOutcome) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a]\n"
      "T2 = w2[b] w2[b]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  const FaultPlan plan = PlanPausingLongAt(2);
  ShardedAdmitterOptions options;
  options.faults = &plan;
  ShardedAdmitter admitter(*txns, spec,
                           ShardRouter(2, 1, ShardStrategy::kRange), options);
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // T2 resident
  const Operation& held = txns->txn(0).op(0);
  std::thread holder([&] { EXPECT_TRUE(admitter.SubmitAndWait(held)); });
  AwaitDecided(admitter, held);
  EXPECT_EQ(admitter.AbortTxn(1), AdmitOutcome::kAborted);
  holder.join();
  admitter.Stop();
  EXPECT_FALSE(admitter.checker(0).TxnHasExecuted(1));
  ASSERT_EQ(admitter.CommittedLog().size(), 1u);
  EXPECT_EQ(admitter.CommittedLog()[0].txn, 0u);
}


// queue_capacity bounds queued operations exactly, also when it is not a
// power of two: with the token holder paused, three of four fallback
// submitters queue and the fourth is refused.
TEST(ShardedAdmitterTest, QueueCapacityBoundsQueuedOperationsExactly) {
  auto txns = ParseTransactionSet(
      "T1 = w1[a]\n"
      "T2 = w2[b]\n"
      "T3 = w3[c]\n"
      "T4 = w4[d]\n"
      "T5 = w5[e]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  const FaultPlan plan = PlanPausingLongAt(1);
  ShardedAdmitterOptions options;
  options.queue_capacity = 3;
  options.faults = &plan;
  ShardedAdmitter admitter(*txns, spec,
                           ShardRouter(5, 1, ShardStrategy::kRange), options);
  const Operation& held = txns->txn(0).op(0);
  std::thread holder([&] { EXPECT_TRUE(admitter.SubmitAndWait(held)); });
  AwaitDecided(admitter, held);
  std::vector<AdmitOutcome> outcomes(4, AdmitOutcome::kReject);
  std::vector<std::thread> submitters;
  for (TxnId t = 1; t <= 4; ++t) {
    submitters.emplace_back([&, t] {
      outcomes[t - 1] = admitter.SubmitAndWait(txns->txn(t).op(0)).outcome;
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  holder.join();
  EXPECT_EQ(std::count(outcomes.begin(), outcomes.end(), AdmitOutcome::kAccept),
            3);
  EXPECT_EQ(std::count(outcomes.begin(), outcomes.end(), AdmitOutcome::kRetry),
            1);
  EXPECT_EQ(admitter.retries(), 1u);
  // The three queued operations were decided by the holder's re-check.
  EXPECT_EQ(admitter.shard_stats(0).ops_routed, 4u);
  EXPECT_EQ(admitter.shard_stats(0).inline_decisions, 1u);
  admitter.Stop();
}

// Every committed multi-shard transaction records exactly one
// shard_route event per resident shard, each naming its shard count, and
// no single-shard transaction records one.
TEST(ShardedAdmitterTest, ShardRouteTracedOncePerResidentShard) {
  Rng rng(0x5E0A);
  ShardedWorkloadParams wp;
  wp.txn_count = 120;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 7;
  wp.shard_count = 2;
  wp.objects_per_shard = 16;
  wp.cross_shard_ratio = 0.4;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 2, ShardStrategy::kRange),
      options);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  for (const Operation& op : RoundRobinFeed(txns)) {
    if (dead[op.txn] != 0) continue;
    if (!admitter.SubmitAndWait(op).ok()) dead[op.txn] = 1;
  }
  admitter.Stop();

  std::vector<std::size_t> routes(txns.txn_count(), 0);
  for (const TraceEvent& event : tracer.events()) {
    if (event.kind != TraceEventKind::kShardRoute) continue;
    ++routes[event.txn];
    const std::size_t shards = admitter.plan().spans().ShardsOf(event.txn).size();
    EXPECT_EQ(event.cause.note, "spans " + std::to_string(shards) + " shards")
        << "T" << event.txn;
  }
  std::size_t committed_multi = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    const std::size_t shards = admitter.plan().spans().ShardsOf(t).size();
    if (!admitter.plan().spans().MultiShard(t)) {
      EXPECT_EQ(routes[t], 0u) << "T" << t;
    } else if (admitter.TxnCommitted(t)) {
      ++committed_multi;
      EXPECT_EQ(routes[t], shards) << "T" << t;
    } else {
      EXPECT_LE(routes[t], shards) << "T" << t;
    }
  }
  EXPECT_GT(committed_multi, 10u);
  EXPECT_GT(std::count(dead.begin(), dead.end(), 1), 0)
      << "no transaction died";
}

}  // namespace
}  // namespace relser
