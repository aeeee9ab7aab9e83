// Fault-tolerance tests: the exact abort path (RemoveTransactionExact
// differentially against rebuilt-from-scratch checkers, 500+ seeded
// rounds), the admitter's abort/cascade/backpressure/timeout machinery
// (a single-shard ShardedAdmitter), and FaultPlan determinism (pure
// queries — identical at any pool size).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "model/schedule.h"
#include "model/text.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

// Feeds the checker's surviving feed into a brand-new checker and
// returns its digest — the ground truth RemoveTransactionExact claims
// bit-identity with.
std::uint64_t RebuiltDigest(const TransactionSet& txns,
                            const AtomicitySpec& spec,
                            const OnlineRsrChecker& checker) {
  OnlineRsrChecker rebuilt(txns, spec);
  for (const std::size_t gid : checker.feed_log()) {
    EXPECT_TRUE(rebuilt.TryAppend(checker.indexer().Op(txns, gid)).ok())
        << "surviving feed must replay cleanly";
  }
  return rebuilt.StateDigest();
}

ShardRouter OneShard(const TransactionSet& txns) {
  return ShardRouter(txns.object_count(), 1, ShardStrategy::kRange);
}

// 520 seeded rounds: random workload, random spec, random feed with
// interleaved random exact aborts. After every abort the checker's
// digest must equal a from-scratch checker fed the survivors — the
// no-accumulated-conservatism guarantee the admitter's cascade
// machinery relies on.
TEST(FaultTest, ExactAbortIsBitIdenticalToRebuild) {
  constexpr int kRounds = 520;
  Rng base(0xFA017);
  for (int round = 0; round < kRounds; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(6);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.object_count = 2 + rng.UniformIndex(4);  // dense: real conflicts
    wp.read_ratio = 0.5;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    OnlineRsrChecker checker(txns, spec);

    std::vector<std::uint32_t> next_op(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    std::size_t steps = checker.indexer().total_ops() + 4;
    std::size_t aborts_done = 0;
    while (steps-- > 0) {
      // Mostly feed; sometimes abort a transaction that has executed ops.
      if (rng.Bernoulli(0.15)) {
        std::vector<TxnId> candidates;
        for (TxnId t = 0; t < txns.txn_count(); ++t) {
          if (dead[t] == 0 && checker.TxnHasExecuted(t)) {
            candidates.push_back(t);
          }
        }
        if (!candidates.empty()) {
          const TxnId victim = rng.Choice(candidates);
          checker.RemoveTransactionExact(victim);
          dead[victim] = 1;
          ++aborts_done;
          ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
              << "round " << round << " after aborting T" << victim;
          continue;
        }
      }
      std::vector<TxnId> feedable;
      for (TxnId t = 0; t < txns.txn_count(); ++t) {
        if (dead[t] == 0 && next_op[t] < txns.txn(t).size()) {
          feedable.push_back(t);
        }
      }
      if (feedable.empty()) break;
      const TxnId t = rng.Choice(feedable);
      const Operation& op = txns.txn(t).op(next_op[t]);
      if (checker.TryAppend(op).ok()) {
        ++next_op[t];
      } else {
        // Mirror the admitter: a certification rejection aborts the
        // transaction (exact removal) — and must also digest-match.
        if (checker.TxnHasExecuted(t)) {
          checker.RemoveTransactionExact(t);
          ++aborts_done;
          ASSERT_EQ(checker.StateDigest(), RebuiltDigest(txns, spec, checker))
              << "round " << round << " after reject-abort of T" << t;
        }
        dead[t] = 1;
      }
    }
    if (round == 0) {
      EXPECT_GT(aborts_done, 0u) << "first round should exercise aborts";
    }
  }
}

// A voluntary abort must cascade to live transactions that read the
// aborted writer's data, but never to committed ones.
TEST(FaultTest, ClientAbortCascadesToDirtyReaders) {
  // T1 writes x and never finishes; T2 reads x (dirty) then stalls; T3
  // is independent. Aborting T1 must cascade-abort T2 and leave T3
  // untouched.
  auto txns = ParseTransactionSet(
      "T1 = w1[x] w1[y]\n"
      "T2 = r2[x] w2[z] w2[u]\n"
      "T3 = w3[v] w3[v]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);

  Tracer tracer(TraceLevel::kFull);
  ShardedAdmitterOptions options;
  options.tracer = &tracer;
  ShardedAdmitter admitter(*txns, spec, OneShard(*txns), options);
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x] dirty
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(1)));  // w2[z]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(0)));  // w3[v]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(2).op(1)));  // w3[v] commits T3

  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  admitter.Flush();
  EXPECT_EQ(admitter.TxnVerdict(1), AdmitOutcome::kAborted);  // cascaded
  EXPECT_TRUE(admitter.TxnVerdict(2));
  EXPECT_TRUE(admitter.TxnCommitted(2));

  // Submitting more of the dead transactions answers with their death
  // outcome and leaves the checker untouched.
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(0).op(1)), AdmitOutcome::kAborted);
  EXPECT_EQ(admitter.SubmitAndWait(txns->txn(1).op(2)), AdmitOutcome::kAborted);
  admitter.Stop();

  // Only T3 survives, and the post-cascade state is bit-identical to a
  // checker that only ever saw T3.
  EXPECT_EQ(admitter.checker(0).retained_ops(), 2u);
  EXPECT_EQ(admitter.checker(0).StateDigest(),
            RebuiltDigest(*txns, spec, admitter.checker(0)));
  EXPECT_EQ(admitter.unrecoverable_reads(), 0u);
  EXPECT_EQ(tracer.counters().aborts, 1u);
  EXPECT_EQ(tracer.counters().cascade_aborts, 1u);
  EXPECT_EQ(tracer.counters().commits, 1u);
}

// Aborting a committed transaction must be refused (commits are final),
// and the dirty read it performed earlier is counted as unrecoverable
// when its writer aborts.
TEST(FaultTest, CommittedTransactionsAreImmune) {
  auto txns = ParseTransactionSet(
      "T1 = w1[x] w1[y]\n"
      "T2 = r2[x]\n");
  ASSERT_TRUE(txns.ok());
  const AtomicitySpec spec = FullyRelaxedSpec(*txns);
  ShardedAdmitter admitter(*txns, spec, OneShard(*txns));
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(admitter.SubmitAndWait(txns->txn(1).op(0)));  // r2[x]: commits T2
  EXPECT_TRUE(admitter.TxnCommitted(1));
  EXPECT_EQ(admitter.AbortTxn(1), AdmitOutcome::kReject);  // immune
  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  // AbortTxn on an already-dead transaction reports the same outcome
  // without another round-trip.
  EXPECT_EQ(admitter.AbortTxn(0), AdmitOutcome::kAborted);
  admitter.Stop();
  EXPECT_EQ(admitter.unrecoverable_reads(), 1u);
}

// Backpressure and deadlines: a fault plan that pauses the admission
// core makes the bounded inbox fill (kRetry) and deadlines expire
// (kTimeout); SubmitWithBackoff rides out the retries.
TEST(FaultTest, BackpressureRetriesAndDeadlineTimeouts) {
  WorkloadParams wp;
  wp.txn_count = 24;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 3;
  wp.object_count = 64;  // sparse: decisions themselves are trivial
  wp.read_ratio = 0.5;
  Rng rng(0xFA02);
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = FullyRelaxedSpec(txns);

  FaultPlanParams fp;
  fp.core_pause_prob = 1.0;  // every decision pauses the core
  fp.max_core_pause_us = 1000;
  const FaultPlan plan(0xFA03, fp);

  Tracer tracer(TraceLevel::kCounters);
  ShardedAdmitterOptions options;
  options.queue_capacity = 2;  // tiny inbox: backpressure is the norm
  options.tracer = &tracer;
  options.faults = &plan;
  ShardedAdmitter admitter(txns, spec, OneShard(txns), options);

  // One client per transaction: blocking submissions allow one
  // operation in flight per transaction, so only concurrent clients
  // can fill the inbox while the core pauses.
  std::atomic<std::uint64_t> timeouts{0};
  std::vector<std::thread> clients;
  clients.reserve(txns.txn_count());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    clients.emplace_back([&, t] {
      Backoff backoff(0xFA04 + t);
      for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
        const Operation& op = txns.txn(t).op(i);
        if (t % 3 == 2) {
          // Every third transaction runs under a deadline far shorter
          // than the injected core pauses.
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

  EXPECT_GT(admitter.retries(), 0u) << "tiny inbox + paused core must refuse";
  EXPECT_GT(timeouts.load(), 0u)
      << "50us deadlines under ~1ms pauses must expire";
  EXPECT_EQ(tracer.counters().retries, admitter.retries());
  // The tracer records timeouts that took effect; a control message
  // that finds its transaction already committed (the op squeaked in
  // after the client gave up) or already dead is a no-op, so the
  // client-side count is an upper bound.
  EXPECT_LE(tracer.counters().timeouts, timeouts.load());
  // Whatever committed must still be serially admissible.
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : admitter.CommittedLog()) {
    ASSERT_TRUE(replay.TryAppend(op).ok());
  }
}

// FaultPlan queries are pure functions of (seed, identifiers): the same
// seed yields the same schedule no matter how many threads query it or
// in what order — the property that makes fault runs replayable at any
// client-pool size.
TEST(FaultTest, FaultPlanIsDeterministicAtAnyPoolSize) {
  FaultPlanParams params;
  params.stall_prob = 0.3;
  params.drop_prob = 0.1;
  params.abort_prob = 0.4;
  params.core_pause_prob = 0.2;
  const FaultPlan plan_a(0xF00D, params);
  const FaultPlan plan_b(0xF00D, params);  // same seed, separate instance

  constexpr TxnId kTxns = 32;
  constexpr std::uint32_t kOps = 8;
  // Serial sweep through plan_a.
  std::vector<std::uint64_t> serial;
  for (TxnId t = 0; t < kTxns; ++t) {
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const OpFault fault = plan_a.ForOp(t, i);
      serial.push_back((static_cast<std::uint64_t>(fault.stall_us) << 1) |
                       (fault.drop ? 1u : 0u));
    }
    serial.push_back(plan_a.AbortAfter(t, kOps).value_or(0));
  }
  for (std::uint64_t step = 0; step < 64; ++step) {
    serial.push_back(plan_a.CorePauseUs(step));
  }

  // The same sweep, sharded over 4 threads in interleaved order and
  // against the sibling instance.
  std::vector<std::uint64_t> sharded(serial.size(), 0);
  std::vector<std::thread> pool;
  for (unsigned shard = 0; shard < 4; ++shard) {
    pool.emplace_back([&, shard] {
      for (TxnId t = kTxns; t-- > 0;) {  // reverse order on purpose
        if (t % 4 != shard) continue;
        const std::size_t base = static_cast<std::size_t>(t) * (kOps + 1);
        for (std::uint32_t i = 0; i < kOps; ++i) {
          const OpFault fault = plan_b.ForOp(t, i);
          sharded[base + i] =
              (static_cast<std::uint64_t>(fault.stall_us) << 1) |
              (fault.drop ? 1u : 0u);
        }
        sharded[base + kOps] = plan_b.AbortAfter(t, kOps).value_or(0);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (std::uint64_t step = 0; step < 64; ++step) {
    sharded[static_cast<std::size_t>(kTxns) * (kOps + 1) + step] =
        plan_b.CorePauseUs(step);
  }
  EXPECT_EQ(serial, sharded);

  // A different seed must not reproduce the schedule.
  const FaultPlan other(0xBEEF, params);
  bool any_difference = false;
  for (TxnId t = 0; t < kTxns && !any_difference; ++t) {
    for (std::uint32_t i = 0; i < kOps; ++i) {
      const OpFault a = plan_a.ForOp(t, i);
      const OpFault b = other.ForOp(t, i);
      if (a.stall_us != b.stall_us || a.drop != b.drop) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

// Boundary semantics of the plan's queries.
TEST(FaultTest, FaultPlanRespectsBounds) {
  FaultPlanParams always;
  always.abort_prob = 1.0;
  always.stall_prob = 1.0;
  always.max_stall_us = 7;
  const FaultPlan plan(0x5EED, always);
  for (TxnId t = 0; t < 64; ++t) {
    // Single-op transactions have no "mid-stream" to abort at.
    EXPECT_EQ(plan.AbortAfter(t, 1), std::nullopt);
    const std::optional<std::uint32_t> after = plan.AbortAfter(t, 5);
    ASSERT_TRUE(after.has_value());
    EXPECT_GE(*after, 1u);
    EXPECT_LE(*after, 4u);
    const OpFault fault = plan.ForOp(t, 0);
    EXPECT_GE(fault.stall_us, 1u);
    EXPECT_LE(fault.stall_us, 7u);
  }
  FaultPlanParams none;  // all probabilities zero
  const FaultPlan quiet(0x5EED, none);
  for (TxnId t = 0; t < 16; ++t) {
    const OpFault fault = quiet.ForOp(t, 3);
    EXPECT_EQ(fault.stall_us, 0u);
    EXPECT_FALSE(fault.drop);
    EXPECT_EQ(quiet.AbortAfter(t, 5), std::nullopt);
  }
  for (std::uint64_t step = 0; step < 32; ++step) {
    EXPECT_EQ(quiet.CorePauseUs(step), 0u);
  }
}

}  // namespace
}  // namespace relser
