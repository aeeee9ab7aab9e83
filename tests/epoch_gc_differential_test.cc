// Differential gate for epoch-based stable-prefix GC: with a
// deterministic submission schedule (one client thread, blocking
// submissions), an admitter running GC — checker truncation, arc
// collection, version pruning — must be DECISION- and
// WITNESS-identical to the unbounded admitter: the same per-operation
// outcome sequence, the same per-transaction verdicts, and the same
// committed log, bit for bit. The sweep runs the ShardedAdmitter at 1-4
// shards, with client aborts, fault-plan core pauses and (in rotation)
// the MVCC snapshot fast path enabled on both sides.
//
// RELSER_EPOCH_DIFF_ROUNDS overrides the round count (default 300;
// CI's TSan job runs fewer).
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/rng.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::size_t RoundsFromEnv() {
  if (const char* env = std::getenv("RELSER_EPOCH_DIFF_ROUNDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 300;
}

// One submission-schedule entry: feed the next op of `txn`, or abort it.
struct ScheduleEvent {
  TxnId txn;
  bool abort;
};

// A random interleaving of all transactions' operations, with some
// transactions aborting voluntarily mid-stream. The schedule is data,
// so the GC'd and unbounded runs replay the exact same clicks.
std::vector<ScheduleEvent> MakeSchedule(const TransactionSet& txns,
                                        double abort_prob, Rng* rng) {
  std::vector<std::uint32_t> remaining(txns.txn_count());
  std::vector<std::uint32_t> abort_at(txns.txn_count(), ~0u);
  std::vector<TxnId> live;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    remaining[t] = static_cast<std::uint32_t>(txns.txn(t).size());
    live.push_back(t);
    if (txns.txn(t).size() > 1 && rng->Bernoulli(abort_prob)) {
      abort_at[t] = 1 + static_cast<std::uint32_t>(
                            rng->UniformIndex(txns.txn(t).size() - 1));
    }
  }
  std::vector<ScheduleEvent> schedule;
  std::vector<std::uint32_t> fed(txns.txn_count(), 0);
  while (!live.empty()) {
    const std::size_t pick = rng->UniformIndex(live.size());
    const TxnId t = live[pick];
    if (fed[t] == abort_at[t]) {
      schedule.push_back({t, /*abort=*/true});
      live[pick] = live.back();
      live.pop_back();
      continue;
    }
    schedule.push_back({t, /*abort=*/false});
    ++fed[t];
    if (--remaining[t] == 0) {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return schedule;
}

// Everything the differential compares.
struct RunOutcome {
  std::vector<AdmitOutcome> outcomes;  // per schedule event, in order
  std::vector<AdmitOutcome> verdicts;  // per transaction, final
  std::vector<std::uint8_t> committed;
  std::vector<Operation> log;  // CommittedLog
};

// Replays `schedule` through `admitter` from a single client thread,
// blocking per event and draining the control plane after any event
// that can kill — the deterministic feeding discipline. Without the
// drain, a recoverability cascade crossing shards races the next
// submission (the root's verdict publishes before remote shards apply
// their withdrawals), and "aborted vs accepted" would be a coin flip in
// BOTH runs rather than a property of GC.
RunOutcome Drive(ShardedAdmitter& admitter, const TransactionSet& txns,
                 const std::vector<ScheduleEvent>& schedule,
                 std::uint64_t seed) {
  RunOutcome out;
  out.outcomes.reserve(schedule.size());
  Backoff backoff(seed);
  std::vector<std::uint32_t> next(txns.txn_count(), 0);
  std::vector<std::uint8_t> dead(txns.txn_count(), 0);
  for (const ScheduleEvent& event : schedule) {
    if (dead[event.txn] != 0) {
      // The txn already received a terminal verdict: the client stops
      // submitting it (the feeding contract). Keep sequences aligned.
      out.outcomes.push_back(AdmitOutcome::kAborted);
      continue;
    }
    if (event.abort) {
      out.outcomes.push_back(admitter.AbortTxn(event.txn).outcome);
      dead[event.txn] = 1;
      admitter.Flush();
      continue;
    }
    const AdmitResult result = admitter.SubmitWithBackoff(
        txns.txn(event.txn).op(next[event.txn]), backoff);
    out.outcomes.push_back(result.outcome);
    if (result.ok()) {
      ++next[event.txn];
    } else {
      dead[event.txn] = 1;
      admitter.Flush();
    }
  }
  admitter.Stop();
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    out.verdicts.push_back(admitter.TxnVerdict(t).outcome);
    out.committed.push_back(admitter.TxnCommitted(t) ? 1 : 0);
  }
  out.log = admitter.CommittedLog();
  return out;
}

void ExpectIdentical(const RunOutcome& gc, const RunOutcome& full,
                     std::size_t round) {
  ASSERT_EQ(gc.outcomes, full.outcomes)
      << "round " << round << ": decision sequences diverge";
  ASSERT_EQ(gc.verdicts, full.verdicts)
      << "round " << round << ": final verdicts diverge";
  ASSERT_EQ(gc.committed, full.committed)
      << "round " << round << ": commit sets diverge";
  ASSERT_EQ(gc.log, full.log)
      << "round " << round << ": committed logs diverge";
}

TEST(EpochGcDifferential, GcIsDecisionAndWitnessIdentical) {
  const std::size_t rounds = RoundsFromEnv();
  const Rng base(0xE90C);
  std::uint64_t gc_checkpoints = 0;
  std::uint64_t gc_settled = 0;
  std::uint64_t committed_total = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.Split(round);
    ShardedWorkloadParams wp;
    wp.txn_count = 4 + rng.UniformIndex(8);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.shard_count = 1 + rng.UniformIndex(4);
    wp.objects_per_shard = 2 + rng.UniformIndex(3);
    wp.cross_shard_ratio = rng.UniformDouble() * 0.6;
    wp.zipf_theta = rng.UniformDouble();
    wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    const std::vector<ScheduleEvent> schedule =
        MakeSchedule(txns, rng.UniformDouble() * 0.25, &rng);
    const std::uint64_t drive_seed = rng.Next();

    FaultPlanParams fp;
    fp.core_pause_prob = 0.3;
    fp.max_core_pause_us = 40;
    const FaultPlan faults(rng.Next(), fp);
    const bool with_faults = round % 4 == 1;
    const bool with_snapshots = round % 4 == 2;

    const ShardRouter router(txns.object_count(), wp.shard_count,
                             rng.Bernoulli(0.5) ? ShardStrategy::kRange
                                                : ShardStrategy::kHash);
    ShardedAdmitterOptions gc_opts;
    gc_opts.queue_capacity = 16;
    gc_opts.epoch_gc = true;
    gc_opts.gc_interval = 2;
    gc_opts.snapshot_reads = with_snapshots;
    if (with_faults) gc_opts.faults = &faults;
    ShardedAdmitterOptions full_opts = gc_opts;
    full_opts.epoch_gc = false;
    ShardedAdmitter gc_admitter(txns, spec, router, gc_opts);
    const RunOutcome gc = Drive(gc_admitter, txns, schedule, drive_seed);
    ShardedAdmitter full_admitter(txns, spec, router, full_opts);
    const RunOutcome full = Drive(full_admitter, txns, schedule, drive_seed);
    ExpectIdentical(gc, full, round);
    gc_checkpoints += gc_admitter.checkpoints();
    gc_settled += gc_admitter.epochs()->settled_count();
    for (const std::uint8_t c : gc.committed) committed_total += c;
  }
  // The sweep is vacuous unless GC actually ran and work committed.
  EXPECT_GT(gc_checkpoints, rounds)
      << "GC never truncated — the differential compared nothing";
  EXPECT_GT(gc_settled, 0u);
  EXPECT_GT(committed_total, rounds / 2);
}

}  // namespace
}  // namespace relser
