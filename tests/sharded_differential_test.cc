// Differential soundness sweep for the sharded admission subsystem
// (src/shard/): randomized multi-shard workloads driven by one client
// thread per transaction, at shard counts {1, 2, 4, 8}, with random
// specs, both router strategies, client aborts, and fault-plan core
// pauses. The gate is the subsystem's whole claim: every committed
// merged history must replay relatively serializably on ONE full
// OnlineRsrChecker over the original (unprojected) transactions and
// spec — per-shard acyclicity plus coordinator acyclicity must imply
// global acyclicity, no matter how the cores interleave.
//
// RELSER_SHARD_DIFF_ROUNDS overrides the round count (default 504, a
// multiple of the four shard counts); CI's TSan job runs fewer. Whether
// a random round closes a cross-shard cycle depends on thread timing, so
// one fixed round with a planted cross-shard write skew runs first and
// keeps the coordinator-reject bound independent of the schedule.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "model/text.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/rng.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::size_t RoundsFromEnv() {
  if (const char* env = std::getenv("RELSER_SHARD_DIFF_ROUNDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 504;
}

TEST(ShardedDifferential, CommittedHistoriesReplayOnTheFullChecker) {
  const std::size_t rounds = RoundsFromEnv();
  constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
  const Rng base(0x5AD1FF);
  std::size_t committed_txns = 0;
  std::size_t aborted_txns = 0;
  std::uint64_t coordinator_rejects = 0;
  {
    // Cross-shard write skew under the absolute spec, fed from this one
    // thread in a fixed order: x lives on shard 0 and y on shard 1, so
    // each shard sees one conflict and only the coordinator sees the
    // cycle T1 -> T2 -> T1 that w2[x] closes.
    const Result<TransactionSet> skew =
        ParseTransactionSet("T1 = r1[x] w1[y]\nT2 = r2[y] w2[x]\n");
    ASSERT_TRUE(skew.ok());
    const AtomicitySpec absolute(*skew);
    ShardedAdmitter admitter(
        *skew, absolute,
        ShardRouter(skew->object_count(), 2, ShardStrategy::kRange));
    const TransactionSet& txns = *skew;
    EXPECT_TRUE(admitter.SubmitAndWait(txns.txn(0).op(0)).ok());
    EXPECT_TRUE(admitter.SubmitAndWait(txns.txn(1).op(0)).ok());
    EXPECT_TRUE(admitter.SubmitAndWait(txns.txn(0).op(1)).ok());
    EXPECT_FALSE(admitter.SubmitAndWait(txns.txn(1).op(1)).ok());
    admitter.Stop();
    EXPECT_EQ(admitter.coordinator().rejects(), 1u);
    EXPECT_TRUE(admitter.TxnCommitted(0));
    EXPECT_FALSE(admitter.TxnCommitted(1));
    coordinator_rejects += admitter.coordinator().rejects();
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.Split(round);
    const std::size_t shard_count = kShardCounts[round % 4];
    ShardedWorkloadParams wp;
    wp.txn_count = 4 + rng.UniformIndex(8);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 5;
    wp.shard_count = shard_count;
    wp.objects_per_shard = 2 + rng.UniformIndex(3);  // dense: real conflicts
    wp.cross_shard_ratio = rng.UniformDouble() * 0.6;
    wp.zipf_theta = rng.UniformDouble();
    wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    const ShardRouter router(txns.object_count(), shard_count,
                             rng.Bernoulli(0.5) ? ShardStrategy::kRange
                                                : ShardStrategy::kHash);

    // A quarter of the rounds also run under deterministic core pauses,
    // shaking the cross-core control-channel and kill-race paths.
    FaultPlanParams fp;
    fp.core_pause_prob = 0.3;
    fp.max_core_pause_us = 40;
    const FaultPlan faults(rng.Next(), fp);
    ShardedAdmitterOptions options;
    options.queue_capacity = 16;  // small inboxes: exercise backpressure
    if (round % 4 == 3) options.faults = &faults;
    ShardedAdmitter admitter(txns, spec, router, options);

    // One client thread per transaction, program order, blocking
    // submissions — the admitter's feeding contract. Some transactions
    // give up voluntarily mid-stream (client abort).
    const double abort_prob = rng.UniformDouble() * 0.2;
    std::vector<std::uint64_t> seeds(txns.txn_count());
    for (auto& seed : seeds) seed = rng.Next();
    std::vector<std::thread> clients;
    clients.reserve(txns.txn_count());
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      clients.emplace_back([&, t] {
        Rng local(seeds[t]);
        Backoff backoff(seeds[t] ^ 0xB0FF);
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (i > 0 && local.Bernoulli(abort_prob)) {
            admitter.AbortTxn(t);
            return;
          }
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok()) {
            return;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    admitter.Stop();

    // The gate: the merged committed history, in global admission
    // order, replays clean through a full single checker over the
    // ORIGINAL transactions and spec.
    OnlineRsrChecker replay(txns, spec);
    const std::vector<Operation> log = admitter.CommittedLog();
    std::vector<std::uint32_t> fed(txns.txn_count(), 0);
    for (std::size_t pos = 0; pos < log.size(); ++pos) {
      ASSERT_TRUE(replay.TryAppend(log[pos]).ok())
          << "round " << round << " (" << shard_count << " shards): "
          << "committed history not relatively serializable at position "
          << pos;
      ASSERT_EQ(log[pos].index, fed[log[pos].txn]++)
          << "round " << round << ": committed log out of program order";
    }
    // Committed transactions appear in full; everything else not at all.
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      if (admitter.TxnCommitted(t)) {
        ASSERT_EQ(fed[t], txns.txn(t).size()) << "round " << round;
        ++committed_txns;
      } else {
        ASSERT_EQ(fed[t], 0u) << "round " << round;
        if (admitter.TxnVerdict(t).outcome == AdmitOutcome::kAborted) {
          ++aborted_txns;
        }
      }
    }
    coordinator_rejects += admitter.coordinator().rejects();
  }
  // The sweep must exercise the interesting regimes to mean anything.
  EXPECT_GT(committed_txns, rounds) << "commits should dominate";
  EXPECT_GT(aborted_txns, 0u);
  EXPECT_GT(coordinator_rejects, 0u)
      << "the sweep never hit a cross-shard transaction-level cycle";
}

}  // namespace
}  // namespace relser
