// Resharding soundness (ShardedAdmitter::InstallRouter): swapping the
// shard router between client phases — splitting a hot range across
// more cores — must not cost correctness. The caller swaps at a
// quiescent cut (no call races the swap, every started transaction is
// committed or dead); the swap settles all history (the quiescent-cut
// theorem: with nothing unfinished that ever appended, a sweep settles
// everything) and rebuilds fresh cores under the new plan. The gate is
// the subsystem's whole claim restated across the swap: the merged
// committed history — pre-swap archive plus post-swap suffix — must
// replay relatively serializably on ONE full checker over the original
// transactions and spec. A swap outside such a cut is a checked failure.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "exec/backoff.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/rng.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TransactionSet MakeWorkload(std::size_t txn_count, Rng* rng) {
  ShardedWorkloadParams wp;
  wp.txn_count = txn_count;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 6;
  wp.shard_count = 2;
  wp.objects_per_shard = 8;  // 16 objects; the 2-shard ranges are "hot"
  wp.cross_shard_ratio = 0.4;
  wp.zipf_theta = 0.7;
  wp.read_ratio = 0.5;
  return GenerateShardedTransactions(wp, rng);
}

// Runs transactions [begin, end) through `admitter` on `client_count`
// threads (round-robin ownership, program order, blocking submits).
void RunClients(ShardedAdmitter& admitter, const TransactionSet& txns,
                TxnId begin, TxnId end, std::size_t client_count,
                std::uint64_t seed) {
  std::vector<std::thread> clients;
  clients.reserve(client_count);
  for (std::size_t c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      Backoff backoff(seed ^ (0xC11E0000ULL + c));
      for (TxnId t = begin + static_cast<TxnId>(c); t < end;
           t = static_cast<TxnId>(t + client_count)) {
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok()) {
            break;
          }
        }
        backoff.Reset();
      }
    });
  }
  for (std::thread& client : clients) client.join();
}

// Replays the merged committed log through one full checker over the
// ORIGINAL transactions and spec; returns committed-transaction count.
std::size_t ReplayGate(const ShardedAdmitter& admitter,
                       const TransactionSet& txns,
                       const AtomicitySpec& spec) {
  OnlineRsrChecker replay(txns, spec);
  const std::vector<Operation> log = admitter.CommittedLog();
  std::vector<std::uint32_t> fed(txns.txn_count(), 0);
  for (std::size_t pos = 0; pos < log.size(); ++pos) {
    EXPECT_TRUE(replay.TryAppend(log[pos]).ok())
        << "merged committed history not relatively serializable at "
        << "position " << pos << " (spans the router swap)";
    EXPECT_EQ(log[pos].index, fed[log[pos].txn]++)
        << "committed log out of program order at position " << pos;
  }
  std::size_t committed = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (admitter.TxnCommitted(t)) {
      EXPECT_EQ(fed[t], txns.txn(t).size());
      ++committed;
    } else {
      EXPECT_EQ(fed[t], 0u);
    }
  }
  return committed;
}

TEST(Reshard, SplitHotRangeBetweenPhasesIsSound) {
  Rng rng(0x5EA7D);
  const TransactionSet txns = MakeWorkload(64, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);

  ShardedAdmitterOptions options;
  options.epoch_gc = true;  // InstallRouter's prerequisite
  options.gc_interval = 4;
  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), 2, ShardStrategy::kRange), options);

  // Phase 1 on the 2-shard plan.
  const TxnId half = static_cast<TxnId>(txns.txn_count() / 2);
  RunClients(admitter, txns, 0, half, 4, rng.Next());

  // Split the two hot ranges across four cores, between the phases.
  admitter.InstallRouter(
      ShardRouter(txns.object_count(), 4, ShardStrategy::kRange));
  EXPECT_EQ(admitter.router_swaps(), 1u);
  ASSERT_NE(admitter.epochs(), nullptr);
  // The swap is a full-history GC tick: everything finished settled.
  EXPECT_GT(admitter.epochs()->settled_count(), 0u);

  // Phase 2 on the 4-shard plan.
  RunClients(admitter, txns, half, static_cast<TxnId>(txns.txn_count()), 4,
             rng.Next());
  admitter.Stop();

  const std::size_t committed = ReplayGate(admitter, txns, spec);
  // Commits on both sides of the swap, or the gate proved nothing.
  std::size_t committed_pre = 0;
  std::size_t committed_post = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (!admitter.TxnCommitted(t)) continue;
    (t < half ? committed_pre : committed_post) += 1;
  }
  EXPECT_GT(committed_pre, 0u);
  EXPECT_GT(committed_post, 0u);
  EXPECT_EQ(committed, committed_pre + committed_post);
}

TEST(Reshard, BackToBackSwapsAtIdleAreSound) {
  Rng rng(0x1D1E);
  const TransactionSet txns = MakeWorkload(32, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);

  ShardedAdmitterOptions options;
  options.epoch_gc = true;
  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), 2, ShardStrategy::kHash), options);

  const TxnId third = static_cast<TxnId>(txns.txn_count() / 3);
  RunClients(admitter, txns, 0, third, 2, rng.Next());
  admitter.InstallRouter(
      ShardRouter(txns.object_count(), 4, ShardStrategy::kRange));
  RunClients(admitter, txns, third, static_cast<TxnId>(2 * third), 2,
             rng.Next());
  admitter.InstallRouter(
      ShardRouter(txns.object_count(), 1, ShardStrategy::kHash));
  RunClients(admitter, txns, static_cast<TxnId>(2 * third),
             static_cast<TxnId>(txns.txn_count()), 2, rng.Next());
  admitter.Stop();

  EXPECT_EQ(admitter.router_swaps(), 2u);
  EXPECT_GT(ReplayGate(admitter, txns, spec), 0u);
}

TEST(ReshardDeathTest, SwapWithAnUnfinishedStartedTransactionAborts) {
  Rng rng(0xD1E5);
  const TransactionSet txns = MakeWorkload(16, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  TxnId open = 0;
  while (txns.txn(open).size() < 2) ++open;

  ShardedAdmitterOptions options;
  options.epoch_gc = true;
  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), 2, ShardStrategy::kRange), options);
  // The first operation of a fresh transaction is always accepted; the
  // transaction stays unfinished until its last one is.
  ASSERT_EQ(admitter.SubmitAndWait(txns.txn(open).op(0)).outcome,
            AdmitOutcome::kAccept);
  ASSERT_FALSE(admitter.TxnCommitted(open));
  EXPECT_DEATH(admitter.InstallRouter(ShardRouter(txns.object_count(), 4,
                                                  ShardStrategy::kRange)),
               "InstallRouter outside a quiescent cut");
}

}  // namespace
}  // namespace relser
