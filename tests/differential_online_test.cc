// Differential tests for the frontier-pruned OnlineRsrChecker.
//
// The optimization contract is *bit-identical admission*: the optimized
// checker must accept/reject at exactly the same schedule prefix as the
// full formulation. Two independent references pin this down:
//
//  1. OnlineRsrCheckerBaseline — the pre-optimization checker (per-op
//     ancestor bitsets, D/F/B arc fan-out per transitive ancestor).
//  2. A batch oracle implemented here from Definition 3 directly: for
//     every fed prefix, rebuild the prefix RSG from scratch (depends-on
//     closure over the fed-op list, then I/D/F/B arcs) and test
//     acyclicity with the offline HasCycle. This shares no code with
//     either online admission path.
//
// The oracle's I-arcs connect only *fed* operations: the online graphs
// never see an unfed operation's program-order arc, and an I-arc chain
// through unfed operations could close a cycle the online prefix cannot.
// F/B arc endpoints may be unfed nodes, exactly as in the online graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/online.h"
#include "core/online_baseline.h"
#include "core/paper_examples.h"
#include "core/rsr.h"
#include "exec/thread_pool.h"
#include "graph/cycle.h"
#include "graph/digraph.h"
#include "model/op_indexer.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

// RSG of the fed prefix, per Definition 3, over the raw fed-op list.
Digraph BuildPrefixRsg(const TransactionSet& txns, const OpIndexer& indexer,
                       const std::vector<Operation>& fed,
                       const AtomicitySpec& spec) {
  Digraph graph(indexer.total_ops());
  // I-arcs between consecutive fed operations of each transaction (ops
  // are fed in program order, so each transaction's fed set is a prefix).
  std::vector<std::uint32_t> fed_count(txns.txn_count(), 0);
  for (const Operation& op : fed) {
    fed_count[op.txn] = std::max(fed_count[op.txn], op.index + 1);
  }
  for (TxnId i = 0; i < txns.txn_count(); ++i) {
    for (std::uint32_t j = 0; j + 1 < fed_count[i]; ++j) {
      graph.AddEdge(indexer.GlobalId(i, j), indexer.GlobalId(i, j + 1));
    }
  }
  // Depends-on closure over fed positions: backward sweep of bit unions,
  // one direct edge per (same txn | conflict) pair in feed order.
  const std::size_t n = fed.size();
  std::vector<DenseBitset> reach;
  reach.reserve(n);
  for (std::size_t p = 0; p < n; ++p) reach.emplace_back(n);
  for (std::size_t p = n; p-- > 0;) {
    for (std::size_t q = p + 1; q < n; ++q) {
      if (fed[p].txn == fed[q].txn || Conflicts(fed[p], fed[q])) {
        reach[p].Set(q);
        reach[p].UnionWith(reach[q]);
      }
    }
  }
  // D/F/B arcs for every cross-transaction dependent pair (rules 2-4).
  for (std::size_t p = 0; p < n; ++p) {
    const Operation& u = fed[p];
    for (std::size_t q = reach[p].FindNext(p + 1); q < n;
         q = reach[p].FindNext(q + 1)) {
      const Operation& v = fed[q];
      if (v.txn == u.txn) continue;
      const NodeId u_id = indexer.GlobalId(u);
      const NodeId v_id = indexer.GlobalId(v);
      graph.AddEdge(u_id, v_id);
      const std::uint32_t pushed = spec.PushForward(u.txn, v.txn, u.index);
      graph.AddEdge(indexer.GlobalId(u.txn, pushed), v_id);
      const std::uint32_t pulled = spec.PullBackward(v.txn, u.txn, v.index);
      graph.AddEdge(u_id, indexer.GlobalId(v.txn, pulled));
    }
  }
  return graph;
}

// Position of the first operation whose prefix RSG turns cyclic, or
// schedule.size() when every prefix stays acyclic.
std::size_t OracleFirstRejection(const TransactionSet& txns,
                                 const AtomicitySpec& spec,
                                 const Schedule& schedule) {
  const OpIndexer indexer(txns);
  std::vector<Operation> fed;
  fed.reserve(schedule.size());
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    fed.push_back(schedule.op(pos));
    if (HasCycle(BuildPrefixRsg(txns, indexer, fed, spec))) return pos;
  }
  return schedule.size();
}

AtomicitySpec DrawSpec(const TransactionSet& txns, Rng* rng) {
  switch (rng->UniformIndex(4)) {
    case 0:
      return RandomSpec(txns, rng->UniformDouble(), rng);
    case 1:
      return RandomUniformObserverSpec(txns, rng->UniformDouble(), rng);
    case 2:
      return RandomCompatibilitySetSpec(txns, 1 + rng->UniformIndex(3), rng);
    default:
      return RandomMultilevelSpec(txns, 1 + rng->UniformIndex(2),
                                  rng->UniformDouble() * 0.5,
                                  rng->UniformDouble(), rng);
  }
}

TEST(DifferentialOnline, OptimizedMatchesBaselineAndOracleOnRandomWorkloads) {
  constexpr std::size_t kRounds = 1200;
  struct RoundOutcome {
    std::size_t oracle = 0;
    std::size_t optimized = 0;
    std::size_t baseline = 0;
    std::size_t schedule_size = 0;
  };
  const Rng base(0xD1FF);
  std::vector<RoundOutcome> outcomes(kRounds);
  ThreadPool pool(ThreadPool::HardwareConcurrency());
  // Rounds are Rng::Split-seeded, so the sweep is independent of thread
  // count. gtest assertions are not thread-safe: workers only fill their
  // private outcome slot; every assertion runs on the main thread below.
  ParallelFor(&pool, 0, kRounds, /*grain=*/8,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t round = lo; round < hi; ++round) {
                  Rng rng = base.Split(round);
                  WorkloadParams wp;
                  wp.txn_count = 2 + rng.UniformIndex(4);
                  wp.min_ops_per_txn = 1;
                  wp.max_ops_per_txn = 5;
                  wp.object_count = 2 + rng.UniformIndex(3);
                  wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
                  const TransactionSet txns = GenerateTransactions(wp, &rng);
                  const AtomicitySpec spec = DrawSpec(txns, &rng);
                  const Schedule schedule = RandomSchedule(txns, &rng);
                  RoundOutcome& out = outcomes[round];
                  out.schedule_size = schedule.size();
                  out.oracle = OracleFirstRejection(txns, spec, schedule);
                  out.optimized =
                      OnlineRsrChecker::FirstRejection(txns, spec, schedule);
                  out.baseline = OnlineRsrCheckerBaseline::FirstRejection(
                      txns, spec, schedule);
                }
              });
  int rejected_cases = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const RoundOutcome& out = outcomes[round];
    ASSERT_EQ(out.optimized, out.oracle)
        << "round " << round << ": optimized rejects at " << out.optimized
        << ", oracle at " << out.oracle << " of " << out.schedule_size;
    ASSERT_EQ(out.baseline, out.oracle)
        << "round " << round << ": baseline rejects at " << out.baseline
        << ", oracle at " << out.oracle << " of " << out.schedule_size;
    if (out.oracle < out.schedule_size) ++rejected_cases;
  }
  // The sweep must exercise both outcomes heavily to mean anything.
  EXPECT_GE(rejected_cases, 100);
}

TEST(DifferentialOnline, OptimizedMatchesBaselineAndOracleOnPaperExamples) {
  for (const PaperExample& example : AllPaperExamples()) {
    for (const auto& [name, schedule] : example.schedules) {
      const std::size_t oracle =
          OracleFirstRejection(example.txns, example.spec, schedule);
      const std::size_t optimized =
          OnlineRsrChecker::FirstRejection(example.txns, example.spec,
                                           schedule);
      const std::size_t baseline = OnlineRsrCheckerBaseline::FirstRejection(
          example.txns, example.spec, schedule);
      EXPECT_EQ(optimized, oracle) << example.name << "/" << name;
      EXPECT_EQ(baseline, oracle) << example.name << "/" << name;
      // Full acceptance must coincide with the offline Theorem 1 test.
      EXPECT_EQ(oracle == schedule.size(),
                IsRelativelySerializable(example.txns, schedule, example.spec))
          << example.name << "/" << name;
    }
  }
}

TEST(DifferentialOnline, FrontierPruningNeverInsertsMoreArcsThanBaseline) {
  Rng rng(0xA2C5);
  for (int round = 0; round < 200; ++round) {
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(3);
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 6;
    wp.object_count = 2 + rng.UniformIndex(3);
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = DrawSpec(txns, &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);

    OnlineRsrChecker optimized(txns, spec);
    OnlineRsrCheckerBaseline baseline(txns, spec);
    for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
      const bool a = optimized.TryAppend(schedule.op(pos)).ok();
      const bool b = baseline.TryAppend(schedule.op(pos));
      ASSERT_EQ(a, b) << "round " << round << " pos " << pos;
      if (!a) break;
    }
    EXPECT_LE(optimized.topology().edge_count(),
              baseline.topology().edge_count())
        << "round " << round;
  }
}

// Abort-path exactness: after any mix of accepted operations, rejections
// and RemoveTransactionExact calls, every execution the checker has
// admitted must still be relatively serializable, and every decision must
// equal the full-emission baseline's on a fresh feed of the surviving
// execution — aborts leave no conservatism behind.
TEST(DifferentialOnline, AcceptedExecutionsStayExactAcrossAborts) {
  Rng rng(0xAB0F);
  for (int round = 0; round < 250; ++round) {
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(3);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 4;
    wp.object_count = 2 + rng.UniformIndex(2);
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = DrawSpec(txns, &rng);
    const OpIndexer indexer(txns);
    OnlineRsrChecker checker(txns, spec);

    std::vector<Operation> fed;  // surviving execution, feed order
    std::vector<std::uint32_t> next(txns.txn_count(), 0);
    auto drop_txn = [&](TxnId t) {
      checker.RemoveTransactionExact(t);
      std::erase_if(fed, [t](const Operation& op) { return op.txn == t; });
      next[t] = 0;
    };

    for (int step = 0; step < 60; ++step) {
      const TxnId t = static_cast<TxnId>(rng.UniformIndex(txns.txn_count()));
      if (next[t] < txns.txn(t).size() && rng.UniformDouble() < 0.85) {
        const Operation& op = txns.txn(t).op(next[t]);
        OnlineRsrCheckerBaseline fresh(txns, spec);
        for (const Operation& survivor : fed) {
          ASSERT_TRUE(fresh.TryAppend(survivor)) << "round " << round;
        }
        const bool expected = fresh.TryAppend(op);
        ASSERT_EQ(checker.TryAppend(op).ok(), expected)
            << "round " << round << " step " << step;
        if (expected) {
          fed.push_back(op);
          ++next[t];
        } else {
          // Rejected: the transaction cannot proceed; abort and retry it
          // from scratch later, as a scheduler would.
          drop_txn(t);
        }
      } else if (next[t] > 0 && rng.UniformDouble() < 0.3) {
        drop_txn(t);  // spontaneous abort of a partially executed txn
      }
      ASSERT_EQ(checker.retained_ops(), fed.size()) << "round " << round;
      ASSERT_FALSE(HasCycle(BuildPrefixRsg(txns, indexer, fed, spec)))
          << "round " << round << " step " << step
          << ": checker admitted a non-RSR execution";
    }
    for (const Operation& op : fed) {
      EXPECT_TRUE(checker.Executed(op.txn, op.index));
    }
  }
}

}  // namespace
}  // namespace relser
