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

// The compare pass in two phases (docs/hotpath.md, "The F/B scan"): an
// append with no foreign predecessor skips it, and any other append
// evaluates only the columns it gathered as raised. T = 67 is no
// multiple of 8, 16 or 64. One append (J0) raises the first and the last
// column at once, and the only arc that closes the later cycle is the
// last column's F-arc from that append: a gather that misses column T-1,
// or a skip taken with predecessors present, admits a non-RSR prefix.
TEST(DifferentialOnline, CompareSkipAndGatherCoverFirstAndLastColumns) {
  constexpr TxnId kTxns = 67;
  constexpr TxnId kX = 0;
  constexpr TxnId kJ = 33;
  constexpr TxnId kK = 50;
  constexpr TxnId kA = kTxns - 1;
  TransactionSet txns;
  const ObjectId y = txns.AddObjects(1 + kTxns);  // y, then one per txn
  const auto own = [y](TxnId t) { return static_cast<ObjectId>(y + 1 + t); };
  for (TxnId t = 0; t < kTxns; ++t) {
    Transaction* txn = txns.AddTransaction();
    if (t == kA) {
      txn->Write(y);       // A0
      txn->Read(own(t));   // A1: conflicts with nothing
      txn->Write(y);       // A2
    } else if (t == kJ) {
      txn->Write(y);       // J0
      txn->Write(own(t));  // J1: no predecessor
    } else if (t == kX || t == kK) {
      txn->Read(y);
    } else {
      txn->Write(own(t));
    }
  }
  // Every unit is a single operation except A's: relative to J, A0 and
  // A1 form one unit (F-arc A1 -> J0 once J0 depends on A0); relative
  // to K, A1 and A2 do (B-arc K0 -> A1 once A2 depends on K0).
  AtomicitySpec spec(txns);
  for (TxnId i = 0; i < kTxns; ++i) {
    for (TxnId k = 0; k < kTxns; ++k) {
      if (i != k) spec.RelaxFully(i, k);
    }
  }
  spec.ClearBreakpoint(kA, kJ, 0);
  spec.ClearBreakpoint(kA, kK, 1);

  const auto op = [&txns](TxnId t, std::uint32_t index) {
    return txns.txn(t).op(index);
  };
  const std::vector<Operation> feed = {op(kA, 0), op(kX, 0), op(kJ, 0),
                                       op(kJ, 1), op(kK, 0), op(kA, 1),
                                       op(kA, 2)};
  // A2 closes A1 -> J0 -> K0 -> A1.
  const std::vector<bool> expected = {true, true, true, true,
                                      true, true, false};
  const OpIndexer indexer(txns);
  OnlineRsrChecker checker(txns, spec);
  OnlineRsrCheckerBaseline baseline(txns, spec);
  std::vector<Operation> fed;
  for (std::size_t pos = 0; pos < feed.size(); ++pos) {
    std::vector<Operation> prefix = fed;
    prefix.push_back(feed[pos]);
    const bool oracle = !HasCycle(BuildPrefixRsg(txns, indexer, prefix, spec));
    const std::size_t submitted_before = checker.arcs_submitted();
    const std::size_t edges_before = checker.topology().edge_count();
    const bool accepted = checker.TryAppend(feed[pos]).ok();
    ASSERT_EQ(oracle, expected[pos]) << "pos " << pos;
    ASSERT_EQ(accepted, oracle) << "pos " << pos;
    ASSERT_EQ(baseline.TryAppend(feed[pos]), oracle) << "pos " << pos;
    if (pos == 2) {
      // J0 raises columns 0 and T-1 in one append.
      EXPECT_EQ(checker.last_conflicts(), (std::vector<TxnId>{kA, kX}));
    }
    if (pos == 3) {
      // J1 has cross columns but no predecessor: its I-arc alone.
      EXPECT_EQ(checker.arcs_submitted() - submitted_before, 1u);
      EXPECT_EQ(checker.topology().edge_count() - edges_before, 1u);
    }
    if (accepted) fed.push_back(feed[pos]);
  }

  // The rejection aborts A; the survivors re-admit through the same
  // compare pass and must leave the state of a fresh feed.
  checker.RemoveTransactionExact(kA);
  std::erase_if(fed, [](const Operation& o) { return o.txn == kA; });
  OnlineRsrChecker fresh(txns, spec);
  for (const Operation& survivor : fed) {
    ASSERT_TRUE(fresh.TryAppend(survivor).ok());
  }
  EXPECT_EQ(checker.StateDigest(), fresh.StateDigest());
}

}  // namespace
}  // namespace relser
