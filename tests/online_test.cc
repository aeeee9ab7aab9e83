// Tests for the streaming certifier (OnlineRsrChecker): agreement with
// the offline Theorem 1 test, rejection positions, transaction removal,
// and the DOT export of the maintained graph.
#include <gtest/gtest.h>

#include "core/online.h"
#include "core/paper_examples.h"
#include "core/rsr.h"
#include "graph/cycle.h"
#include "graph/dot.h"
#include "model/text.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TEST(OnlineChecker, AcceptsRelativelySerializableSchedulesEntirely) {
  const PaperExample fig = Figure1();
  for (const char* name : {"Sra", "Srs", "S2"}) {
    const Schedule& schedule = fig.schedule(name);
    EXPECT_EQ(OnlineRsrChecker::FirstRejection(fig.txns, fig.spec, schedule),
              schedule.size())
        << name;
  }
}

TEST(OnlineChecker, AgreesWithOfflineTestOnRandomInstances) {
  Rng rng(0xFACE);
  for (int round = 0; round < 150; ++round) {
    WorkloadParams wp;
    wp.txn_count = 2 + rng.UniformIndex(3);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 4;
    wp.object_count = 2 + rng.UniformIndex(3);
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, rng.UniformDouble(), &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);
    const bool offline = IsRelativelySerializable(txns, schedule, spec);
    const std::size_t rejection =
        OnlineRsrChecker::FirstRejection(txns, spec, schedule);
    EXPECT_EQ(offline, rejection == schedule.size())
        << "round " << round << ": offline says " << offline
        << ", online rejects at " << rejection << "/" << schedule.size();
  }
}

TEST(OnlineChecker, RejectionLeavesStateUnchanged) {
  // Build a prefix, find a rejected op, verify the checker still accepts
  // a different continuation.
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x] w2[y]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  OnlineRsrChecker checker(*txns, spec);
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(0)));  // w1[x]
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(0)));  // r2[x]
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(1)));  // w2[y]
  // r1[y] now closes the sandwich cycle: rejected.
  EXPECT_FALSE(checker.TryAppend(txns->txn(0).op(1)));
  EXPECT_EQ(checker.rejections(), 1u);
  EXPECT_EQ(checker.retained_ops(), 3u);
  // Retry is still rejected (arcs only grow), but state stays coherent.
  EXPECT_FALSE(checker.TryAppend(txns->txn(0).op(1)));
  EXPECT_EQ(checker.rejections(), 2u);
}

TEST(OnlineChecker, RemoveTransactionExactEnablesRetry) {
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x] w2[y]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  OnlineRsrChecker checker(*txns, spec);
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(0)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(0)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(1)));
  EXPECT_FALSE(checker.TryAppend(txns->txn(0).op(1)));
  // Abort T1 and replay it after T2: now serial, accepted.
  checker.RemoveTransactionExact(0);
  EXPECT_EQ(checker.retained_ops(), 2u);
  EXPECT_FALSE(checker.Executed(0, 0));
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(0)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(1)));
  EXPECT_EQ(checker.retained_ops(), 4u);
}

TEST(OnlineChecker, RemoveTransactionExactDropsItsPairs) {
  // Absolute spec: T2 reading w1[x] owes T1 the F-arc w1[y] -> r2[x].
  auto txns = ParseTransactionSet(
      "T1 = w1[x] w1[y]\nT2 = r2[x] w2[y]\nT3 = w3[x]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  const Operation& w1x = txns->txn(0).op(0);
  const Operation& w1y = txns->txn(0).op(1);
  const Operation& r2x = txns->txn(1).op(0);
  {
    OnlineRsrChecker checker(*txns, spec);
    const OpIndexer& ids = checker.indexer();
    ASSERT_TRUE(checker.TryAppend(w1x));
    ASSERT_TRUE(checker.TryAppend(r2x));
    ASSERT_TRUE(checker.TryAppend(txns->txn(2).op(0)));
    checker.RemoveTransactionExact(1);
    // Re-fed, r2[x] reads from w3[x] and has T1 as an ancestor at the
    // same index as before: only a dropped T1 -> T2 pair emits the F-arc
    // again (a stale one would skip it as already emitted).
    ASSERT_TRUE(checker.TryAppend(r2x));
    EXPECT_TRUE(checker.topology().graph().HasEdge(ids.GlobalId(w1y),
                                                   ids.GlobalId(r2x)));
  }
  {
    // A stale pair also changes a decision. In its first incarnation T2
    // precedes T1 (w1[x] follows r2[x]), which leaves the pair
    // T2 -> T1 at T2's index 1. Re-fed, T2 reads w1[x] and T1 then reads
    // w2[z]: a conflict cycle. Only a dropped T2 -> T1 pair re-evaluates
    // T2 at index 0 and emits the F-arc r2[x] -> r1[z] that closes it.
    auto cyc = ParseTransactionSet("T1 = w1[x] r1[z]\nT2 = w2[z] r2[x]\n");
    const AtomicitySpec cyc_spec = AbsoluteSpec(*cyc);
    OnlineRsrChecker checker(*cyc, cyc_spec);
    ASSERT_TRUE(checker.TryAppend(cyc->txn(1).op(0)));
    ASSERT_TRUE(checker.TryAppend(cyc->txn(1).op(1)));
    ASSERT_TRUE(checker.TryAppend(cyc->txn(0).op(0)));
    checker.RemoveTransactionExact(1);
    ASSERT_TRUE(checker.TryAppend(cyc->txn(1).op(0)));
    ASSERT_TRUE(checker.TryAppend(cyc->txn(1).op(1)));
    EXPECT_FALSE(checker.TryAppend(cyc->txn(0).op(1)));
  }
}

TEST(OnlineChecker, ImpliedBArcSkippedThenInsertedAfterAbort) {
  // Absolute spec: w3[x] has w1[x] and r2[x] as frontier predecessors,
  // and r2[x] read from w1[x]. Its B-arc r2[x] -> w3[y] makes the B-arc
  // w1[x] -> w3[y] implied (w1[x] -> r2[x] -> w3[y]), so it is left out
  // (docs/hotpath.md, Lemma 4). Aborting T2 removes that path and
  // re-admits w3[x], which then inserts the B-arc itself.
  auto txns =
      ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\nT3 = w3[y] w3[x]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  OnlineRsrChecker checker(*txns, spec);
  const OpIndexer& ids = checker.indexer();
  const Operation& w1x = txns->txn(0).op(0);
  const Operation& r2x = txns->txn(1).op(0);
  const Operation& w3y = txns->txn(2).op(0);
  const Operation& w3x = txns->txn(2).op(1);
  for (const Operation& op : {w1x, r2x, w3y, w3x}) {
    ASSERT_TRUE(checker.TryAppend(op));
  }
  const Digraph& graph = checker.topology().graph();
  EXPECT_EQ(checker.b_arcs_implied(), 1u);
  EXPECT_FALSE(graph.HasEdge(ids.GlobalId(w1x), ids.GlobalId(w3y)));
  EXPECT_TRUE(graph.HasEdge(ids.GlobalId(r2x), ids.GlobalId(w3y)));
  EXPECT_TRUE(Reachable(graph, ids.GlobalId(w1x), ids.GlobalId(w3y)));

  checker.RemoveTransactionExact(1);
  EXPECT_EQ(checker.replayed_ops(), 1u);
  EXPECT_EQ(checker.b_arcs_implied(), 1u);
  EXPECT_TRUE(graph.HasEdge(ids.GlobalId(w1x), ids.GlobalId(w3y)));
  OnlineRsrChecker fresh(*txns, spec);
  for (const std::size_t gid : checker.feed_log()) {
    ASSERT_TRUE(fresh.TryAppend(ids.Op(*txns, gid)));
  }
  EXPECT_EQ(checker.StateDigest(), fresh.StateDigest());
}

TEST(OnlineChecker, BreakpointsAdmitTheSandwich) {
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x] w2[y]\n");
  AtomicitySpec spec(*txns);
  spec.SetBreakpoint(0, 1, 0);
  spec.SetBreakpoint(1, 0, 0);
  OnlineRsrChecker checker(*txns, spec);
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(0)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(0)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(1).op(1)));
  EXPECT_TRUE(checker.TryAppend(txns->txn(0).op(1)));
  EXPECT_EQ(checker.rejections(), 0u);
}

TEST(OnlineChecker, FullyRelaxedSpecNeverRejects) {
  Rng rng(0xFEEDFACE);
  for (int round = 0; round < 40; ++round) {
    WorkloadParams wp;
    wp.txn_count = 4;
    wp.object_count = 2;
    wp.read_ratio = 0.2;  // heavy conflicts
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = FullyRelaxedSpec(txns);
    const Schedule schedule = RandomSchedule(txns, &rng);
    EXPECT_EQ(OnlineRsrChecker::FirstRejection(txns, spec, schedule),
              schedule.size());
  }
}

TEST(OnlineChecker, RejectionPositionIsMinimal) {
  // Every proper prefix before the first rejection must itself be a
  // relatively serializable partial execution: check by classifying the
  // completed prefix... here we verify the weaker but crisp property that
  // rejection happens exactly at the first position where the offline
  // test on the full schedule's own prefix-graph turns cyclic.
  Rng rng(0xABC);
  int rejected_cases = 0;
  for (int round = 0; round < 200 && rejected_cases < 20; ++round) {
    WorkloadParams wp;
    wp.txn_count = 3;
    wp.max_ops_per_txn = 4;
    wp.object_count = 2;
    wp.read_ratio = 0.3;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.2, &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);
    const std::size_t rejection =
        OnlineRsrChecker::FirstRejection(txns, spec, schedule);
    if (rejection == schedule.size()) continue;
    ++rejected_cases;
    // Feeding a fresh checker the prefix (without the rejected op) must
    // succeed completely.
    OnlineRsrChecker checker(txns, spec);
    for (std::size_t pos = 0; pos < rejection; ++pos) {
      EXPECT_TRUE(checker.TryAppend(schedule.op(pos)));
    }
    EXPECT_FALSE(checker.TryAppend(schedule.op(rejection)));
  }
  EXPECT_GE(rejected_cases, 10);
}

TEST(OnlineChecker, FrontierProbesOnUntouchedAndUnknownObjects) {
  auto txns = ParseTransactionSet("T1 = w1[x] r1[y]\nT2 = r2[x]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  OnlineRsrChecker checker(*txns, spec);
  ASSERT_TRUE(checker.TryAppend(txns->txn(0).op(0)));  // w1[x]
  ASSERT_TRUE(checker.TryAppend(txns->txn(1).op(0)));  // r2[x]
  const ObjectId x = txns->txn(0).op(0).object;
  const ObjectId y = txns->txn(0).op(1).object;  // interned, never fed
  std::vector<std::size_t> readers;
  EXPECT_EQ(checker.FrontierWriterGid(x), checker.indexer().GlobalId(0, 0));
  checker.FrontierReaders(x, &readers);
  EXPECT_EQ(readers,
            std::vector<std::size_t>{checker.indexer().GlobalId(1, 0)});
  const auto object_count = static_cast<ObjectId>(txns->object_count());
  for (const ObjectId object : {y, object_count, object_count + 1000}) {
    readers.clear();
    EXPECT_EQ(checker.FrontierWriterGid(object), OnlineRsrChecker::kNoOp)
        << "object " << object;
    checker.FrontierReaders(object, &readers);
    EXPECT_TRUE(readers.empty()) << "object " << object;
  }
}

TEST(OnlineChecker, StateDigestIgnoresFirstTouchOrder) {
  // No operation conflicts with another, so both feeds reach one state;
  // they first touch the four objects in opposite orders.
  auto txns = ParseTransactionSet("T1 = r1[x] w1[y]\nT2 = w2[z] r2[t]\n");
  const AtomicitySpec spec = AbsoluteSpec(*txns);
  OnlineRsrChecker t1_first(*txns, spec);
  OnlineRsrChecker t2_first(*txns, spec);
  const std::uint64_t empty = t1_first.StateDigest();
  for (const TxnId t : {0u, 1u}) {
    for (const Operation& op : txns->txn(t).ops()) {
      ASSERT_TRUE(t1_first.TryAppend(op));
    }
  }
  for (const TxnId t : {1u, 0u}) {
    for (const Operation& op : txns->txn(t).ops()) {
      ASSERT_TRUE(t2_first.TryAppend(op));
    }
  }
  EXPECT_NE(t1_first.StateDigest(), empty);
  EXPECT_EQ(t1_first.StateDigest(), t2_first.StateDigest());
}

TEST(Dot, ExportsNodesAndLabeledEdges) {
  Digraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  DotOptions options;
  options.name = "test";
  options.node_label = [](NodeId node) { return "op" + std::to_string(node); };
  options.edge_label = [](NodeId from, NodeId to) {
    return from == 0 && to == 1 ? "D" : "";
  };
  const std::string dot = ToDot(graph, options);
  EXPECT_NE(dot.find("digraph test {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"op0\"];"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1 [label=\"D\"];"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2;"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  Digraph graph(1);
  DotOptions options;
  options.node_label = [](NodeId) { return std::string("a\"b"); };
  const std::string dot = ToDot(graph, options);
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace relser
