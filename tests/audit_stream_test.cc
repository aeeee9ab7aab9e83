// Tests for the constant-memory streaming auditor (audit/stream.h):
// verdicts, rejection indices and minimized witnesses must match the
// batch auditor exactly, while retention stays bounded by the widest
// epoch segment instead of the stream length.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/ingest.h"
#include "audit/stream.h"
#include "core/paper_examples.h"
#include "model/text.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "spec/text.h"

namespace relser {
namespace {

// Renders `ops` as a self-contained relser-trace document (header with
// embedded txns + spec, one admit per op) — the shape engine runs and
// the auditor's own exports emit.
std::string TraceText(const TransactionSet& txns, const AtomicitySpec& spec,
                      const std::vector<Operation>& ops) {
  Tracer tracer(TraceLevel::kFull);
  std::vector<std::uint32_t> fed(txns.txn_count(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    tracer.SetTick(i);
    tracer.RecordAdmit(ops[i], i, 0);
    if (++fed[ops[i].txn] == txns.txn(ops[i].txn).size()) {
      tracer.RecordCommit(ops[i].txn, i);
    }
  }
  return TraceToJsonl(tracer, txns, ToString(txns, spec));
}

// `pairs` sequential two-transaction groups: group g holds T(2g) and
// T(2g+1) on private objects, interleaved then completed — so the
// stream quiesces after every group and each group is one segment.
struct GroupedWorkload {
  TransactionSet txns;
  std::vector<Operation> ops;
};

GroupedWorkload MakeGroups(std::size_t pairs) {
  GroupedWorkload w;
  for (std::size_t g = 0; g < pairs; ++g) {
    Transaction* a = w.txns.AddTransaction();
    Transaction* b = w.txns.AddTransaction();
    // append() rather than operator+: GCC 12 flags `"a" + to_string(g)`
    // with a false-positive -Werror=restrict at -O2/-O3.
    const ObjectId oa =
        w.txns.InternObject(std::string("a").append(std::to_string(g)));
    const ObjectId ob =
        w.txns.InternObject(std::string("b").append(std::to_string(g)));
    a->Read(oa);
    a->Write(oa);
    b->Read(ob);
    b->Write(ob);
    const TxnId ta = static_cast<TxnId>(2 * g);
    const TxnId tb = static_cast<TxnId>(2 * g + 1);
    w.ops.push_back(w.txns.txn(ta).op(0));
    w.ops.push_back(w.txns.txn(tb).op(0));
    w.ops.push_back(w.txns.txn(ta).op(1));
    w.ops.push_back(w.txns.txn(tb).op(1));
  }
  return w;
}

TEST(AuditStream, MultiSegmentAcceptWithBoundedRetention) {
  const GroupedWorkload w = MakeGroups(3);
  const std::string text =
      TraceText(w.txns, AtomicitySpec(w.txns), w.ops);

  std::istringstream in(text);
  const Result<StreamAuditResult> streamed = StreamAuditTrace(in);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  EXPECT_TRUE(streamed->accepted);
  EXPECT_EQ(streamed->ops, 12u);
  EXPECT_EQ(streamed->segments, 3u);
  EXPECT_EQ(streamed->max_segment_ops, 4u);  // one group, not the stream

  const Result<AuditInput> batch = IngestHistoryText(text);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(
      AuditHistory(batch->txns, batch->spec, batch->history).accepted);
}

TEST(AuditStream, ViolationMatchesBatchGloballyIndexedWitnessIncluded) {
  // Segment 1: a clean pair group. Segment 2: the classic write-skew
  // cycle r3[x] r4[y] w4[x] w3[y] — rejected at the cycle-closing op.
  GroupedWorkload w = MakeGroups(1);
  Transaction* t3 = w.txns.AddTransaction();
  Transaction* t4 = w.txns.AddTransaction();
  const ObjectId x = w.txns.InternObject("x");
  const ObjectId y = w.txns.InternObject("y");
  t3->Read(x);
  t3->Write(y);
  t4->Read(y);
  t4->Write(x);
  w.ops.push_back(w.txns.txn(2).op(0));  // r3[x]
  w.ops.push_back(w.txns.txn(3).op(0));  // r4[y]
  w.ops.push_back(w.txns.txn(3).op(1));  // w4[x]
  w.ops.push_back(w.txns.txn(2).op(1));  // w3[y]
  const std::string text =
      TraceText(w.txns, AtomicitySpec(w.txns), w.ops);

  const Result<AuditInput> batch_in = IngestHistoryText(text);
  ASSERT_TRUE(batch_in.ok());
  const AuditReport batch =
      AuditHistory(batch_in->txns, batch_in->spec, batch_in->history);
  ASSERT_FALSE(batch.accepted);

  std::istringstream in(text);
  const Result<StreamAuditResult> streamed = StreamAuditTrace(in);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  EXPECT_FALSE(streamed->accepted);
  EXPECT_EQ(streamed->segments, 2u);
  EXPECT_EQ(streamed->segment_start, 4u);
  // Identical global rejection index and identical minimized witness.
  EXPECT_EQ(streamed->first_rejection, batch.first_rejection);
  EXPECT_EQ(streamed->report.rejection.outcome, batch.rejection.outcome);
  ASSERT_TRUE(streamed->report.minimized);
  ASSERT_TRUE(batch.minimized);
  EXPECT_EQ(streamed->report.witness_text, batch.witness_text);
}

TEST(AuditStream, LongQuiescentStreamRetainsOneSegment) {
  // 200 sequential transactions on one object: 200 cuts, so the
  // auditor never holds more than one transaction's two operations —
  // the constant-memory claim in miniature.
  TransactionSet txns;
  std::vector<Operation> ops;
  const char* const obj = "x";
  for (std::size_t i = 0; i < 200; ++i) {
    Transaction* t = txns.AddTransaction();
    const ObjectId o = txns.InternObject(obj);
    t->Read(o);
    t->Write(o);
    ops.push_back(txns.txn(static_cast<TxnId>(i)).op(0));
    ops.push_back(txns.txn(static_cast<TxnId>(i)).op(1));
  }
  const std::string text = TraceText(txns, AtomicitySpec(txns), ops);

  std::istringstream in(text);
  const Result<StreamAuditResult> streamed = StreamAuditTrace(in);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  EXPECT_TRUE(streamed->accepted);
  EXPECT_EQ(streamed->ops, 400u);
  EXPECT_EQ(streamed->segments, 200u);
  EXPECT_EQ(streamed->max_segment_ops, 2u);
}

TEST(AuditStream, SpecOverridesMirrorTheBatchAuditor) {
  // Figure 1's S2: accepted under its relative spec, a violation under
  // absolute atomicity — the spec override must flip the verdict.
  PaperExample fig1 = Figure1();
  const std::string text =
      TraceText(fig1.txns, fig1.spec, fig1.schedule("S2").ops());

  {
    std::istringstream in(text);
    const Result<StreamAuditResult> relative = StreamAuditTrace(in);
    ASSERT_TRUE(relative.ok()) << relative.status().message();
    EXPECT_TRUE(relative->accepted);
    EXPECT_TRUE(relative->header.spec_from_header);
  }
  {
    StreamAuditOptions options;
    options.spec_absolute = true;
    std::istringstream in(text);
    const Result<StreamAuditResult> absolute = StreamAuditTrace(in, options);
    ASSERT_TRUE(absolute.ok()) << absolute.status().message();
    EXPECT_FALSE(absolute->accepted);
  }
}

TEST(AuditStream, GenericDialectIsRefused) {
  std::istringstream in(
      "{\"txn\": 1, \"op\": 0, \"object\": \"x\", \"rw\": \"w\"}\n");
  const Result<StreamAuditResult> streamed = StreamAuditTrace(in);
  ASSERT_FALSE(streamed.ok());
  EXPECT_NE(streamed.status().message().find("header"), std::string::npos)
      << streamed.status().message();
}

TEST(AuditStream, HeaderWithoutTransactionsIsRefused) {
  std::istringstream in(
      "{\"kind\":\"header\",\"version\":1,\"format\":\"relser-trace\"}\n"
      "{\"kind\":\"admit\",\"txn\":1,\"op_index\":0,\"op_type\":\"w\","
      "\"object\":\"x\"}\n");
  const Result<StreamAuditResult> streamed = StreamAuditTrace(in);
  ASSERT_FALSE(streamed.ok());
  EXPECT_NE(streamed.status().message().find("txns"), std::string::npos)
      << streamed.status().message();
}

}  // namespace
}  // namespace relser
