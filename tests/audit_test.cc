// Tests for the offline auditor: JSONL ingestion (both dialects, all
// the ways a file can be wrong), replay-based checking, epoch
// segmentation, and the golden minimal witness from docs/audit.md's
// worked example (Figure 3's S2 with its final r1[z] flipped to w1[z]).
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/ingest.h"
#include "core/paper_examples.h"
#include "obs/inspect.h"

namespace relser {
namespace {

// Figure 3's schedule S2 in the generic dialect, with the last line's
// r1[z] flipped to w1[z]: the one-bit mutation that closes the
// conflict cycle T1 -> T2 -> T3 -> T1 (docs/audit.md).
const char* const kMutatedFigure3 =
    "{\"txn\": 1, \"op\": 0, \"object\": \"x\", \"rw\": \"w\"}\n"
    "{\"txn\": 2, \"op\": 0, \"object\": \"x\", \"rw\": \"r\"}\n"
    "{\"txn\": 3, \"op\": 0, \"object\": \"z\", \"rw\": \"r\"}\n"
    "{\"txn\": 2, \"op\": 1, \"object\": \"y\", \"rw\": \"w\"}\n"
    "{\"txn\": 3, \"op\": 1, \"object\": \"y\", \"rw\": \"r\"}\n"
    "{\"txn\": 1, \"op\": 1, \"object\": \"z\", \"rw\": \"w\"}\n";

const char* const kTraceHeader =
    "{\"kind\":\"header\",\"version\":1,\"format\":\"relser-trace\","
    "\"txn_count\":2,\"events\":1}\n";

TEST(AuditIngest, MalformedLineFailsWithLineNumber) {
  const std::string text =
      "{\"txn\": 1, \"op\": 0, \"object\": \"x\", \"rw\": \"w\"}\n"
      "this is not json\n";
  const Result<AuditInput> in = IngestHistoryText(text);
  ASSERT_FALSE(in.ok());
  EXPECT_NE(in.status().message().find("line 2"), std::string::npos)
      << in.status().message();
}

TEST(AuditIngest, TruncatedEventLineFails) {
  // A file cut off mid-write: the header is intact, the event is not.
  const std::string text =
      std::string(kTraceHeader) + "{\"seq\":0,\"tick\":0,\"kind\":\"adm";
  EXPECT_FALSE(IngestHistoryText(text).ok());
}

TEST(AuditIngest, UnknownEventKindFails) {
  const std::string text =
      std::string(kTraceHeader) +
      "{\"seq\":0,\"tick\":0,\"kind\":\"frobnicate\",\"txn\":1}\n";
  const Result<AuditInput> in = IngestHistoryText(text);
  ASSERT_FALSE(in.ok());
  EXPECT_NE(in.status().message().find("unknown event kind"),
            std::string::npos)
      << in.status().message();
}

TEST(AuditIngest, VersionMismatchFails) {
  const std::string text =
      "{\"kind\":\"header\",\"version\":999,\"format\":\"relser-trace\"}\n"
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n";
  EXPECT_FALSE(IngestHistoryText(text).ok());
}

TEST(AuditIngest, ExplicitTraceDialectRequiresHeader) {
  IngestOptions options;
  options.dialect = TraceDialect::kRelserTrace;
  const std::string text =
      "{\"seq\":0,\"tick\":0,\"kind\":\"commit\",\"txn\":1}\n";
  EXPECT_FALSE(IngestHistoryText(text, options).ok());
}

TEST(AuditIngest, GenericDialectReconstructsProgramOrder) {
  const Result<AuditInput> in = IngestHistoryText(kMutatedFigure3);
  ASSERT_TRUE(in.ok()) << in.status().message();
  EXPECT_EQ(in->dialect, TraceDialect::kGeneric);
  EXPECT_EQ(in->txns.txn_count(), 3u);
  EXPECT_EQ(in->history.size(), 6u);
  EXPECT_TRUE(in->spec.IsAbsolute());  // the generic default
}

// One transaction of `ops` writes in the generic dialect (program order
// implied), or in the relser-trace dialect with a header that embeds no
// transactions, so both reconstruct it line by line.
std::string LongTransaction(std::size_t ops, bool trace_dialect) {
  std::string text;
  if (trace_dialect) {
    text = "{\"kind\":\"header\",\"version\":1,\"format\":\"relser-trace\"}\n";
  }
  for (std::size_t k = 0; k < ops; ++k) {
    if (trace_dialect) {
      text += "{\"kind\":\"admit\",\"txn\":1,\"op_index\":" +
              std::to_string(k) + ",\"op_type\":\"w\",\"object\":\"x\"}\n";
    } else {
      text += "{\"txn\": 1, \"object\": \"x\", \"rw\": \"w\"}\n";
    }
  }
  return text;
}

// The online checker's 16-bit ancestor columns bound a transaction at
// kMaxTxnOps operations; ingest refuses the next one with a Status that
// names its line, in both dialects, and the longest admissible
// transaction still audits.
TEST(AuditIngest, OverlongTransactionFailsWithLineNumber) {
  for (const bool trace_dialect : {false, true}) {
    const std::size_t header_lines = trace_dialect ? 1 : 0;
    const Result<AuditInput> too_long =
        IngestHistoryText(LongTransaction(kMaxTxnOps + 1, trace_dialect));
    ASSERT_FALSE(too_long.ok()) << "trace dialect " << trace_dialect;
    EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
    const std::string line =
        "line " + std::to_string(kMaxTxnOps + 1 + header_lines) + ":";
    EXPECT_NE(too_long.status().message().find(line), std::string::npos)
        << too_long.status().message();

    const Result<AuditInput> longest =
        IngestHistoryText(LongTransaction(kMaxTxnOps, trace_dialect));
    ASSERT_TRUE(longest.ok()) << longest.status().message();
    ASSERT_EQ(longest->txns.txn(0).size(), kMaxTxnOps);
    EXPECT_TRUE(
        AuditHistory(longest->txns, longest->spec, longest->history).accepted);
  }
}

// Unmutated, Figure 3's S2 is serializable (its conflict graph is
// acyclic), so even the absolute default accepts it.
TEST(AuditHistoryTest, UnmutatedFigure3AcceptsUnderAbsolute) {
  std::string text(kMutatedFigure3);
  const std::size_t flip = text.rfind("\"w\"");
  ASSERT_NE(flip, std::string::npos);
  text.replace(flip, 3, "\"r\"");
  const Result<AuditInput> in = IngestHistoryText(text);
  ASSERT_TRUE(in.ok()) << in.status().message();
  const AuditReport report =
      AuditHistory(in->txns, in->spec, in->history);
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.ops_checked, 6u);
}

// The golden witness: ddmin cannot drop anything from the six-op
// cycle, so the minimal witness is the full mutated schedule.
TEST(AuditHistoryTest, GoldenMinimalWitnessOnMutatedFigure3) {
  const Result<AuditInput> in = IngestHistoryText(kMutatedFigure3);
  ASSERT_TRUE(in.ok()) << in.status().message();
  const AuditReport report =
      AuditHistory(in->txns, in->spec, in->history);
  ASSERT_FALSE(report.accepted);
  EXPECT_EQ(report.first_rejection, 5u);
  ASSERT_TRUE(report.minimized);
  EXPECT_EQ(report.witness_ops.size(), 6u);
  EXPECT_EQ(report.witness_text, "w1[x] r2[x] r3[z] w2[y] r3[y] w1[z]");
  // The witness is self-contained: replaying it violates again.
  EXPECT_TRUE(HistoryViolates(report.witness.txns, report.witness.spec,
                              report.witness.ops));
}

// Epoch segmentation must map rejection indices and witness arcs back
// to global coordinates: a committed filler epoch in front of the
// cycle shifts first_rejection by the epoch's length but leaves the
// witness the same six operations.
TEST(AuditHistoryTest, SegmentedScanMapsIndicesBack) {
  const std::string text =
      "{\"txn\": 9, \"op\": 0, \"object\": \"f\", \"rw\": \"w\"}\n"
      "{\"txn\": 8, \"op\": 0, \"object\": \"f\", \"rw\": \"r\"}\n" +
      std::string(kMutatedFigure3);
  const Result<AuditInput> in = IngestHistoryText(text);
  ASSERT_TRUE(in.ok()) << in.status().message();
  const AuditReport report =
      AuditHistory(in->txns, in->spec, in->history);
  ASSERT_FALSE(report.accepted);
  EXPECT_EQ(report.first_rejection, 7u);
  ASSERT_TRUE(report.minimized);
  EXPECT_EQ(report.witness_ops.size(), 6u);
  EXPECT_TRUE(HistoryViolates(report.witness.txns, report.witness.spec,
                              report.witness.ops));
}

// Figure 1's S2 is the paper's motivating contrast: accepted under its
// own relative spec, rejected under absolute atomicity with a four-op
// minimal witness.
TEST(AuditHistoryTest, Figure1ContrastsRelativeAndAbsolute) {
  const PaperExample fig1 = Figure1();
  const std::vector<Operation>& ops = fig1.schedule("S2").ops();
  EXPECT_TRUE(AuditHistory(fig1.txns, fig1.spec, ops).accepted);
  const AuditReport abs =
      AuditHistory(fig1.txns, AtomicitySpec(fig1.txns), ops);
  ASSERT_FALSE(abs.accepted);
  ASSERT_TRUE(abs.minimized);
  EXPECT_EQ(abs.witness_ops.size(), 4u);
}

// ExportWitness writes a version-1 trace that passes the shared
// validator and, audited back, reproduces the violation.
TEST(AuditExport, WitnessRoundTripsThroughValidatorAndAuditor) {
  const Result<AuditInput> in = IngestHistoryText(kMutatedFigure3);
  ASSERT_TRUE(in.ok()) << in.status().message();
  const AuditReport report =
      AuditHistory(in->txns, in->spec, in->history);
  ASSERT_TRUE(report.minimized);

  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/audit_witness.jsonl";
  const std::string chrome = dir + "/audit_witness.chrome.json";
  ASSERT_TRUE(ExportWitness(report, jsonl, chrome));

  std::ifstream file(jsonl);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  const TraceValidation validation = ValidateTraceJsonl(content.str());
  EXPECT_TRUE(validation.ok) << (validation.errors.empty()
                                     ? std::string("no errors recorded")
                                     : validation.errors.front());
  EXPECT_EQ(validation.version, 1);

  const Result<AuditInput> back = IngestHistoryText(content.str());
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->txns_from_header);
  EXPECT_TRUE(back->spec_from_header);
  const AuditReport again =
      AuditHistory(back->txns, back->spec, back->history);
  EXPECT_FALSE(again.accepted);
}

}  // namespace
}  // namespace relser
