// Tests for the text notation: transaction-set / schedule / operation
// parsing, round-trips through the printers, and error reporting.
#include <gtest/gtest.h>

#include "model/text.h"
#include "spec/text.h"

namespace relser {
namespace {

TEST(ParseTransactionSet, ParsesPaperNotation) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] w1[z] r1[y]\n"
      "T2 = r2[y] w2[y] r2[x]\n");
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(txns->txn_count(), 2u);
  EXPECT_EQ(txns->txn(0).size(), 4u);
  EXPECT_EQ(txns->txn(1).size(), 3u);
  EXPECT_EQ(txns->object_count(), 3u);
  EXPECT_EQ(ToString(*txns, txns->txn(0)), "r1[x]w1[x]w1[z]r1[y]");
}

TEST(ParseTransactionSet, WhitespaceIsOptional) {
  auto txns = ParseTransactionSet("T1=r1[x]w1[y]\nT2=w2[x]");
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(txns->txn(0).size(), 2u);
}

TEST(ParseTransactionSet, LabelsAreOptional) {
  auto txns = ParseTransactionSet("r1[x] w1[x]\nr2[x]\n");
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(txns->txn_count(), 2u);
}

// kMaxTxnOps bounds a transaction (the online checker's 16-bit ancestor
// columns); one operation more is a Status, not an abort.
TEST(ParseTransactionSet, RefusesTransactionsOverTheLengthBound) {
  const auto text_of = [](std::size_t ops) {
    std::string text = "T1 = r1[x]; T2 = ";
    for (std::size_t k = 0; k < ops; ++k) text += "w2[x]";
    return text;
  };
  const auto too_long = ParseTransactionSet(text_of(kMaxTxnOps + 1));
  ASSERT_FALSE(too_long.ok());
  EXPECT_EQ(too_long.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_long.status().message().find("T2"), std::string::npos)
      << too_long.status().message();

  const auto longest = ParseTransactionSet(text_of(kMaxTxnOps));
  ASSERT_TRUE(longest.ok()) << longest.status().message();
  EXPECT_EQ(longest->txn(1).size(), kMaxTxnOps);
}

TEST(ParseTransactionSet, SemicolonSeparatesTransactions) {
  auto txns = ParseTransactionSet("r1[x]; w2[x]; r3[y]");
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(txns->txn_count(), 3u);
}

TEST(ParseTransactionSet, RejectsOutOfOrderLabels) {
  auto txns = ParseTransactionSet("T2 = r2[x]\nT1 = r1[x]\n");
  ASSERT_FALSE(txns.ok());
  EXPECT_EQ(txns.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseTransactionSet, RejectsForeignOperationNumber) {
  auto txns = ParseTransactionSet("T1 = r1[x] w2[x]\n");
  EXPECT_FALSE(txns.ok());
}

TEST(ParseTransactionSet, RejectsMalformedTokens) {
  EXPECT_FALSE(ParseTransactionSet("T1 = x1[r]").ok());   // bad kind
  EXPECT_FALSE(ParseTransactionSet("T1 = r[x]").ok());    // no number
  EXPECT_FALSE(ParseTransactionSet("T1 = r0[x]").ok());   // 0 is invalid
  EXPECT_FALSE(ParseTransactionSet("T1 = r1[x").ok());    // no ']'
  EXPECT_FALSE(ParseTransactionSet("T1 = r1 x]").ok());   // no '['
  EXPECT_FALSE(ParseTransactionSet("T1 = r1[]").ok());    // empty name
  EXPECT_FALSE(ParseTransactionSet("").ok());             // no txns
  EXPECT_FALSE(ParseTransactionSet("T1 r1[x]").ok());     // missing '='
}

TEST(ParseTransactionSet, ObjectNamesAllowAlnumUnderscore) {
  auto txns = ParseTransactionSet("T1 = r1[acct_01] w1[f0_x]");
  ASSERT_TRUE(txns.ok());
  EXPECT_EQ(txns->ObjectName(0), "acct_01");
}

TEST(ParseSchedule, AcceptsCompletePermutation) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = w2[x]\n");
  ASSERT_TRUE(txns.ok());
  auto schedule = ParseSchedule(*txns, "r1[x] w2[x] w1[x]");
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(ToString(*txns, *schedule), "r1[x]w2[x]w1[x]");
}

TEST(ParseSchedule, RejectsIncompleteSchedule) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = w2[x]\n");
  EXPECT_FALSE(ParseSchedule(*txns, "r1[x] w2[x]").ok());
}

TEST(ParseSchedule, RejectsOutOfProgramOrder) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[y]\nT2 = w2[x]\n");
  EXPECT_FALSE(ParseSchedule(*txns, "w1[y] r1[x] w2[x]").ok());
}

TEST(ParseSchedule, RejectsUnknownOperation) {
  auto txns = ParseTransactionSet("T1 = r1[x]\n");
  EXPECT_FALSE(ParseSchedule(*txns, "w1[x]").ok());
  EXPECT_FALSE(ParseSchedule(*txns, "r2[x]").ok());
  EXPECT_FALSE(ParseSchedule(*txns, "r1[z]").ok());
}

TEST(ParseSchedule, HandlesRepeatedIdenticalOperations) {
  // A transaction may read the same object twice; tokens resolve to
  // occurrences in program order.
  auto txns = ParseTransactionSet("T1 = r1[x] w1[y] r1[x]\nT2 = w2[y]\n");
  ASSERT_TRUE(txns.ok());
  auto schedule = ParseSchedule(*txns, "r1[x] w2[y] w1[y] r1[x]");
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->op(0).index, 0u);
  EXPECT_EQ(schedule->op(3).index, 2u);
}

TEST(ParseOperationList, PartialListsAllowed) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x] w1[z]\n");
  auto ops = ParseOperationList(*txns, "w1[x] w1[z]");
  ASSERT_TRUE(ops.ok());
  EXPECT_EQ(ops->size(), 2u);
  EXPECT_EQ((*ops)[0].index, 1u);
}

TEST(SpecText, ParsesUnitsAndDefaults) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x] w1[z]\nT2 = r2[x]\n");
  ASSERT_TRUE(txns.ok());
  auto spec = ParseAtomicitySpec(*txns,
                                 "Atomicity(T1,T2): r1[x] w1[x] | w1[z]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->UnitCount(0, 1), 2u);
  EXPECT_TRUE(spec->HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(spec->HasBreakpoint(0, 1, 0));
  // The unmentioned pair defaults to a single unit.
  EXPECT_EQ(spec->UnitCount(1, 0), 1u);
}

TEST(SpecText, CommentsAndBlankLinesIgnored) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = r2[x]\n");
  auto spec = ParseAtomicitySpec(*txns,
                                 "# a comment\n"
                                 "\n"
                                 "Atomicity(T1,T2): r1[x] | w1[x]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->HasBreakpoint(0, 1, 0));
}

TEST(ParseTransactionSet, RejectsOperationNumberBeyondTxnIdRange) {
  // 4294967297 - 1 truncated to a 32-bit TxnId would be T1's id.
  auto txns = ParseTransactionSet("T1 = r4294967297[x]");
  ASSERT_FALSE(txns.ok());
  EXPECT_EQ(txns.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParseTransactionSet, RejectsLabelBeyondTxnIdRange) {
  // 2^64 + 1 wraps to 1 in a 64-bit accumulator.
  auto txns = ParseTransactionSet("T18446744073709551617 = r1[x]");
  ASSERT_FALSE(txns.ok());
  EXPECT_EQ(txns.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecText, RejectsHeaderNumberBeyondTxnCount) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = r2[x]\n");
  // 2^64 + 1 wraps to 1 in a 64-bit accumulator.
  auto spec = ParseAtomicitySpec(
      *txns, "Atomicity(T18446744073709551617,T2): r1[x] | w1[x]");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecText, RejectsBadHeaders) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = r2[x]\n");
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomic(T1,T2): r1[x]w1[x]").ok());
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomicity(T1,T1): r1[x]w1[x]").ok());
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomicity(T1,T9): r1[x]w1[x]").ok());
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomicity(T0,T2): r1[x]w1[x]").ok());
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomicity(T1 T2): r1[x]w1[x]").ok());
}

TEST(SpecText, RejectsIncompleteOrForeignUnits) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x]\nT2 = r2[x]\n");
  // Missing an operation of T1.
  EXPECT_FALSE(ParseAtomicitySpec(*txns, "Atomicity(T1,T2): r1[x]").ok());
  // Operation of the wrong transaction.
  EXPECT_FALSE(
      ParseAtomicitySpec(*txns, "Atomicity(T1,T2): r1[x] | r2[x]").ok());
  // Out of program order.
  EXPECT_FALSE(
      ParseAtomicitySpec(*txns, "Atomicity(T1,T2): w1[x] | r1[x]").ok());
  // Empty unit.
  EXPECT_FALSE(
      ParseAtomicitySpec(*txns, "Atomicity(T1,T2): r1[x] w1[x] |").ok());
}

TEST(SpecText, RoundTripsThroughPrinter) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] w1[z] r1[y]\nT2 = r2[y] w2[y] r2[x]\n");
  const std::string spec_text =
      "Atomicity(T1,T2): r1[x]w1[x] | w1[z]r1[y]\n"
      "Atomicity(T2,T1): r2[y] | w2[y]r2[x]\n";
  auto spec = ParseAtomicitySpec(*txns, spec_text);
  ASSERT_TRUE(spec.ok());
  const std::string printed = ToString(*txns, *spec);
  auto reparsed = ParseAtomicitySpec(*txns, printed);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*spec, *reparsed);
}

TEST(SpecText, AtomicityLineShowsUnits) {
  auto txns = ParseTransactionSet("T1 = r1[x] w1[x] w1[z]\nT2 = r2[x]\n");
  auto spec = ParseAtomicitySpec(*txns,
                                 "Atomicity(T1,T2): r1[x] | w1[x] w1[z]\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(AtomicityLineToString(*txns, *spec, 0, 1),
            "Atomicity(T1,T2): r1[x] | w1[x]w1[z]");
}

}  // namespace
}  // namespace relser
