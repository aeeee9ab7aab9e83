// Unit tests for the transaction/schedule model: operations, conflicts,
// TransactionSet, OpIndexer, Schedule construction and validation.
#include <gtest/gtest.h>

#include "model/op_indexer.h"
#include "model/operation.h"
#include "model/schedule.h"
#include "model/text.h"
#include "model/transaction.h"

namespace relser {
namespace {

TransactionSet TwoTxns() {
  TransactionSet txns;
  const ObjectId x = txns.InternObject("x");
  const ObjectId y = txns.InternObject("y");
  Transaction* t1 = txns.AddTransaction();
  t1->Read(x);
  t1->Write(x);
  Transaction* t2 = txns.AddTransaction();
  t2->Read(y);
  t2->Write(x);
  t2->Write(y);
  return txns;
}

// ------------------------------------------------------------- Operation

TEST(Operation, ConflictRequiresSharedObjectAndAWrite) {
  const Operation r1x{0, 0, OpType::kRead, 0};
  const Operation w2x{1, 0, OpType::kWrite, 0};
  const Operation r2x{1, 0, OpType::kRead, 0};
  const Operation w2y{1, 1, OpType::kWrite, 1};
  EXPECT_TRUE(Conflicts(r1x, w2x));   // read-write, same object
  EXPECT_TRUE(Conflicts(w2x, r1x));   // symmetric
  EXPECT_FALSE(Conflicts(r1x, r2x));  // read-read never conflicts
  EXPECT_FALSE(Conflicts(r1x, w2y));  // different objects
}

TEST(Operation, SameTransactionNeverConflicts) {
  const Operation w0{0, 0, OpType::kWrite, 5};
  const Operation w1{0, 1, OpType::kWrite, 5};
  EXPECT_FALSE(Conflicts(w0, w1));
}

TEST(Operation, PrintingUsesOneBasedTxnIds) {
  const Operation op{2, 0, OpType::kRead, 0};
  EXPECT_EQ(OperationToString(op, "acct"), "r3[acct]");
  const Operation wr{0, 1, OpType::kWrite, 0};
  EXPECT_EQ(OperationToString(wr, "x"), "w1[x]");
}

TEST(Operation, OpTypeNames) {
  EXPECT_STREQ(OpTypeName(OpType::kRead), "r");
  EXPECT_STREQ(OpTypeName(OpType::kWrite), "w");
}

// -------------------------------------------------------- TransactionSet

TEST(TransactionSet, InternObjectIsIdempotent) {
  TransactionSet txns;
  const ObjectId x1 = txns.InternObject("x");
  const ObjectId y = txns.InternObject("y");
  const ObjectId x2 = txns.InternObject("x");
  EXPECT_EQ(x1, x2);
  EXPECT_NE(x1, y);
  EXPECT_EQ(txns.object_count(), 2u);
  EXPECT_EQ(txns.ObjectName(x1), "x");
}

TEST(TransactionSet, AddObjectsCreatesAnonymousObjects) {
  TransactionSet txns;
  const ObjectId first = txns.AddObjects(3);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(txns.object_count(), 3u);
  EXPECT_EQ(txns.ObjectName(0), "o0");
  EXPECT_EQ(txns.ObjectName(2), "o2");
}

// A generated name that is already interned must not swallow an object:
// "o1" named first, AddObjects(3) still adds three fresh ids.
TEST(TransactionSet, AddObjectsAddsExactlyCountPastInternedNames) {
  TransactionSet txns;
  const ObjectId o1 = txns.InternObject("o1");
  const ObjectId first = txns.AddObjects(3);
  EXPECT_EQ(first, 1u);
  ASSERT_EQ(txns.object_count(), 4u);
  EXPECT_EQ(txns.InternObject("o1"), o1);
  for (ObjectId id = first; id < 4; ++id) {
    EXPECT_NE(txns.ObjectName(id), "o1");
    EXPECT_EQ(txns.InternObject(txns.ObjectName(id)), id) << id;
  }
  Transaction* txn = txns.AddTransaction();
  txn->Write(first + 2);
  EXPECT_TRUE(txns.Validate().ok());
}

TEST(TransactionSet, TransactionsGetSequentialIdsAndIndexedOps) {
  const TransactionSet txns = TwoTxns();
  EXPECT_EQ(txns.txn_count(), 2u);
  EXPECT_EQ(txns.txn(0).id(), 0u);
  EXPECT_EQ(txns.txn(1).id(), 1u);
  EXPECT_EQ(txns.txn(0).op(1).index, 1u);
  EXPECT_EQ(txns.txn(1).op(2).type, OpType::kWrite);
}

TEST(TransactionSet, PointersSurviveLaterAdds) {
  TransactionSet txns;
  const ObjectId x = txns.InternObject("x");
  Transaction* first = txns.AddTransaction();
  for (int i = 0; i < 100; ++i) {
    txns.AddTransaction()->Write(x);
  }
  first->Read(x);  // must not be dangling (deque storage)
  EXPECT_EQ(txns.txn(0).size(), 1u);
}

TEST(TransactionSet, ValidateAcceptsWellFormedSet) {
  EXPECT_TRUE(TwoTxns().Validate().ok());
}

TEST(TransactionSet, ValidateRejectsEmptyTransaction) {
  TransactionSet txns;
  txns.AddTransaction();
  const Status status = txns.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- OpIndexer

TEST(OpIndexer, NumbersEveryOperationAndRoundTrips) {
  const TransactionSet txns = TwoTxns();
  const OpIndexer indexer(txns);
  EXPECT_EQ(indexer.total_ops(), 5u);
  EXPECT_EQ(indexer.txn_count(), 2u);
  EXPECT_EQ(indexer.GlobalId(0, 0), 0u);
  EXPECT_EQ(indexer.GlobalId(1, 0), 2u);
  EXPECT_EQ(indexer.TxnBegin(1), 2u);
  EXPECT_EQ(indexer.TxnEnd(1), 5u);
  std::size_t expected_gid = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    for (std::uint32_t j = 0; j < txns.txn(t).size(); ++j) {
      const std::size_t gid = indexer.GlobalId(t, j);
      EXPECT_EQ(gid, expected_gid++);
      EXPECT_EQ(indexer.TxnOf(gid), t);
      EXPECT_TRUE(indexer.InTxn(t, gid));
      EXPECT_EQ(indexer.Op(txns, gid), txns.txn(t).op(j));
    }
  }
}

// -------------------------------------------------------------- Schedule

TEST(Schedule, OverAcceptsValidInterleaving) {
  const TransactionSet txns = TwoTxns();
  std::vector<Operation> ops = {txns.txn(1).op(0), txns.txn(0).op(0),
                                txns.txn(1).op(1), txns.txn(0).op(1),
                                txns.txn(1).op(2)};
  auto schedule = Schedule::Over(txns, ops);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->size(), 5u);
  EXPECT_EQ(schedule->PositionOf(0, 0), 1u);
  EXPECT_EQ(schedule->PositionOf(1, 2), 4u);
  EXPECT_TRUE(schedule->Precedes(txns.txn(1).op(0), txns.txn(0).op(0)));
}

TEST(Schedule, OverRejectsWrongLength) {
  const TransactionSet txns = TwoTxns();
  auto schedule = Schedule::Over(txns, {txns.txn(0).op(0)});
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
}

TEST(Schedule, OverRejectsProgramOrderViolation) {
  const TransactionSet txns = TwoTxns();
  std::vector<Operation> ops = {txns.txn(0).op(1), txns.txn(0).op(0),
                                txns.txn(1).op(0), txns.txn(1).op(1),
                                txns.txn(1).op(2)};
  EXPECT_FALSE(Schedule::Over(txns, ops).ok());
}

TEST(Schedule, OverRejectsDuplicatedOperation) {
  const TransactionSet txns = TwoTxns();
  std::vector<Operation> ops = {txns.txn(0).op(0), txns.txn(0).op(0),
                                txns.txn(1).op(0), txns.txn(1).op(1),
                                txns.txn(1).op(2)};
  EXPECT_FALSE(Schedule::Over(txns, ops).ok());
}

TEST(Schedule, OverRejectsForeignOperation) {
  const TransactionSet txns = TwoTxns();
  std::vector<Operation> ops = {Operation{7, 0, OpType::kRead, 0},
                                txns.txn(0).op(0), txns.txn(0).op(1),
                                txns.txn(1).op(0), txns.txn(1).op(1)};
  EXPECT_FALSE(Schedule::Over(txns, ops).ok());
}

TEST(Schedule, OverRejectsMislabeledOperation) {
  const TransactionSet txns = TwoTxns();
  // Right (txn,index) but wrong type: does not match the set's op.
  Operation fake = txns.txn(0).op(0);
  fake.type = OpType::kWrite;
  std::vector<Operation> ops = {fake, txns.txn(0).op(1), txns.txn(1).op(0),
                                txns.txn(1).op(1), txns.txn(1).op(2)};
  EXPECT_FALSE(Schedule::Over(txns, ops).ok());
}

TEST(Schedule, SerialBuildsAndReportsSerial) {
  const TransactionSet txns = TwoTxns();
  auto schedule = Schedule::Serial(txns, {1, 0});
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->IsSerial());
  EXPECT_EQ(schedule->op(0).txn, 1u);
  EXPECT_EQ(schedule->TxnsByFirstOp(), (std::vector<TxnId>{1, 0}));
}

TEST(Schedule, SerialRejectsBadPermutation) {
  const TransactionSet txns = TwoTxns();
  EXPECT_FALSE(Schedule::Serial(txns, {0}).ok());
  EXPECT_FALSE(Schedule::Serial(txns, {0, 0}).ok());
  EXPECT_FALSE(Schedule::Serial(txns, {0, 5}).ok());
}

TEST(Schedule, IsSerialDetectsResumedTransaction) {
  const TransactionSet txns = TwoTxns();
  // T1[0] T2[0..2] T1[1]: T1 resumes after T2 ran -> not serial.
  std::vector<Operation> ops = {txns.txn(0).op(0), txns.txn(1).op(0),
                                txns.txn(1).op(1), txns.txn(1).op(2),
                                txns.txn(0).op(1)};
  auto schedule = Schedule::Over(txns, ops);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->IsSerial());
}

TEST(Schedule, EmptyScheduleOverEmptySet) {
  TransactionSet txns;
  auto schedule = Schedule::Over(txns, {});
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->empty());
  EXPECT_TRUE(schedule->IsSerial());
}

}  // namespace
}  // namespace relser
