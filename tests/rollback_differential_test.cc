// Differential gate for the checker's undo log: exact aborts remove the
// victim and its dependents in place and re-admit only the dependents, at
// the end of the feed, and epoch truncation drops settled transactions in
// place. After every abort and every truncation the checker's StateDigest
// must equal that of a fresh checker fed its feed_log(), and each abort
// must re-admit exactly the dependents an independent closure over the
// feed finds. Truncation is driven the way
// the single-shard admitter drives it: an EpochManager fed the direct
// conflicts of each accepted operation, a finish per commit or abort, and
// a Truncate whenever the GC generation moves. Along the way, after every
// accept, last_conflicts() must name exactly the transactions of the
// foreign frontier the operation met (empty when it met none, the case in
// which TryAppend skips its compare pass), through every abort and
// truncation that moved the frontiers.
// A second case drives the 16-bit ancestor columns to the top of their
// range (0xFFFE) and checks the same digest equality around them, a
// third keeps hundreds of ancestor rows live, across several blocks of
// the row pool, through an abort and a truncation, and a fourth pins the
// feed order and the arcs, frontiers and rows an abort leaves in place.
// A fifth aborts through survivor records that still name truncated
// operations, and a sixth bounds the undo log's compaction work by the
// entries that died.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/online.h"
#include "epoch/epoch.h"
#include "graph/cycle.h"
#include "model/op_indexer.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::uint64_t FreshDigest(const TransactionSet& txns,
                          const AtomicitySpec& spec,
                          const OnlineRsrChecker& checker) {
  OnlineRsrChecker fresh(txns, spec);
  for (const std::size_t gid : checker.feed_log()) {
    EXPECT_TRUE(fresh.TryAppend(checker.indexer().Op(txns, gid)).ok())
        << "surviving feed must replay cleanly";
  }
  return fresh.StateDigest();
}

// One hand-fed operation: a transaction and an index within it.
struct Step {
  TxnId txn;
  std::uint32_t index;
};

// Feeds `steps` in order; each must be accepted.
void FeedSteps(const TransactionSet& txns, OnlineRsrChecker* checker,
               const std::vector<Step>& steps) {
  for (const Step& step : steps) {
    ASSERT_TRUE(checker->TryAppend(txns.txn(step.txn).op(step.index)).ok())
        << "T" << step.txn + 1 << " op " << step.index;
  }
}

// The dependents an abort of `victim` re-admits, found by a closure over
// `log` independent of the checker's rows: from the victim's first
// operation at `first` on, an operation is marked when its transaction
// already is, or when it conflicts (same object, one of them a write)
// with an earlier marked operation. Counts the marked operations that are
// not the victim's.
std::size_t DependentCount(const TransactionSet& txns, const OpIndexer& indexer,
                           const std::vector<std::size_t>& log,
                           std::size_t first, TxnId victim) {
  std::vector<std::uint8_t> marked_txn(txns.txn_count(), 0);
  marked_txn[victim] = 1;
  std::vector<Operation> marked;
  std::size_t dependents = 0;
  for (std::size_t k = first; k < log.size(); ++k) {
    const Operation& op = indexer.Op(txns, log[k]);
    bool dependent = marked_txn[op.txn] != 0;
    for (const Operation& earlier : marked) {
      dependent = dependent || (earlier.object == op.object &&
                                (earlier.is_write() || op.is_write()));
    }
    if (!dependent) continue;
    marked_txn[op.txn] = 1;
    marked.push_back(op);
    if (op.txn != victim) ++dependents;
  }
  return dependents;
}

// One seeded run: a sliding window of open transactions fed in random
// interleaving, with rejections, spontaneous aborts and reads-from
// cascades, and truncation at every GC generation.
class FeedRun {
 public:
  // With `check_digests` off, the run skips the fresh-checker digest
  // comparison after each abort and truncation (the dependents count
  // and every other check still run).
  FeedRun(const TransactionSet& txns, const AtomicitySpec& spec,
          std::uint32_t gc_interval, bool check_digests = true)
      : txns_(txns),
        spec_(spec),
        check_digests_(check_digests),
        indexer_(txns),
        checker_(txns, spec),
        epochs_(txns.txn_count(), gc_interval),
        state_(txns.txn_count(), kPending),
        next_(txns.txn_count(), 0),
        readers_of_(txns.txn_count()),
        first_fed_at_(txns.txn_count(), 0) {}

  void Go(std::size_t window, Rng* rng) {
    std::vector<TxnId> open;
    TxnId next_txn = 0;
    while (true) {
      while (open.size() < window && next_txn < txns_.txn_count()) {
        state_[next_txn] = kLive;
        open.push_back(next_txn++);
      }
      std::erase_if(open, [this](TxnId t) { return state_[t] != kLive; });
      if (open.empty()) break;
      const TxnId t = open[rng->UniformIndex(open.size())];
      if (next_[t] > 0 && rng->Bernoulli(0.04)) {
        Kill(t);  // spontaneous abort
      } else {
        Feed(txns_.txn(t).op(next_[t]));
      }
      if (::testing::Test::HasFatalFailure()) return;
      MaybeTruncate();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  const OnlineRsrChecker& checker() const { return checker_; }
  std::size_t aborts() const { return aborts_; }
  // Aborts and truncations after which the undo log moved entries.
  std::size_t compactions() const { return compactions_; }
  std::size_t cascades() const { return cascades_; }
  std::size_t truncations() const { return truncations_; }
  std::size_t victims_before_truncation() const { return old_victims_; }
  std::size_t unconflicted_accepts() const { return unconflicted_accepts_; }
  std::size_t conflicted_accepts() const { return conflicted_accepts_; }

 private:
  static constexpr std::uint8_t kPending = 0;
  static constexpr std::uint8_t kLive = 1;
  static constexpr std::uint8_t kCommitted = 2;
  static constexpr std::uint8_t kDead = 3;

  void Feed(const Operation& op) {
    // The direct conflicts the admitter notes: the transactions of the
    // foreign members of the pre-operation frontier, writer first.
    deps_.clear();
    const std::size_t writer_gid = checker_.FrontierWriterGid(op.object);
    const bool has_writer = writer_gid != OnlineRsrChecker::kNoOp &&
                            indexer_.TxnOf(writer_gid) != op.txn;
    const TxnId writer = has_writer ? indexer_.TxnOf(writer_gid) : 0;
    if (has_writer) deps_.push_back(writer);
    if (op.is_write()) {
      gids_.clear();
      checker_.FrontierReaders(op.object, &gids_);
      for (const std::size_t gid : gids_) {
        const TxnId reader = indexer_.TxnOf(gid);
        if (reader != op.txn) deps_.push_back(reader);
      }
    }
    const AdmitResult result = checker_.TryAppend(op);
    if (result.ok()) {
      if (deps_.empty()) {
        ++unconflicted_accepts_;
        ASSERT_TRUE(checker_.last_conflicts().empty())
            << "unconflicted accept of T" << op.txn << " op " << op.index;
      } else {
        ++conflicted_accepts_;
        ASSERT_EQ(checker_.last_conflicts(), deps_)
            << "accept of T" << op.txn << " op " << op.index;
      }
    }
    if (!result.ok()) {
      Kill(op.txn);
      return;
    }
    if (op.index == 0) first_fed_at_[op.txn] = ++clock_;
    if (!deps_.empty()) epochs_.NoteDeps(deps_, op.txn);
    if (op.is_read() && has_writer && state_[writer] != kCommitted) {
      readers_of_[writer].push_back(op.txn);  // dirty read: cascade edge
    }
    if (++next_[op.txn] == txns_.txn(op.txn).size()) {
      state_[op.txn] = kCommitted;
      epochs_.NoteFinish(op.txn);
    }
  }

  void Kill(TxnId txn) {
    state_[txn] = kDead;
    if (checker_.TxnHasExecuted(txn)) {
      // The victim's dependents, by the independent closure.
      const std::vector<std::size_t>& log = checker_.feed_log();
      const std::size_t first = static_cast<std::size_t>(
          std::find(log.begin(), log.end(), indexer_.TxnBegin(txn)) -
          log.begin());
      ASSERT_LT(first, log.size());
      const std::size_t expected =
          DependentCount(txns_, indexer_, log, first, txn);
      if (first_fed_at_[txn] < last_truncation_at_) ++old_victims_;
      const std::size_t replayed = checker_.replayed_ops();
      const std::size_t moved = checker_.undo_entries_moved();
      checker_.RemoveTransactionExact(txn);
      ++aborts_;
      if (checker_.undo_entries_moved() > moved) ++compactions_;
      ASSERT_EQ(checker_.replayed_ops() - replayed, expected)
          << "abort of T" << txn;
      ASSERT_FALSE(checker_.TxnHasExecuted(txn));
      if (check_digests_) {
        ASSERT_EQ(checker_.StateDigest(),
                  FreshDigest(txns_, spec_, checker_))
            << "after aborting T" << txn;
      }
    }
    std::vector<TxnId> readers;
    readers.swap(readers_of_[txn]);
    for (const TxnId reader : readers) {
      if (state_[reader] != kLive) continue;
      ++cascades_;
      Kill(reader);
      if (::testing::Test::HasFatalFailure()) return;
    }
    epochs_.NoteFinish(txn);
  }

  void MaybeTruncate() {
    if (epochs_.gc_generation() == gc_seen_) return;
    gc_seen_ = epochs_.gc_generation();
    const std::size_t retained = checker_.retained_ops();
    const std::size_t replayed = checker_.replayed_ops();
    const std::size_t moved = checker_.undo_entries_moved();
    const std::size_t dropped = checker_.Truncate(epochs_.settled_view());
    if (checker_.undo_entries_moved() > moved) ++compactions_;
    ASSERT_EQ(checker_.replayed_ops(), replayed) << "Truncate re-admitted";
    ASSERT_EQ(checker_.retained_ops() + dropped, retained);
    for (const std::size_t gid : checker_.feed_log()) {
      ASSERT_FALSE(epochs_.Settled(indexer_.TxnOf(gid)));
    }
    if (check_digests_) {
      ASSERT_EQ(checker_.StateDigest(), FreshDigest(txns_, spec_, checker_))
          << "after truncation " << truncations_;
    }
    if (dropped > 0) {
      ++truncations_;
      last_truncation_at_ = clock_;
    }
  }

  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  const bool check_digests_;
  const OpIndexer indexer_;
  OnlineRsrChecker checker_;
  EpochManager epochs_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> next_;
  std::vector<std::vector<TxnId>> readers_of_;
  std::vector<std::uint64_t> first_fed_at_;
  std::vector<TxnId> deps_;
  std::vector<std::size_t> gids_;
  std::uint64_t gc_seen_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t last_truncation_at_ = 0;
  std::size_t aborts_ = 0;
  std::size_t compactions_ = 0;
  std::size_t cascades_ = 0;
  std::size_t truncations_ = 0;
  std::size_t old_victims_ = 0;
  std::size_t unconflicted_accepts_ = 0;
  std::size_t conflicted_accepts_ = 0;
};

TEST(RollbackDifferential, AbortsAndTruncationsMatchAFreshChecker) {
  constexpr int kRounds = 400;
  Rng base(0x5011BAC);
  std::size_t aborts = 0;
  std::size_t cascades = 0;
  std::size_t truncations = 0;
  std::size_t old_victims = 0;
  std::size_t unconflicted_accepts = 0;
  std::size_t conflicted_accepts = 0;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    WorkloadParams wp;
    wp.txn_count = 12 + rng.UniformIndex(40);
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 6;
    wp.object_count = 6 + rng.UniformIndex(24);
    wp.read_ratio = 0.6;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec =
        RandomSpec(txns, 0.2 + 0.6 * rng.UniformDouble(), &rng);
    const auto gc_interval =
        1 + static_cast<std::uint32_t>(rng.UniformIndex(4));
    FeedRun run(txns, spec, gc_interval);
    run.Go(2 + rng.UniformIndex(6), &rng);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
    aborts += run.aborts();
    cascades += run.cascades();
    truncations += run.truncations();
    old_victims += run.victims_before_truncation();
    unconflicted_accepts += run.unconflicted_accepts();
    conflicted_accepts += run.conflicted_accepts();
  }
  // The mix must actually exercise every path.
  EXPECT_GT(aborts, 100u);
  EXPECT_GT(cascades, 10u);
  EXPECT_GT(truncations, 100u);
  EXPECT_GT(old_victims, 10u);
  EXPECT_GT(unconflicted_accepts, 100u);
  EXPECT_GT(conflicted_accepts, 100u);
}

// A transaction of kMaxTxnOps operations puts its last operation's
// +1-encoded index, 0xFFFE, into the ancestor columns of everything
// that reads from it. Exact aborts restore rows from undo deltas near
// that value, and truncation scrubs it; after each, the state must
// equal a fresh checker fed feed_log(), as it does for small indices.
TEST(RollbackDifferential, TopOfTheColumnRangeRoundTrips) {
  TransactionSet txns;
  const ObjectId f = txns.InternObject("f");
  const ObjectId v = txns.InternObject("v");
  const ObjectId x = txns.InternObject("x");
  const ObjectId y = txns.InternObject("y");
  const ObjectId z = txns.InternObject("z");
  // A = T1: filler writes of f, then ten writes at the top of its index
  // range, from kTop = 65524 on.
  constexpr std::uint32_t kTop = kMaxTxnOps - 10;
  Transaction* a = txns.AddTransaction();
  for (std::uint32_t k = 0; k < kTop; ++k) a->Write(f);
  for (const ObjectId object : {x, y, y, y, x, y, y, y, v, v}) {
    a->Write(object);
  }
  Transaction* b = txns.AddTransaction();  // T2
  b->Read(x);
  b->Read(x);
  b->Read(v);
  b->Write(z);
  Transaction* c = txns.AddTransaction();  // T3
  c->Write(z);
  c->Read(v);
  c->Write(x);
  Transaction* d = txns.AddTransaction();  // T4
  d->Write(x);
  ASSERT_EQ(a->size(), kMaxTxnOps);
  // Every gap is a breakpoint except inside A's four-operation units
  // relative to B, so B reading A mid-unit draws an F-arc from the
  // unit's end: pushes near the top of the range too.
  AtomicitySpec spec = FullyRelaxedSpec(txns);
  std::vector<std::uint32_t> units(kMaxTxnOps / 4, 4);
  units.push_back(kMaxTxnOps % 4);
  SetUnitsByLength(&spec, 0, 1, units);

  const auto a_ops = [](std::uint32_t first, std::uint32_t last) {
    std::vector<Step> steps;
    for (std::uint32_t k = first; k <= last; ++k) steps.push_back({0, k});
    return steps;
  };

  // Aborts. B reads x from A twice, mid-unit (F-arcs from A's ops 65527
  // and 65531), then v from A's last op, which raises B's column A from
  // 65529 to 0xFFFE. C's write of x dominates B's second read, and C's
  // abort must restore that read's row (column A 65529, from B's undo
  // delta) and A's op 65528's row (own column 65528), both of which stay
  // in x's frontier.
  {
    OnlineRsrChecker checker(txns, spec);
    FeedSteps(txns, &checker, a_ops(0, kTop));
    FeedSteps(txns, &checker, {{1, 0}});
    FeedSteps(txns, &checker, a_ops(kTop + 1, kTop + 4));
    FeedSteps(txns, &checker, {{1, 1}, {2, 0}});
    FeedSteps(txns, &checker, a_ops(kTop + 5, kTop + 8));
    FeedSteps(txns, &checker,
              {{2, 1}, {0, kMaxTxnOps - 1}, {1, 2}, {2, 2}, {1, 3}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker));
    // C's dependents are A's last operation (its write of v follows C's
    // read of v), B's read of v from it and B's write of z (after C's
    // write of z); A's four operations fed after C started and B's first
    // two stay in place.
    checker.RemoveTransactionExact(2);
    EXPECT_EQ(checker.replayed_ops(), 3u);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after aborting T3";
    checker.RemoveTransactionExact(1);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after aborting T2";
    EXPECT_EQ(checker.retained_ops(), kMaxTxnOps);
  }

  // Truncation. D's write of x precedes all of A; B and C read v from
  // A's last op. Settling D scrubs column D under rows that keep
  // 0xFFFE; settling A then scrubs 0xFFFE itself.
  {
    OnlineRsrChecker checker(txns, spec);
    FeedSteps(txns, &checker, {{3, 0}});
    FeedSteps(txns, &checker, a_ops(0, kMaxTxnOps - 1));
    FeedSteps(txns, &checker,
              {{1, 0}, {2, 0}, {2, 1}, {1, 1}, {2, 2}, {1, 2}, {1, 3}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    std::vector<std::atomic<std::uint8_t>> settled(txns.txn_count());
    settled[3].store(1);
    ASSERT_EQ(checker.Truncate(settled.data()), 1u);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after settling T4";
    settled[0].store(1);
    ASSERT_EQ(checker.Truncate(settled.data()), kMaxTxnOps);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after settling T1";
    checker.RemoveTransactionExact(2);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after aborting T3 past the truncation";
    EXPECT_EQ(checker.retained_ops(), 4u);
  }
}

// Ancestor rows live in fixed 64-row blocks. The random rounds above
// seldom hold more than one block's worth of rows at once, so this case
// keeps hundreds of rows live: a read-heavy feed with GC off, where
// every read stays in its object's frontier. Then, with the rows spread
// over at least five blocks, it exact-aborts a transaction whose
// retained rows sit in different blocks, truncates a settled prefix and
// feeds the rest. After each step the state must equal a fresh checker
// fed feed_log(). T = 45 is not a multiple of 8, so rows do not start on
// a 16-byte boundary.
TEST(RollbackDifferential, RowsAcrossBlocksRoundTrip) {
  constexpr std::size_t kRowsPerBlock = 64;
  Rng rng(0xB10C5);
  WorkloadParams wp;
  wp.txn_count = 45;
  wp.min_ops_per_txn = 12;
  wp.max_ops_per_txn = 20;
  wp.object_count = 360;
  wp.read_ratio = 0.92;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  const OpIndexer indexer(txns);
  OnlineRsrChecker checker(txns, spec);
  EpochManager epochs(txns.txn_count(), /*gc_interval=*/0);

  // The slot each operation took when its accept grew the pool (a fresh
  // slot, at pool_rows() - 1); a slot taken from the free list is not
  // known. An abort re-acquires slots, so it forgets them all.
  constexpr std::size_t kUnknown = ~std::size_t{0};
  std::vector<std::size_t> fresh_slot(indexer.total_ops(), kUnknown);
  std::vector<std::uint32_t> next(txns.txn_count(), 0);
  std::vector<std::uint8_t> finished(txns.txn_count(), 0);
  std::vector<TxnId> open;
  TxnId next_txn = 0;
  const auto kill = [&](TxnId txn) {
    checker.RemoveTransactionExact(txn);
    std::fill(fresh_slot.begin(), fresh_slot.end(), kUnknown);
    finished[txn] = 1;
    epochs.NoteFinish(txn);
  };
  // Feeds `count` operations of a window of 12 open transactions in
  // random interleaving; a rejected transaction is aborted.
  const auto feed = [&](std::size_t count) {
    for (std::size_t fed = 0; fed < count;) {
      while (open.size() < 12 && next_txn < txns.txn_count()) {
        open.push_back(next_txn++);
      }
      std::erase_if(open, [&](TxnId t) { return finished[t] != 0; });
      if (open.empty()) return;
      const TxnId t = open[rng.UniformIndex(open.size())];
      const Operation& op = txns.txn(t).op(next[t]);
      const std::size_t rows = checker.pool_rows();
      if (!checker.TryAppend(op).ok()) {
        kill(t);
        continue;
      }
      ++fed;
      if (checker.pool_rows() > rows) {
        fresh_slot[indexer.GlobalId(op)] = checker.pool_rows() - 1;
      }
      epochs.NoteDeps(checker.last_conflicts(), t);
      if (++next[t] == txns.txn(t).size()) {
        finished[t] = 1;
        epochs.NoteFinish(t);
      }
    }
  };
  // The operations holding a row: the object frontiers and each
  // transaction's newest executed operation.
  const auto live_rows = [&] {
    std::vector<std::size_t> gids;
    for (ObjectId object = 0; object < txns.object_count(); ++object) {
      const std::size_t writer = checker.FrontierWriterGid(object);
      if (writer != OnlineRsrChecker::kNoOp) gids.push_back(writer);
      checker.FrontierReaders(object, &gids);
    }
    for (TxnId t = 0; t < txns.txn_count(); ++t) {
      for (std::uint32_t k = next[t]; k-- > 0;) {
        if (!checker.Executed(t, k)) continue;
        gids.push_back(indexer.GlobalId(t, k));
        break;
      }
    }
    std::sort(gids.begin(), gids.end());
    gids.erase(std::unique(gids.begin(), gids.end()), gids.end());
    return gids;
  };

  feed(480);
  std::vector<std::size_t> live = live_rows();
  // More live rows than four blocks hold: they span at least five.
  ASSERT_GT(live.size(), 4 * kRowsPerBlock);
  ASSERT_GE(checker.pool_rows(), live.size());
  ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
      << "after the read-heavy feed";

  // The victim: the earliest-started unfinished transaction with two
  // live rows in fresh slots of different blocks. Its abort removes it
  // and its dependents and re-admits the dependents.
  TxnId victim = static_cast<TxnId>(txns.txn_count());
  for (TxnId t = 0; t < txns.txn_count() && victim == txns.txn_count(); ++t) {
    if (finished[t] != 0 || !checker.TxnHasExecuted(t)) continue;
    std::size_t lowest_block = kUnknown;
    for (const std::size_t gid : live) {
      if (!indexer.InTxn(t, gid) || fresh_slot[gid] == kUnknown) continue;
      const std::size_t block = fresh_slot[gid] / kRowsPerBlock;
      if (lowest_block == kUnknown) {
        lowest_block = block;
      } else if (block != lowest_block) {
        victim = t;
        break;
      }
    }
  }
  ASSERT_LT(victim, txns.txn_count()) << "no transaction spans two blocks";
  kill(victim);
  ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
      << "after aborting T" << victim + 1;

  epochs.Sweep();
  const std::size_t retained = checker.retained_ops();
  ASSERT_GT(checker.Truncate(epochs.settled_view()), 0u);
  ASSERT_LT(checker.retained_ops(), retained);
  ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
      << "after truncating the settled prefix";

  for (int step = 0; step < 4; ++step) {
    feed(60);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after feed step " << step;
  }
  EXPECT_GT(live_rows().size(), 4 * kRowsPerBlock);
}

// An abort removes the victim and the operations that depend on it, and
// nothing else: every other operation keeps its row, its arcs and its
// place in the feed, and the dependents' surviving operations are
// re-admitted after it, in their original order. Under AbsoluteSpec every
// transaction is one unit, so an operation that depends on T_i draws a
// B-arc from T_i to its own transaction's first operation, unless the
// graph already implies it (docs/hotpath.md, Lemma 4).
TEST(RollbackDifferential, AbortKeepsNonDependentsInPlace) {
  TransactionSet txns;
  const ObjectId a = txns.InternObject("a");
  const ObjectId b = txns.InternObject("b");
  const ObjectId k = txns.InternObject("k");
  const ObjectId w = txns.InternObject("w");
  const ObjectId x = txns.InternObject("x");
  const ObjectId y = txns.InternObject("y");
  const ObjectId z = txns.InternObject("z");
  Transaction* keep = txns.AddTransaction();  // K = T1
  keep->Write(y);
  keep->Read(w);
  keep->Write(k);
  Transaction* victim = txns.AddTransaction();  // V = T2
  victim->Read(y);
  victim->Write(x);
  victim->Write(w);
  Transaction* dep = txns.AddTransaction();  // D = T3
  dep->Read(a);
  dep->Read(x);
  dep->Write(b);
  txns.AddTransaction()->Write(z);  // N = T4
  txns.AddTransaction()->Write(y);  // S = T5
  constexpr TxnId kK = 0;
  constexpr TxnId kV = 1;
  constexpr TxnId kD = 2;
  constexpr TxnId kN = 3;
  constexpr TxnId kS = 4;
  const AtomicitySpec spec = AbsoluteSpec(txns);
  const OpIndexer indexer(txns);

  const auto gids = [&indexer](const std::vector<Step>& steps) {
    std::vector<std::size_t> out;
    for (const Step& step : steps) {
      out.push_back(indexer.GlobalId(step.txn, step.index));
    }
    return out;
  };
  const auto abort_under = [&](const AtomicitySpec& under,
                               OnlineRsrChecker* checker, TxnId txn) {
    const std::vector<std::size_t> log = checker->feed_log();
    const std::size_t first = static_cast<std::size_t>(
        std::find(log.begin(), log.end(), indexer.TxnBegin(txn)) -
        log.begin());
    const std::size_t replayed = checker->replayed_ops();
    checker->RemoveTransactionExact(txn);
    EXPECT_EQ(checker->replayed_ops() - replayed,
              DependentCount(txns, indexer, log, first, txn));
    EXPECT_EQ(checker->StateDigest(), FreshDigest(txns, under, *checker))
        << "after aborting T" << txn + 1;
  };
  const auto abort = [&](OnlineRsrChecker* checker, TxnId txn) {
    abort_under(spec, checker, txn);
  };
  const std::vector<Step> feed = {{kK, 0}, {kK, 1}, {kK, 2}, {kD, 0},
                                  {kV, 0}, {kV, 1}, {kD, 1}, {kN, 0},
                                  {kV, 2}, {kD, 2}};
  const std::vector<Step> survivors = {{kK, 0}, {kK, 1}, {kK, 2}, {kD, 0},
                                       {kN, 0}, {kD, 1}, {kD, 2}};
  const std::size_t k_write = indexer.GlobalId(kK, 0);
  const std::size_t d_first = indexer.GlobalId(kD, 0);

  // D's read of x from V makes D's suffix dependent; its prefix, D's read
  // of a, stays. That read reaches D's first operation from V's write of
  // x by a B-arc, and from K's write of y, which V read, through V: K's
  // own B-arc is implied and left out. V's write of w dominated K's read
  // of w, whose row K's later write of k released; the abort puts the
  // read back in w's frontier with its row. N's write of z follows the
  // dependent read and does not move.
  {
    OnlineRsrChecker checker(txns, spec);
    FeedSteps(txns, &checker, feed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(Reachable(checker.topology().graph(), k_write, d_first));
    abort(&checker, kV);
    EXPECT_FALSE(Reachable(checker.topology().graph(), k_write, d_first));
    EXPECT_FALSE(checker.topology().graph().HasEdge(k_write, d_first));
    EXPECT_EQ(checker.feed_log(), gids(survivors));
    std::vector<std::size_t> readers;
    checker.FrontierReaders(w, &readers);
    EXPECT_EQ(readers, gids({{kK, 1}}));
    EXPECT_EQ(checker.FrontierWriterGid(x), OnlineRsrChecker::kNoOp);
    EXPECT_EQ(checker.replayed_ops(), 2u);
  }

  // The same feed where D's read of x is a unit of its own relative to
  // V: it draws no B-arc from V, so nothing implies K's, and the read
  // inserts the arc from K's write of y itself. That arc joins two
  // operations that both stay, and only D's undo record says it must go.
  {
    AtomicitySpec split = AbsoluteSpec(txns);
    split.SetBreakpoint(kD, kV, 0);
    OnlineRsrChecker checker(txns, split);
    FeedSteps(txns, &checker, feed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_TRUE(checker.topology().graph().HasEdge(k_write, d_first));
    abort_under(split, &checker, kV);
    EXPECT_FALSE(checker.topology().graph().HasEdge(k_write, d_first));
    EXPECT_FALSE(Reachable(checker.topology().graph(), k_write, d_first));
    EXPECT_EQ(checker.feed_log(), gids(survivors));
    EXPECT_EQ(checker.replayed_ops(), 2u);
  }

  // A victim fed before the last truncation. V reads y from S, which
  // settles and is truncated away under it; K's write of y then depends
  // on V's read, so K goes and comes back whole after D's prefix and N.
  {
    OnlineRsrChecker checker(txns, spec);
    FeedSteps(txns, &checker, {{kS, 0}, {kV, 0}, {kD, 0}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    std::vector<std::atomic<std::uint8_t>> settled(txns.txn_count());
    settled[kS].store(1);
    ASSERT_EQ(checker.Truncate(settled.data()), 1u);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker));
    FeedSteps(txns, &checker,
              {{kK, 0}, {kV, 1}, {kK, 1}, {kD, 1}, {kN, 0}, {kK, 2}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    abort(&checker, kV);
    EXPECT_EQ(checker.feed_log(),
              gids({{kD, 0}, {kN, 0}, {kK, 0}, {kK, 1}, {kD, 1}, {kK, 2}}));
    EXPECT_EQ(checker.FrontierWriterGid(y), indexer.GlobalId(kK, 0));
    EXPECT_EQ(checker.replayed_ops(), 4u);
    // The re-admitted order is a feed like any other: D finishes, and K,
    // aborted in turn, takes nothing of D or N with it.
    FeedSteps(txns, &checker, {{kD, 2}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    abort(&checker, kK);
    EXPECT_EQ(checker.feed_log(),
              gids({{kD, 0}, {kN, 0}, {kD, 1}, {kD, 2}}));
  }
}

// Truncate leaves a survivor's undo record as it was: entries that name
// a settled operation or column stay, and the abort's three readers of
// the record skip them. K's write of x raised the settled columns S and
// R, dominated S's write and R's read of x, and inserted arcs from both.
// V's write of z dominated S's write of z and K's read of z, whose row it
// released. Aborting V rebuilds that row from K's deltas, where column S
// must stay 0, hands z back without S's write, and leaves V's arc from
// S's write, which truncation already took, alone; aborting K does the
// same for x and K's arcs from S and R. Then long seeded runs of
// truncations and aborts cross the undo log's dead >= live threshold
// many times, with a digest check after every call.
TEST(RollbackDifferential, AbortAfterTruncateSkipsTruncatedEntries) {
  TransactionSet txns;
  const ObjectId x = txns.InternObject("x");
  const ObjectId z = txns.InternObject("z");
  Transaction* s = txns.AddTransaction();  // S = T1
  s->Write(z);
  s->Write(x);
  txns.AddTransaction()->Read(x);  // R = T2
  Transaction* k = txns.AddTransaction();  // K = T3
  k->Read(z);
  k->Write(x);
  txns.AddTransaction()->Write(z);  // V = T4
  constexpr TxnId kS = 0;
  constexpr TxnId kR = 1;
  constexpr TxnId kK = 2;
  constexpr TxnId kV = 3;
  const AtomicitySpec spec = AbsoluteSpec(txns);
  const OpIndexer indexer(txns);
  {
    OnlineRsrChecker checker(txns, spec);
    FeedSteps(txns, &checker,
              {{kS, 0}, {kS, 1}, {kR, 0}, {kK, 0}, {kK, 1}, {kV, 0}});
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const std::size_t k_write = indexer.GlobalId(kK, 1);
    ASSERT_TRUE(checker.topology().graph().HasEdge(indexer.GlobalId(kS, 1),
                                                   k_write));
    ASSERT_TRUE(checker.topology().graph().HasEdge(indexer.GlobalId(kR, 0),
                                                   k_write));
    std::vector<std::atomic<std::uint8_t>> settled(txns.txn_count());
    settled[kS].store(1);
    settled[kR].store(1);
    ASSERT_EQ(checker.Truncate(settled.data()), 3u);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after settling S and R";

    checker.RemoveTransactionExact(kV);
    EXPECT_EQ(checker.replayed_ops(), 0u);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after aborting V";
    std::vector<std::size_t> readers;
    checker.FrontierReaders(z, &readers);
    EXPECT_EQ(checker.FrontierWriterGid(z), OnlineRsrChecker::kNoOp);
    EXPECT_EQ(readers, std::vector<std::size_t>{indexer.GlobalId(kK, 0)});

    checker.RemoveTransactionExact(kK);
    ASSERT_EQ(checker.StateDigest(), FreshDigest(txns, spec, checker))
        << "after aborting K";
    readers.clear();
    checker.FrontierReaders(x, &readers);
    EXPECT_EQ(checker.FrontierWriterGid(x), OnlineRsrChecker::kNoOp);
    EXPECT_TRUE(readers.empty());
    EXPECT_EQ(checker.retained_ops(), 0u);
    EXPECT_EQ(checker.topology().graph().edge_count(), 0u);
  }

  Rng base(0xDEAD1E);
  std::size_t compactions = 0;
  for (int round = 0; round < 6; ++round) {
    Rng rng = base.Split(static_cast<std::uint64_t>(round));
    WorkloadParams wp;
    wp.txn_count = 160;
    wp.min_ops_per_txn = 1;
    wp.max_ops_per_txn = 6;
    wp.object_count = 24;
    wp.read_ratio = 0.6;
    const TransactionSet run_txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec run_spec = RandomSpec(run_txns, 0.5, &rng);
    FeedRun run(run_txns, run_spec, /*gc_interval=*/2);
    run.Go(6, &rng);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "round " << round;
    compactions += run.compactions();
  }
  EXPECT_GE(compactions, 30u);
}

// The undo log's compaction is paid for by what died: it runs only once
// dead entries reach live ones, so over a long strict-window-shaped feed
// (about 10^4 operations, 32 open transactions, Zipf-skewed objects) with
// a truncation at every GC generation and aborts along the way, the
// entries it moved stay within twice the entries that died. The digests
// are left to the tests above, which check them after every call.
TEST(RollbackDifferential, UndoCompactionMovesAtMostTwiceWhatDied) {
  Rng rng(0x0DD5EED);
  WorkloadParams wp;
  wp.txn_count = 1250;
  wp.min_ops_per_txn = 4;
  wp.max_ops_per_txn = 12;
  wp.object_count = 4096;
  wp.zipf_theta = 0.8;
  wp.read_ratio = 0.6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.5, &rng);
  ASSERT_GT(OpIndexer(txns).total_ops(), 9000u);
  FeedRun run(txns, spec, /*gc_interval=*/64, /*check_digests=*/false);
  run.Go(32, &rng);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const OnlineRsrChecker& checker = run.checker();
  EXPECT_GT(run.truncations(), 10u);
  EXPECT_GT(run.aborts(), 50u);
  EXPECT_GT(run.compactions(), 5u);
  EXPECT_GT(checker.undo_entries_moved(), 0u);
  EXPECT_LE(checker.undo_entries_moved(), 2 * checker.undo_entries_died());
}

}  // namespace
}  // namespace relser
