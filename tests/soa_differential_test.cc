// Differential tests for the SoA/SIMD admission hot path.
//
// SoaRsrChecker's contract is *bit-identical admission*: every
// accept/reject/retry decision, every witnessing arc (from, to, kinds),
// and every admission counter must match OnlineRsrChecker — the
// frontier-pruned reference that PR 1's harness already pinned against a
// from-scratch Definition 3 oracle — at every single operation. The
// sweeps below feed identical random workloads through both checkers op
// by op and compare after each step, repeated for every compiled SIMD
// tier (the dispatch table is re-pointed with SetSimdTier, so the scalar
// fallback is exercised even on AVX2 hardware; CI additionally runs the
// whole binary under RELSER_FORCE_SCALAR=1).
//
// DenseBitset word-boundary tests ride along: the SoA path drives raw
// words() through the same kernels, so sizes straddling 64-bit word
// boundaries (0/1/63/64/65/...) are checked against naive per-bit
// references per tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/online.h"
#include "core/soa/hotpath.h"
#include "model/op_indexer.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

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

std::vector<SimdTier> CompiledTiers() {
  std::vector<SimdTier> tiers;
  for (std::uint8_t t = 0; t <= static_cast<std::uint8_t>(MaxSimdTier());
       ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

/// Restores the default dispatch tier when a per-tier sweep exits.
struct TierGuard {
  ~TierGuard() { SetSimdTier(MaxSimdTier()); }
};

void ExpectSameWitness(const AdmitResult& ref, const AdmitResult& soa,
                       int round, std::size_t pos) {
  ASSERT_EQ(ref.outcome, soa.outcome)
      << "round " << round << " pos " << pos << " tier "
      << SimdTierName(ActiveSimdTier());
  ASSERT_EQ(ref.txn, soa.txn) << "round " << round << " pos " << pos;
  ASSERT_EQ(ref.witness_arc.valid, soa.witness_arc.valid)
      << "round " << round << " pos " << pos;
  if (ref.witness_arc.valid) {
    EXPECT_EQ(ref.witness_arc.from, soa.witness_arc.from)
        << "round " << round << " pos " << pos << ": witness source differs";
    EXPECT_EQ(ref.witness_arc.to, soa.witness_arc.to)
        << "round " << round << " pos " << pos << ": witness target differs";
    EXPECT_EQ(ref.witness_arc.arc_kinds, soa.witness_arc.arc_kinds)
        << "round " << round << " pos " << pos << ": witness kinds differ";
  }
}

void ExpectSameState(const OnlineRsrChecker& ref, const SoaRsrChecker& soa,
                     const TransactionSet& txns, int round) {
  ASSERT_EQ(ref.executed_count(), soa.executed_count()) << "round " << round;
  ASSERT_EQ(ref.rejections(), soa.rejections()) << "round " << round;
  ASSERT_EQ(ref.arcs_submitted(), soa.arcs_submitted()) << "round " << round;
  ASSERT_EQ(ref.arcs_inserted_total(), soa.arcs_inserted_total())
      << "round " << round;
  ASSERT_EQ(ref.feed_log(), soa.feed_log()) << "round " << round;
  ASSERT_EQ(ref.topology().edge_count(), soa.topology().edge_count())
      << "round " << round;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    ASSERT_EQ(ref.TxnIsolated(t), soa.TxnIsolated(t))
        << "round " << round << " txn " << t;
    ASSERT_EQ(ref.TxnHasExecuted(t), soa.TxnHasExecuted(t))
        << "round " << round << " txn " << t;
  }
  for (ObjectId obj = 0; obj < txns.object_count(); ++obj) {
    ASSERT_EQ(ref.FrontierWriterGid(obj), soa.FrontierWriterGid(obj))
        << "round " << round << " object " << obj;
    std::vector<std::size_t> ref_readers;
    std::vector<std::size_t> soa_readers;
    ref.FrontierReaders(obj, &ref_readers);
    soa.FrontierReaders(obj, &soa_readers);
    ASSERT_EQ(ref_readers, soa_readers)
        << "round " << round << " object " << obj;
  }
}

// Per-op decision + witness + counter identity on random workloads, for
// every compiled tier. Every round draws a fresh workload/spec/schedule
// (same seed sequence per tier, so all tiers see identical inputs).
TEST(SoaDifferential, DecisionAndWitnessIdenticalAtEveryOpPerTier) {
  constexpr int kRounds = 500;
  const TierGuard guard;
  for (const SimdTier tier : CompiledTiers()) {
    ASSERT_EQ(SetSimdTier(tier), tier);
    const Rng base(0x50A0);
    int rejected_cases = 0;
    for (int round = 0; round < kRounds; ++round) {
      Rng rng = base.Split(static_cast<std::uint64_t>(round));
      WorkloadParams wp;
      wp.txn_count = 2 + rng.UniformIndex(4);
      wp.min_ops_per_txn = 1;
      wp.max_ops_per_txn = 5;
      wp.object_count = 2 + rng.UniformIndex(3);
      wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
      const TransactionSet txns = GenerateTransactions(wp, &rng);
      const AtomicitySpec spec = DrawSpec(txns, &rng);
      const Schedule schedule = RandomSchedule(txns, &rng);

      OnlineRsrChecker ref(txns, spec);
      SoaRsrChecker soa(txns, spec);
      for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
        const AdmitResult r = ref.TryAppend(schedule.op(pos));
        const AdmitResult s = soa.TryAppend(schedule.op(pos));
        ExpectSameWitness(r, s, round, pos);
        if (!r.ok()) {
          ++rejected_cases;
          break;
        }
      }
      ExpectSameState(ref, soa, txns, round);
    }
    // The sweep must exercise both outcomes heavily to mean anything.
    EXPECT_GE(rejected_cases, 50) << "tier " << SimdTierName(tier);
  }
}

// The isolated fast path must agree on eligibility (retry vs accept) and
// leave both checkers in identical state; ineligible ops fall back to
// the slow path on both sides, exactly as the admitter's shard cores do.
TEST(SoaDifferential, IsolatedFastPathAgreesPerTier) {
  constexpr int kRounds = 500;
  const TierGuard guard;
  for (const SimdTier tier : CompiledTiers()) {
    ASSERT_EQ(SetSimdTier(tier), tier);
    const Rng base(0x150F);
    int fast_accepts = 0;
    for (int round = 0; round < kRounds; ++round) {
      Rng rng = base.Split(static_cast<std::uint64_t>(round));
      WorkloadParams wp;
      wp.txn_count = 2 + rng.UniformIndex(4);
      wp.min_ops_per_txn = 1;
      wp.max_ops_per_txn = 5;
      wp.object_count = 2 + rng.UniformIndex(4);
      wp.read_ratio = 0.3 + 0.4 * rng.UniformDouble();
      const TransactionSet txns = GenerateTransactions(wp, &rng);
      const AtomicitySpec spec = DrawSpec(txns, &rng);
      const Schedule schedule = RandomSchedule(txns, &rng);

      OnlineRsrChecker ref(txns, spec);
      SoaRsrChecker soa(txns, spec);
      for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
        const Operation& op = schedule.op(pos);
        AdmitResult r = AdmitResult::Retry(op.txn);
        AdmitResult s = AdmitResult::Retry(op.txn);
        if (rng.UniformDouble() < 0.5) {
          r = ref.TryAppendIsolated(op);
          s = soa.TryAppendIsolated(op);
          ASSERT_EQ(r.outcome, s.outcome)
              << "round " << round << " pos " << pos << " (isolated)";
          if (r.ok()) ++fast_accepts;
        }
        if (r == AdmitOutcome::kRetry) {
          r = ref.TryAppend(op);
          s = soa.TryAppend(op);
          ExpectSameWitness(r, s, round, pos);
        }
        if (!r.ok()) break;
      }
      ExpectSameState(ref, soa, txns, round);
    }
    EXPECT_GE(fast_accepts, 100) << "tier " << SimdTierName(tier);
  }
}

// Exact aborts: both checkers reset + replay; decisions and state must
// stay identical through arbitrary mixes of feeds, rejections and
// RemoveTransactionExact calls.
TEST(SoaDifferential, ExactAbortKeepsCheckersIdenticalPerTier) {
  constexpr int kRounds = 120;
  const TierGuard guard;
  for (const SimdTier tier : CompiledTiers()) {
    ASSERT_EQ(SetSimdTier(tier), tier);
    const Rng base(0xABF7);
    for (int round = 0; round < kRounds; ++round) {
      Rng rng = base.Split(static_cast<std::uint64_t>(round));
      WorkloadParams wp;
      wp.txn_count = 2 + rng.UniformIndex(3);
      wp.min_ops_per_txn = 1;
      wp.max_ops_per_txn = 4;
      wp.object_count = 2 + rng.UniformIndex(2);
      const TransactionSet txns = GenerateTransactions(wp, &rng);
      const AtomicitySpec spec = DrawSpec(txns, &rng);

      OnlineRsrChecker ref(txns, spec);
      SoaRsrChecker soa(txns, spec);
      std::vector<std::uint32_t> next(txns.txn_count(), 0);
      for (int step = 0; step < 60; ++step) {
        const TxnId t =
            static_cast<TxnId>(rng.UniformIndex(txns.txn_count()));
        if (next[t] < txns.txn(t).size() && rng.UniformDouble() < 0.85) {
          const Operation& op = txns.txn(t).op(next[t]);
          const AdmitResult r = ref.TryAppend(op);
          const AdmitResult s = soa.TryAppend(op);
          ExpectSameWitness(r, s, round, static_cast<std::size_t>(step));
          if (r.ok()) {
            ++next[t];
          } else {
            ref.RemoveTransactionExact(t);
            soa.RemoveTransactionExact(t);
            next[t] = 0;
          }
        } else if (next[t] > 0 && rng.UniformDouble() < 0.3) {
          ref.RemoveTransactionExact(t);
          soa.RemoveTransactionExact(t);
          next[t] = 0;
        }
        ExpectSameState(ref, soa, txns, round);
      }
    }
  }
}

// ------------------------------------------------------------ DenseBitset

// Naive per-bit references for the kernel-backed bulk operations.
DenseBitset NaiveUnion(const DenseBitset& a, const DenseBitset& b) {
  DenseBitset out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) || b.Test(i)) out.Set(i);
  }
  return out;
}

DenseBitset NaiveIntersection(const DenseBitset& a, const DenseBitset& b) {
  DenseBitset out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) && b.Test(i)) out.Set(i);
  }
  return out;
}

bool NaiveIntersects(const DenseBitset& a, const DenseBitset& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) && b.Test(i)) return true;
  }
  return false;
}

TEST(DenseBitsetWordBoundary, BulkOpsMatchNaiveAtBoundarySizesPerTier) {
  const std::size_t kSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};
  const TierGuard guard;
  for (const SimdTier tier : CompiledTiers()) {
    ASSERT_EQ(SetSimdTier(tier), tier);
    Rng rng(0xB1B5);
    for (const std::size_t size : kSizes) {
      for (int trial = 0; trial < 20; ++trial) {
        DenseBitset a(size);
        DenseBitset b(size);
        for (std::size_t i = 0; i < size; ++i) {
          if (rng.UniformDouble() < 0.4) a.Set(i);
          if (rng.UniformDouble() < 0.4) b.Set(i);
        }
        DenseBitset u = a;
        u.UnionWith(b);
        EXPECT_EQ(u, NaiveUnion(a, b))
            << "size " << size << " tier " << SimdTierName(tier);
        DenseBitset x = a;
        x.IntersectWith(b);
        EXPECT_EQ(x, NaiveIntersection(a, b))
            << "size " << size << " tier " << SimdTierName(tier);
        EXPECT_EQ(a.Intersects(b), NaiveIntersects(a, b))
            << "size " << size << " tier " << SimdTierName(tier);
        EXPECT_EQ(u.Count(), NaiveUnion(a, b).Count());
      }
    }
  }
}

TEST(DenseBitsetWordBoundary, SetTestFindAtWordEdges) {
  for (const std::size_t size : {1ul, 63ul, 64ul, 65ul, 128ul, 129ul}) {
    DenseBitset bits(size);
    EXPECT_TRUE(bits.None());
    EXPECT_EQ(bits.FindNext(0), size);
    bits.Set(0);
    bits.Set(size - 1);
    EXPECT_TRUE(bits.Test(0));
    EXPECT_TRUE(bits.Test(size - 1));
    EXPECT_EQ(bits.Count(), size == 1 ? 1u : 2u);
    EXPECT_EQ(bits.FindNext(0), 0u);
    if (size > 1) {
      EXPECT_EQ(bits.FindNext(1), size - 1);
      EXPECT_EQ(bits.ToVector(),
                (std::vector<std::size_t>{0, size - 1}));
    }
    bits.Reset(size - 1);
    EXPECT_FALSE(bits.Test(size - 1));
  }
}

TEST(DenseBitsetWordBoundary, ResizePreservesBitsAndZeroesTail) {
  DenseBitset bits(65);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Resize(130);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 3u);
  EXPECT_EQ(bits.FindNext(65), 130u);  // grown tail is zero
  bits.Set(129);
  bits.Resize(64);  // shrink drops bits 64..129
  EXPECT_EQ(bits.Count(), 2u);
  bits.Resize(130);  // regrow re-exposes zeros, not stale bits
  EXPECT_FALSE(bits.Test(64));
  EXPECT_FALSE(bits.Test(129));
  EXPECT_EQ(bits.Count(), 2u);
  // Degenerate sizes.
  DenseBitset empty(0);
  EXPECT_TRUE(empty.None());
  EXPECT_EQ(empty.Count(), 0u);
  empty.Resize(1);
  EXPECT_FALSE(empty.Test(0));
}

}  // namespace
}  // namespace relser
