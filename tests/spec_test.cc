// Tests for relative atomicity specifications: breakpoint mechanics,
// unit derivation, PushForward/PullBackward (the Section 3 primitives),
// and every published builder family.
#include <gtest/gtest.h>

#include "model/text.h"
#include "spec/atomicity_spec.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TransactionSet FourOpTxnPair() {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] w1[z] r1[y]\nT2 = r2[y] w2[y] r2[x]\n");
  RELSER_CHECK(txns.ok());
  return *std::move(txns);
}

TEST(AtomicitySpec, DefaultIsAbsolute) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec spec(txns);
  EXPECT_TRUE(spec.IsAbsolute());
  EXPECT_EQ(spec.TotalBreakpoints(), 0u);
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
  EXPECT_EQ(spec.UnitBounds(0, 1, 0), (UnitRange{0, 3}));
}

TEST(AtomicitySpec, SetAndClearBreakpoints) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 1);
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(spec.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(spec.HasBreakpoint(1, 0, 1));  // pairs are directional
  EXPECT_EQ(spec.UnitCount(0, 1), 2u);
  spec.ClearBreakpoint(0, 1, 1);
  EXPECT_TRUE(spec.IsAbsolute());
}

TEST(AtomicitySpec, UnitsDeriveFromBreakpoints) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 0);
  spec.SetBreakpoint(0, 1, 2);
  const auto units = spec.Units(0, 1);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], (UnitRange{0, 0}));
  EXPECT_EQ(units[1], (UnitRange{1, 2}));
  EXPECT_EQ(units[2], (UnitRange{3, 3}));
  EXPECT_EQ(spec.UnitOfOp(0, 1, 0), 0u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 1), 1u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 2), 1u);
  EXPECT_EQ(spec.UnitOfOp(0, 1, 3), 2u);
  EXPECT_TRUE(units[1].Contains(2));
  EXPECT_FALSE(units[1].Contains(3));
}

TEST(AtomicitySpec, PushForwardPullBackwardMatchUnitEnds) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.SetBreakpoint(0, 1, 1);  // units: [0,1] [2,3]
  EXPECT_EQ(spec.PushForward(0, 1, 0), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 1), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 2), 3u);
  EXPECT_EQ(spec.PullBackward(0, 1, 3), 2u);
  EXPECT_EQ(spec.PullBackward(0, 1, 1), 0u);
  EXPECT_EQ(spec.PullBackward(0, 1, 0), 0u);
}

TEST(AtomicitySpec, PushPullConsistentWithUnitOfOpOnRandomSpecs) {
  Rng rng(5150);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 1;
  wp.max_ops_per_txn = 7;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 20; ++round) {
    const AtomicitySpec spec = RandomSpec(txns, 0.4, &rng);
    for (TxnId i = 0; i < txns.txn_count(); ++i) {
      for (TxnId j = 0; j < txns.txn_count(); ++j) {
        if (i == j) continue;
        for (std::uint32_t k = 0; k < txns.txn(i).size(); ++k) {
          const std::size_t unit = spec.UnitOfOp(i, j, k);
          const UnitRange bounds = spec.UnitBounds(i, j, unit);
          EXPECT_EQ(spec.PushForward(i, j, k), bounds.last);
          EXPECT_EQ(spec.PullBackward(i, j, k), bounds.first);
          EXPECT_TRUE(bounds.Contains(k));
        }
      }
    }
  }
}

TEST(AtomicitySpec, RelaxFullyMakesSingletonUnits) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  spec.RelaxFully(0, 1);
  EXPECT_EQ(spec.UnitCount(0, 1), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(spec.PushForward(0, 1, k), k);
    EXPECT_EQ(spec.PullBackward(0, 1, k), k);
  }
  // The other direction is untouched.
  EXPECT_EQ(spec.UnitCount(1, 0), 1u);
}

TEST(AtomicitySpec, SingleOperationTransactionHasNoGaps) {
  auto txns = ParseTransactionSet("T1 = w1[x]\nT2 = r2[x]\n");
  AtomicitySpec spec(*txns);
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
  EXPECT_EQ(spec.PushForward(0, 1, 0), 0u);
  spec.RelaxFully(0, 1);  // no-op, no gaps exist
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
}

TEST(AtomicitySpec, PermissivenessPartialOrder) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec absolute = AbsoluteSpec(txns);
  const AtomicitySpec relaxed = FullyRelaxedSpec(txns);
  AtomicitySpec middle(txns);
  middle.SetBreakpoint(0, 1, 1);
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(absolute));
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(middle));
  EXPECT_TRUE(middle.AtLeastAsPermissiveAs(absolute));
  EXPECT_FALSE(absolute.AtLeastAsPermissiveAs(middle));
  EXPECT_FALSE(middle.AtLeastAsPermissiveAs(relaxed));
  EXPECT_TRUE(middle.AtLeastAsPermissiveAs(middle));
}

TEST(AtomicitySpec, ValidateAgainstDetectsShapeDrift) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec spec(txns);
  EXPECT_TRUE(spec.ValidateAgainst(txns).ok());
  auto other = ParseTransactionSet("T1 = r1[x]\nT2 = r2[y]\n");
  EXPECT_FALSE(spec.ValidateAgainst(*other).ok());
  auto three = ParseTransactionSet("T1 = r1[x]\nT2 = r2[y]\nT3 = r3[x]\n");
  EXPECT_FALSE(spec.ValidateAgainst(*three).ok());
}

TEST(Builders, SetUnitsByLength) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec spec(txns);
  SetUnitsByLength(&spec, 0, 1, {2, 1, 1});
  EXPECT_EQ(spec.UnitCount(0, 1), 3u);
  EXPECT_EQ(spec.UnitBounds(0, 1, 0), (UnitRange{0, 1}));
  EXPECT_EQ(spec.UnitBounds(0, 1, 1), (UnitRange{2, 2}));
  // Re-partitioning replaces the previous boundaries.
  SetUnitsByLength(&spec, 0, 1, {4});
  EXPECT_EQ(spec.UnitCount(0, 1), 1u);
}

TEST(Builders, FluentChainMatchesHandBuiltSpec) {
  const TransactionSet txns = FourOpTxnPair();
  // Hand-built reference.
  AtomicitySpec expected(txns);
  expected.RelaxFully(0, 1);
  expected.SetBreakpoint(1, 0, 1);
  // Same spec as one fluent declaration.
  const AtomicitySpec spec = SpecBuilder(txns)
                                 .RelaxPair(0, 1)
                                 .Breakpoint(1, 0, 1)
                                 .Build();
  for (std::uint32_t g = 0; g + 1 < 4; ++g) {  // T1 has 3 gaps
    EXPECT_EQ(spec.HasBreakpoint(0, 1, g), expected.HasBreakpoint(0, 1, g));
  }
  for (std::uint32_t g = 0; g + 1 < 3; ++g) {  // T2 has 2 gaps
    EXPECT_EQ(spec.HasBreakpoint(1, 0, g), expected.HasBreakpoint(1, 0, g));
  }
  EXPECT_EQ(spec.UnitCount(0, 1), 4u);
  EXPECT_EQ(spec.UnitCount(1, 0), 2u);
}

TEST(Builders, FluentRelaxAllAndClearEqualNamedFamilies) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec relaxed = SpecBuilder(txns).RelaxAll().Build();
  const AtomicitySpec reference = FullyRelaxedSpec(txns);
  EXPECT_TRUE(relaxed.AtLeastAsPermissiveAs(reference));
  EXPECT_TRUE(reference.AtLeastAsPermissiveAs(relaxed));
  // ClearBreakpoint walks a relaxation back.
  const AtomicitySpec narrowed =
      SpecBuilder(txns).RelaxPair(0, 1).ClearBreakpoint(0, 1, 2).Build();
  EXPECT_TRUE(narrowed.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(narrowed.HasBreakpoint(0, 1, 2));
}

TEST(Builders, FluentUnitsMeetJoinAndFromSpec) {
  const TransactionSet txns = FourOpTxnPair();
  const AtomicitySpec units =
      SpecBuilder(txns).UnitsByLength(0, 1, {2, 2}).Build();
  EXPECT_EQ(units.UnitCount(0, 1), 2u);
  EXPECT_EQ(units.UnitBounds(0, 1, 0), (UnitRange{0, 1}));

  // Meet with the absolute spec erases every relaxation; join with the
  // fully relaxed spec grants all of them.
  const AtomicitySpec met =
      SpecBuilder(txns).RelaxAll().Meet(AbsoluteSpec(txns)).Build();
  EXPECT_EQ(met.UnitCount(0, 1), 1u);
  const AtomicitySpec joined = SpecBuilder(txns)
                                   .Join(FullyRelaxedSpec(txns))
                                   .Build();
  EXPECT_EQ(joined.UnitCount(0, 1), 4u);

  // FromSpec continues a chain from a family constructor's output.
  const AtomicitySpec extended = SpecBuilder::FromSpec(AbsoluteSpec(txns))
                                     .Breakpoint(0, 1, 1)
                                     .Build();
  EXPECT_TRUE(extended.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(extended.HasBreakpoint(0, 1, 0));
}

TEST(Builders, CompatibilitySets) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x]\nT2 = r2[x] w2[x]\nT3 = r3[x] w3[x]\n");
  // T1 and T2 share a set; T3 is alone.
  const AtomicitySpec spec = CompatibilitySetSpec(*txns, {0, 0, 1});
  EXPECT_EQ(spec.UnitCount(0, 1), 2u);  // fully relaxed within the set
  EXPECT_EQ(spec.UnitCount(1, 0), 2u);
  EXPECT_EQ(spec.UnitCount(0, 2), 1u);  // atomic across sets
  EXPECT_EQ(spec.UnitCount(2, 0), 1u);
  EXPECT_EQ(spec.UnitCount(2, 1), 1u);
}

TEST(Builders, MultilevelVisibilityByProximity) {
  auto txns = ParseTransactionSet(
      "T1 = r1[x] w1[x] r1[y]\nT2 = r2[x]\nT3 = r3[x]\n");
  // T1 and T2 share group path {0,0}; T3 is {1,0}.
  // T1's gap 0 has level 1 (same top group); gap 1 has level 0 (all).
  const AtomicitySpec spec = MultilevelSpec(
      *txns, {{0, 0}, {0, 0}, {1, 0}}, {{1, 0}, {}, {}});
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 0));   // T2 is close: sees level 1
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 1));   // level 0 visible to all
  EXPECT_FALSE(spec.HasBreakpoint(0, 2, 0));  // T3 too far for level 1
  EXPECT_TRUE(spec.HasBreakpoint(0, 2, 1));
}

TEST(Builders, MultilevelBreakpointSetsAreNested) {
  // Lynch's hierarchies guarantee that for any two observers, one's
  // breakpoint set contains the other's; verify on random instances.
  Rng rng(99);
  WorkloadParams wp;
  wp.txn_count = 6;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 10; ++round) {
    const AtomicitySpec spec = RandomMultilevelSpec(txns, 3, 0.3, 0.5, &rng);
    for (TxnId i = 0; i < txns.txn_count(); ++i) {
      const std::size_t gaps = txns.txn(i).size() - 1;
      for (TxnId a = 0; a < txns.txn_count(); ++a) {
        for (TxnId b = 0; b < txns.txn_count(); ++b) {
          if (a == i || b == i || a == b) continue;
          bool a_superset = true;
          bool b_superset = true;
          for (std::uint32_t g = 0; g < gaps; ++g) {
            const bool in_a = spec.HasBreakpoint(i, a, g);
            const bool in_b = spec.HasBreakpoint(i, b, g);
            a_superset = a_superset && (in_b ? in_a : true);
            b_superset = b_superset && (in_a ? in_b : true);
          }
          EXPECT_TRUE(a_superset || b_superset)
              << "breakpoint sets of T" << i + 1 << " for T" << a + 1
              << " and T" << b + 1 << " are incomparable";
        }
      }
    }
  }
}

TEST(Builders, BreakpointSpecSetsExactGaps) {
  const TransactionSet txns = FourOpTxnPair();
  std::vector<std::vector<std::vector<std::uint32_t>>> breakpoints(2);
  breakpoints[0] = {{}, {0, 2}};
  breakpoints[1] = {{1}, {}};
  const AtomicitySpec spec = BreakpointSpec(txns, breakpoints);
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 0));
  EXPECT_FALSE(spec.HasBreakpoint(0, 1, 1));
  EXPECT_TRUE(spec.HasBreakpoint(0, 1, 2));
  EXPECT_TRUE(spec.HasBreakpoint(1, 0, 1));
  EXPECT_FALSE(spec.HasBreakpoint(1, 0, 0));
}

TEST(SpecGen, DensityExtremes) {
  Rng rng(1);
  WorkloadParams wp;
  wp.txn_count = 3;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  EXPECT_TRUE(RandomSpec(txns, 0.0, &rng).IsAbsolute());
  EXPECT_EQ(RandomSpec(txns, 1.0, &rng), FullyRelaxedSpec(txns));
  EXPECT_EQ(RandomUniformObserverSpec(txns, 1.0, &rng),
            FullyRelaxedSpec(txns));
}

TEST(SpecGen, UniformObserverGivesIdenticalViews) {
  Rng rng(2);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 4;
  wp.max_ops_per_txn = 6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.5, &rng);
  for (TxnId i = 0; i < txns.txn_count(); ++i) {
    for (std::uint32_t g = 0; g + 1 < txns.txn(i).size(); ++g) {
      bool any = false;
      bool all = true;
      for (TxnId j = 0; j < txns.txn_count(); ++j) {
        if (i == j) continue;
        const bool has = spec.HasBreakpoint(i, j, g);
        any = any || has;
        all = all && has;
      }
      EXPECT_EQ(any, all) << "observer views differ at T" << i + 1
                          << " gap " << g;
    }
  }
}

TEST(SpecGen, DeterministicGivenSeed) {
  Rng rng1(7);
  Rng rng2(7);
  WorkloadParams wp;
  wp.txn_count = 3;
  const TransactionSet txns1 = GenerateTransactions(wp, &rng1);
  const TransactionSet txns2 = GenerateTransactions(wp, &rng2);
  EXPECT_EQ(RandomSpec(txns1, 0.5, &rng1), RandomSpec(txns2, 0.5, &rng2));
}


TEST(SpecAlgebra, MeetIsIntersectionJoinIsUnion) {
  const TransactionSet txns = FourOpTxnPair();
  AtomicitySpec a(txns);
  a.SetBreakpoint(0, 1, 0);
  a.SetBreakpoint(0, 1, 1);
  AtomicitySpec b(txns);
  b.SetBreakpoint(0, 1, 1);
  b.SetBreakpoint(0, 1, 2);
  const AtomicitySpec meet = MeetSpecs(a, b);
  EXPECT_FALSE(meet.HasBreakpoint(0, 1, 0));
  EXPECT_TRUE(meet.HasBreakpoint(0, 1, 1));
  EXPECT_FALSE(meet.HasBreakpoint(0, 1, 2));
  const AtomicitySpec join = JoinSpecs(a, b);
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 0));
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 1));
  EXPECT_TRUE(join.HasBreakpoint(0, 1, 2));
}

TEST(SpecAlgebra, LatticeLawsOnRandomSpecs) {
  Rng rng(404);
  WorkloadParams wp;
  wp.txn_count = 4;
  wp.min_ops_per_txn = 2;
  wp.max_ops_per_txn = 5;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  for (int round = 0; round < 20; ++round) {
    const AtomicitySpec a = RandomSpec(txns, 0.4, &rng);
    const AtomicitySpec b = RandomSpec(txns, 0.4, &rng);
    const AtomicitySpec meet = MeetSpecs(a, b);
    const AtomicitySpec join = JoinSpecs(a, b);
    // Bounds.
    EXPECT_TRUE(a.AtLeastAsPermissiveAs(meet));
    EXPECT_TRUE(b.AtLeastAsPermissiveAs(meet));
    EXPECT_TRUE(join.AtLeastAsPermissiveAs(a));
    EXPECT_TRUE(join.AtLeastAsPermissiveAs(b));
    // Commutativity and idempotence.
    EXPECT_EQ(meet, MeetSpecs(b, a));
    EXPECT_EQ(join, JoinSpecs(b, a));
    EXPECT_EQ(MeetSpecs(a, a), a);
    EXPECT_EQ(JoinSpecs(a, a), a);
    // Absorption.
    EXPECT_EQ(MeetSpecs(a, JoinSpecs(a, b)), a);
    EXPECT_EQ(JoinSpecs(a, MeetSpecs(a, b)), a);
    // Identities of the lattice ends.
    EXPECT_EQ(MeetSpecs(a, FullyRelaxedSpec(txns)), a);
    EXPECT_EQ(JoinSpecs(a, AbsoluteSpec(txns)), a);
  }
}

// Naive per-gap reference for the bitmask layout: gaps[i][j][g] is true
// iff Atomicity(Ti, Tj) breaks after op g.
struct NaiveSpec {
  std::vector<std::vector<std::vector<bool>>> gaps;

  explicit NaiveSpec(const TransactionSet& txns)
      : gaps(txns.txn_count(), std::vector<std::vector<bool>>(
                                   txns.txn_count())) {
    for (TxnId i = 0; i < txns.txn_count(); ++i) {
      const std::size_t size = txns.txn(i).size();
      for (TxnId j = 0; j < txns.txn_count(); ++j) {
        if (i != j) gaps[i][j].assign(size == 0 ? 0 : size - 1, false);
      }
    }
  }

  std::uint32_t PushForward(TxnId i, TxnId j, std::uint32_t index) const {
    std::uint32_t last = index;
    while (last < gaps[i][j].size() && !gaps[i][j][last]) ++last;
    return last;
  }
  std::uint32_t PullBackward(TxnId i, TxnId j, std::uint32_t index) const {
    std::uint32_t first = index;
    while (first > 0 && !gaps[i][j][first - 1]) --first;
    return first;
  }
  std::size_t Count(TxnId i, TxnId j, std::size_t end) const {
    std::size_t count = 0;
    for (std::size_t g = 0; g < end; ++g) {
      if (gaps[i][j][g]) ++count;
    }
    return count;
  }
};

// Transactions of the given sizes over one object: single-word (<= 65
// ops), word-boundary (65, 66) and multi-word (130) pairs, plus the
// gapless sizes 0 and 1.
TransactionSet TxnsOfSizes(const std::vector<std::size_t>& sizes) {
  TransactionSet txns;
  const ObjectId object = txns.AddObjects(1);
  for (const std::size_t size : sizes) {
    Transaction* txn = txns.AddTransaction();
    for (std::size_t k = 0; k < size; ++k) txn->Write(object);
  }
  return txns;
}

void RandomizeBoth(Rng* rng, double density, AtomicitySpec* spec,
                   NaiveSpec* naive) {
  const auto n = static_cast<TxnId>(spec->txn_count());
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = 0; j < n; ++j) {
      if (i == j) continue;
      std::vector<bool>& gaps = naive->gaps[i][j];
      if (!gaps.empty() && rng->Bernoulli(0.1)) {
        spec->RelaxFully(i, j);
        gaps.assign(gaps.size(), true);
        continue;
      }
      for (std::uint32_t g = 0; g < gaps.size(); ++g) {
        if (rng->Bernoulli(density)) {
          spec->SetBreakpoint(i, j, g);
          gaps[g] = true;
        } else if (rng->Bernoulli(0.5)) {
          spec->ClearBreakpoint(i, j, g);
          gaps[g] = false;
        }
      }
    }
  }
}

TEST(AtomicitySpec, BitmaskLayoutMatchesNaiveGapModel) {
  const TransactionSet txns = TxnsOfSizes({0, 1, 2, 64, 65, 66, 130});
  const auto n = static_cast<TxnId>(txns.txn_count());
  Rng rng(0xB17);
  for (const double density : {0.0, 0.02, 0.3, 0.9, 1.0}) {
    AtomicitySpec a(txns);
    AtomicitySpec b(txns);
    NaiveSpec na(txns);
    NaiveSpec nb(txns);
    RandomizeBoth(&rng, density, &a, &na);
    RandomizeBoth(&rng, density / 2, &b, &nb);

    std::size_t total = 0;
    bool a_covers_b = true;
    bool b_covers_a = true;
    for (TxnId i = 0; i < n; ++i) {
      const std::size_t size = txns.txn(i).size();
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        const std::vector<bool>& gaps = na.gaps[i][j];
        for (std::uint32_t g = 0; g < gaps.size(); ++g) {
          ASSERT_EQ(a.HasBreakpoint(i, j, g), gaps[g]) << i << "," << j;
          a_covers_b = a_covers_b && (gaps[g] || !nb.gaps[i][j][g]);
          b_covers_a = b_covers_a && (nb.gaps[i][j][g] || !gaps[g]);
        }
        const std::size_t breaks = na.Count(i, j, gaps.size());
        total += breaks;
        EXPECT_EQ(a.UnitCount(i, j), breaks + 1);
        if (size == 0) continue;
        std::vector<UnitRange> units;
        for (std::uint32_t k = 0; k < size; ++k) {
          const std::uint32_t pushed = na.PushForward(i, j, k);
          const std::uint32_t pulled = na.PullBackward(i, j, k);
          ASSERT_EQ(a.PushForward(i, j, k), pushed)
              << i << "," << j << "@" << k;
          ASSERT_EQ(a.PullBackward(i, j, k), pulled)
              << i << "," << j << "@" << k;
          EXPECT_EQ(a.UnitOfOp(i, j, k), na.Count(i, j, k));
          if (pulled == k) units.push_back(UnitRange{pulled, pushed});
        }
        EXPECT_EQ(a.Units(i, j), units);
      }
    }
    EXPECT_EQ(a.TotalBreakpoints(), total);
    EXPECT_EQ(a.IsAbsolute(), total == 0);
    EXPECT_EQ(a.AtLeastAsPermissiveAs(b), a_covers_b);
    EXPECT_EQ(b.AtLeastAsPermissiveAs(a), b_covers_a);
    EXPECT_EQ(a == b, na.gaps == nb.gaps);

    // The lattice operations agree with per-gap AND / OR.
    const AtomicitySpec meet = MeetSpecs(a, b);
    const AtomicitySpec join = JoinSpecs(a, b);
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        for (std::uint32_t g = 0; g < na.gaps[i][j].size(); ++g) {
          EXPECT_EQ(meet.HasBreakpoint(i, j, g),
                    na.gaps[i][j][g] && nb.gaps[i][j][g]);
          EXPECT_EQ(join.HasBreakpoint(i, j, g),
                    na.gaps[i][j][g] || nb.gaps[i][j][g]);
        }
      }
    }

    // A single flipped gap in the last word of a multi-word pair is seen
    // by equality, and RelaxFully sets exactly the pair's gaps.
    AtomicitySpec flipped = a;
    if (flipped.HasBreakpoint(6, 3, 128)) {
      flipped.ClearBreakpoint(6, 3, 128);
    } else {
      flipped.SetBreakpoint(6, 3, 128);
    }
    EXPECT_FALSE(flipped == a);
    for (TxnId i = 0; i < n; ++i) {
      for (TxnId j = 0; j < n; ++j) {
        if (i != j) flipped.RelaxFully(i, j);
      }
    }
    EXPECT_EQ(flipped, FullyRelaxedSpec(txns));
    std::size_t all_gaps = 0;
    for (TxnId i = 0; i < n; ++i) {
      const std::size_t size = txns.txn(i).size();
      all_gaps += (n - 1) * (size == 0 ? 0 : size - 1);
      for (TxnId j = 0; j < n; ++j) {
        if (i != j && size > 0) {
          EXPECT_EQ(flipped.UnitCount(i, j), size);
        }
      }
    }
    EXPECT_EQ(flipped.TotalBreakpoints(), all_gaps);
  }
}

// ProjectRow against its definition: projected gap g of (Ti, Tj) breaks
// iff PushForward(i, j, kept[g]) < kept[g+1], i.e. some original gap in
// [kept[g], kept[g+1]) breaks. Sizes cover one-word (2, 64, 65) and
// multi-word (66, 130) source rows; the kept lists cover the identity,
// fewer than two ops, random subsets and windows exactly 64 gaps long.
// The destination starts with every row relaxed, so a stale bit ProjectRow
// fails to overwrite shows, and so does a write outside row i.
TEST(AtomicitySpec, ProjectRowMatchesPerGapPushForwardDefinition) {
  const std::vector<std::size_t> sizes = {2, 64, 65, 66, 130, 3};
  const TransactionSet txns = TxnsOfSizes(sizes);
  const auto n = static_cast<TxnId>(txns.txn_count());
  Rng rng(0x9A0E);
  std::size_t rows_checked = 0;
  for (const double density : {0.0, 0.02, 0.2, 0.7}) {
    AtomicitySpec from(txns);
    NaiveSpec naive(txns);
    RandomizeBoth(&rng, density, &from, &naive);
    for (TxnId i = 0; i < n; ++i) {
      const auto size = static_cast<std::uint32_t>(sizes[i]);
      std::vector<std::vector<std::uint32_t>> kept_lists;
      std::vector<std::uint32_t> all(size);
      for (std::uint32_t k = 0; k < size; ++k) all[k] = k;
      kept_lists.push_back(all);
      kept_lists.push_back({});
      kept_lists.push_back({size - 1});
      kept_lists.push_back({0, size - 1});
      if (size >= 65) kept_lists.push_back({0, 64});
      if (size >= 66) kept_lists.push_back({1, 65});
      if (size >= 129) kept_lists.push_back({0, 64, 128});
      for (const double keep : {0.1, 0.5, 0.9}) {
        for (int round = 0; round < 4; ++round) {
          std::vector<std::uint32_t> kept;
          for (std::uint32_t k = 0; k < size; ++k) {
            if (rng.Bernoulli(keep)) kept.push_back(k);
          }
          kept_lists.push_back(kept);
        }
      }
      for (const std::vector<std::uint32_t>& kept : kept_lists) {
        std::vector<std::size_t> projected_sizes = sizes;
        projected_sizes[i] = kept.size();
        const TransactionSet projected = TxnsOfSizes(projected_sizes);
        AtomicitySpec to(projected);
        for (TxnId a = 0; a < n; ++a) {
          for (TxnId b = 0; b < n; ++b) {
            if (a != b) to.RelaxFully(a, b);
          }
        }
        AtomicitySpec expected = to;
        for (TxnId j = 0; j < n; ++j) {
          if (j == i) continue;
          for (std::uint32_t g = 0; g + 1 < kept.size(); ++g) {
            if (from.PushForward(i, j, kept[g]) < kept[g + 1]) {
              expected.SetBreakpoint(i, j, g);
            } else {
              expected.ClearBreakpoint(i, j, g);
            }
          }
        }
        to.ProjectRow(from, i, kept);
        EXPECT_TRUE(to == expected)
            << "density " << density << " T" << i << " (" << size
            << " ops) keeping " << kept.size();
        ++rows_checked;
      }
    }
  }
  EXPECT_GT(rows_checked, 300u);
}

}  // namespace
}  // namespace relser
