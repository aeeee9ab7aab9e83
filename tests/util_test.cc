// Unit tests for the util substrate: Status/Result, strings, RNG, Zipf,
// DenseBitset, AsciiTable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/bitset.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/zipf.h"

namespace relser {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad spec");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad spec");
  EXPECT_EQ(status.ToString(), "invalid_argument: bad spec");
}

TEST(Status, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(Status, StreamInsertion) {
  std::ostringstream os;
  os << Status::OutOfRange("position 7");
  EXPECT_EQ(os.str(), "out_of_range: position 7");
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(Result, MovesValueOut) {
  Result<std::string> result(std::string(1000, 'x'));
  const std::string moved = *std::move(result);
  EXPECT_EQ(moved.size(), 1000u);
}

TEST(Result, ArrowOperator) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

// --------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\n x y \r"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("abc"), "abc");
}

TEST(Strings, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(Strings, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("T", 3, " has ", 2.5, " units"), "T3 has 2.5 units");
  EXPECT_EQ(StrCat(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("Atomicity(T1,T2)", "Atomicity(T"));
  EXPECT_FALSE(StartsWith("Atom", "Atomicity"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.Next() == b.Next();
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(7);
  const std::uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(7);
  EXPECT_EQ(rng.Next(), first);
}

TEST(Rng, UniformU64StaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.UniformU64(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t draw = rng.UniformInt(-3, 3);
    EXPECT_GE(draw, -3);
    EXPECT_LE(draw, 3);
    saw_lo = saw_lo || draw == -3;
    saw_hi = saw_hi || draw == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(9);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double draw = rng.UniformDouble();
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(12);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.Bernoulli(0.5);
  }
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(14);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, items);  // astronomically unlikely to be identity
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng rng(15);
  Rng child = rng.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += rng.Next() == child.Next();
  }
  EXPECT_LT(equal, 2);
}

// ------------------------------------------------------------------ zipf

TEST(Zipf, ThetaZeroIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-12);
  }
}

TEST(Zipf, ProbabilitiesSumToOne) {
  const ZipfDistribution zipf(37, 0.9);
  double total = 0;
  for (std::size_t k = 0; k < zipf.n(); ++k) {
    total += zipf.Probability(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SkewMakesHeadHeavier) {
  const ZipfDistribution mild(20, 0.5);
  const ZipfDistribution heavy(20, 1.5);
  EXPECT_GT(heavy.Probability(0), mild.Probability(0));
  EXPECT_LT(heavy.Probability(19), mild.Probability(19));
}

TEST(Zipf, ProbabilitiesMonotoneNonIncreasing) {
  const ZipfDistribution zipf(15, 1.0);
  for (std::size_t k = 1; k < zipf.n(); ++k) {
    EXPECT_GE(zipf.Probability(k - 1), zipf.Probability(k) - 1e-12);
  }
}

TEST(Zipf, SamplesMatchDistributionRoughly) {
  const ZipfDistribution zipf(5, 1.0);
  Rng rng(77);
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[zipf.Sample(&rng)];
  }
  for (std::size_t k = 0; k < 5; ++k) {
    const double expected = zipf.Probability(k) * kDraws;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected) + 10);
  }
}

TEST(Zipf, SingleItem) {
  const ZipfDistribution zipf(1, 2.0);
  Rng rng(1);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
  EXPECT_NEAR(zipf.Probability(0), 1.0, 1e-12);
}

// ---------------------------------------------------------------- bitset

TEST(Bitset, SetTestReset) {
  DenseBitset bits(130);
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(63));
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(Bitset, ClearZeroesEverything) {
  DenseBitset bits(70);
  for (std::size_t i = 0; i < 70; i += 3) bits.Set(i);
  bits.Clear();
  EXPECT_TRUE(bits.None());
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(Bitset, UnionWith) {
  DenseBitset a(100);
  DenseBitset b(100);
  a.Set(1);
  a.Set(65);
  b.Set(2);
  b.Set(65);
  a.UnionWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 3u);
}

// UnionWith runs the word kernel of util/simd.h; sizes straddling
// 64-bit word boundaries are checked against a per-bit reference.
TEST(Bitset, UnionMatchesNaiveAtWordBoundarySizes) {
  const std::size_t kSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};
  Rng rng(0xB1B5);
  for (const std::size_t size : kSizes) {
    for (int trial = 0; trial < 20; ++trial) {
      DenseBitset a(size);
      DenseBitset b(size);
      for (std::size_t i = 0; i < size; ++i) {
        if (rng.UniformDouble() < 0.4) a.Set(i);
        if (rng.UniformDouble() < 0.4) b.Set(i);
      }
      DenseBitset naive(size);
      for (std::size_t i = 0; i < size; ++i) {
        if (a.Test(i) || b.Test(i)) naive.Set(i);
      }
      DenseBitset u = a;
      u.UnionWith(b);
      EXPECT_EQ(u, naive) << "size " << size;
      EXPECT_EQ(u.Count(), naive.Count());
    }
  }
}

TEST(Bitset, SetTestFindAtWordEdges) {
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

TEST(Bitset, ResizePreservesBitsAndZeroesTail) {
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

TEST(Bitset, FindNextWalksSetBits) {
  DenseBitset bits(200);
  bits.Set(3);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_EQ(bits.FindNext(0), 3u);
  EXPECT_EQ(bits.FindNext(4), 63u);
  EXPECT_EQ(bits.FindNext(64), 64u);
  EXPECT_EQ(bits.FindNext(65), 199u);
  EXPECT_EQ(bits.FindNext(200), 200u);  // = size(): none
}

TEST(Bitset, ToVectorAscending) {
  DenseBitset bits(128);
  bits.Set(127);
  bits.Set(0);
  bits.Set(64);
  EXPECT_EQ(bits.ToVector(), (std::vector<std::size_t>{0, 64, 127}));
}

TEST(Bitset, EqualityRequiresSameSizeAndBits) {
  DenseBitset a(64);
  DenseBitset b(64);
  EXPECT_EQ(a, b);
  a.Set(5);
  EXPECT_FALSE(a == b);
  b.Set(5);
  EXPECT_EQ(a, b);
  DenseBitset c(65);
  EXPECT_FALSE(a == c);
}

TEST(Bitset, EmptyBitset) {
  DenseBitset bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_TRUE(bits.None());
  EXPECT_EQ(bits.FindNext(0), 0u);
}

// ----------------------------------------------------------------- table

TEST(Table, PrintAlignsColumns) {
  AsciiTable table({"name", "v"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha | 1  |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22 |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  AsciiTable table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowCountTracksRows) {
  AsciiTable table({"x"});
  EXPECT_EQ(table.row_count(), 0u);
  table.AddRow({"1"});
  table.AddRow({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0), "2.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace relser
