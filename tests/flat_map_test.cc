// Tests for FlatMap64, the open-addressing map behind the Digraph edge
// index and the online checker's arc memos.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "util/flat_map.h"
#include "util/rng.h"

namespace relser {
namespace {

TEST(FlatMap64, InsertFindErase) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  auto [value, inserted] = map.Upsert(7);
  EXPECT_TRUE(inserted);
  *value = 42;
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  auto [again, second] = map.Upsert(7);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 42);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap64, KeyZeroIsOrdinary) {
  FlatMap64<int> map;
  *map.Upsert(0).first = 5;
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(*map.Find(0), 5);
}

TEST(FlatMap64, TombstoneSlotsAreReused) {
  FlatMap64<int> map;
  for (std::uint64_t k = 0; k < 8; ++k) *map.Upsert(k).first = 1;
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(map.Erase(k));
  // Heavy churn on a small table must not grow it unboundedly or lose
  // entries behind tombstones.
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t k = static_cast<std::uint64_t>(round) * 977;
    *map.Upsert(k).first = round;
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), round);
    EXPECT_TRUE(map.Erase(k));
  }
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap64, ReserveAvoidsRehashDuringFill) {
  FlatMap64<std::uint64_t> map;
  map.Reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) *map.Upsert(k * 31).first = k;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k * 31), nullptr);
    EXPECT_EQ(*map.Find(k * 31), k);
  }
}

TEST(FlatMap64, ForEachVisitsExactlyLiveEntries) {
  FlatMap64<int> map;
  for (std::uint64_t k = 0; k < 20; ++k) *map.Upsert(k).first = 1;
  for (std::uint64_t k = 0; k < 20; k += 2) map.Erase(k);
  std::size_t visited = 0;
  std::uint64_t key_sum = 0;
  map.ForEach([&](std::uint64_t key, int& value) {
    ++visited;
    key_sum += key;
    EXPECT_EQ(value, 1);
  });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(key_sum, 1u + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19);
}

TEST(FlatMap64, ChurnOverABoundedLiveSetKeepsItsCapacity) {
  // Fresh keys inserted and erased again, never more than 64 live: the
  // tombstones they leave are purged in place, not by doubling.
  FlatMap64<std::uint32_t> map;
  for (std::uint64_t key = 0; key < 100000; ++key) {
    *map.Upsert(key).first = 1;
    if (key >= 64) {
      ASSERT_TRUE(map.Erase(key - 64));
    }
  }
  EXPECT_EQ(map.size(), 64u);
  EXPECT_LE(map.capacity(), 256u);
  // Erase(key, &value) hands back the removed value.
  std::uint32_t value = 0;
  *map.Upsert(7ULL << 40).first = 42;
  EXPECT_TRUE(map.Erase(7ULL << 40, &value));
  EXPECT_EQ(value, 42u);
  EXPECT_FALSE(map.Erase(7ULL << 40, &value));
}

TEST(FlatMap64, RandomizedDifferentialAgainstStdMap) {
  Rng rng(123456);
  FlatMap64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.UniformIndex(512);
    const double roll = rng.UniformDouble();
    if (roll < 0.5) {
      const auto value = static_cast<std::uint32_t>(step);
      *map.Upsert(key).first = value;
      reference[key] = value;
    } else if (roll < 0.8) {
      EXPECT_EQ(map.Erase(key), reference.erase(key) > 0);
    } else {
      const auto* found = map.Find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end());
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
}

}  // namespace
}  // namespace relser
