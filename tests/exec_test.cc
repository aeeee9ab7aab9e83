// Tests for the execution substrate (src/exec/): thread-pool lifecycle
// and churn, ParallelFor coverage, and the hard determinism contract of
// the parallel analysis sweeps (census and brute-force results
// bit-identical to serial for every pool size).
//
// gtest assertions are not thread-safe, so worker threads only fill
// pre-sized slots or touch atomics; the main thread does the asserting.
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute.h"
#include "exec/thread_pool.h"
#include "model/schedule.h"
#include "spec/builders.h"
#include "util/rng.h"
#include "workload/census.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ChurnConstructDestroy) {
  // Repeatedly build and tear down pools with work in flight; shutdown
  // must drain every submitted task exactly once.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(1 + static_cast<std::size_t>(round % 4));
      for (int i = 0; i < 50; ++i) {
        pool.Submit(
            [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
    }  // destructor joins
    EXPECT_EQ(counter.load(), 50) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  int ran = 0;
  ParallelFor(&pool, 0, 10, 1, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_GT(ran, 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  ParallelFor(&pool, 0, kN, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolAndEmptyRange) {
  std::size_t sum = 0;
  ParallelFor(nullptr, 5, 10, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 5u + 6 + 7 + 8 + 9);
  bool ran = false;
  ParallelFor(nullptr, 3, 3, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(DeterminismTest, CensusBitIdenticalAcrossPoolSizes) {
  CensusParams params;
  params.workloads_per_family = 6;
  params.schedules_per_workload = 6;
  const std::vector<CensusCounts> reference = RunClassCensus(params, nullptr);
  ASSERT_EQ(reference.size(), params.families.size());
  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    const std::vector<CensusCounts> rows = RunClassCensus(params, &pool);
    EXPECT_TRUE(rows == reference) << "pool size " << threads;
  }
}

TEST(DeterminismTest, ParallelBruteMatchesSerial) {
  const Rng base(0x5EED);
  ThreadPool pool(3);
  for (std::size_t c = 0; c < 25; ++c) {
    Rng rng = base.Split(c);
    WorkloadParams wp;
    wp.txn_count = 3 + rng.UniformIndex(2);
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 4;
    wp.object_count = 3;
    wp.read_ratio = 0.4;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);

    const BruteForceResult serial =
        IsRelativelyConsistent(txns, schedule, spec);
    const BruteForceResult inline_run =
        IsRelativelyConsistentParallel(txns, schedule, spec, nullptr);
    const BruteForceResult pooled =
        IsRelativelyConsistentParallel(txns, schedule, spec, &pool);
    // The parallel driver must agree with the serial oracle on the
    // decision and produce an equally valid witness...
    ASSERT_EQ(serial.decided, pooled.decided) << "case " << c;
    ASSERT_EQ(serial.witness.has_value(), pooled.witness.has_value())
        << "case " << c;
    // ...and be bit-identical to itself at every pool size — decision,
    // witness AND search stats (branch decomposition counts each
    // branch's root separately, so stats differ from the single-tree
    // serial search; determinism is across pool sizes).
    ASSERT_EQ(inline_run.decided, pooled.decided) << "case " << c;
    ASSERT_EQ(inline_run.witness.has_value(), pooled.witness.has_value())
        << "case " << c;
    if (inline_run.witness.has_value()) {
      EXPECT_EQ(inline_run.witness->ops(), pooled.witness->ops())
          << "case " << c;
    }
    EXPECT_EQ(inline_run.stats.states_visited, pooled.stats.states_visited)
        << "case " << c;
  }
}

}  // namespace
}  // namespace relser
