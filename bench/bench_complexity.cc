// CPLX — the complexity claims:
//   * recognizing *relatively consistent* schedules is NP-complete [KB92]:
//     the natural decision procedure (backtracking over the conflict-
//     equivalence class) blows up exponentially, and even the memoized
//     variant remains exponential (it trades time for exponential space);
//   * the paper's RSG test decides the *larger* class of relatively
//     serializable schedules in polynomial time (Theorem 1).
//
// Part 1 runs both procedures on the PaddedFigure4Instance family: the
// Figure 4 core (relatively serializable but NOT relatively consistent)
// padded with k conflict-free transactions, which multiply the conflict-
// equivalence class without changing the answer. Part 2 scales the RSG
// test alone to thousands of operations, timing each size as the median
// of 21 builds of one instance.
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "core/brute.h"
#include "core/rsg.h"
#include "graph/cycle.h"
#include "util/table.h"
#include "workload/adversarial.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

int main() {
  using namespace relser;
  std::cout << "== CPLX: exponential brute force vs polynomial RSG test =="
            << "\n\n";
  std::cout
      << "Part 1: deciding relative consistency on PaddedFigure4Instance(k)\n"
      << "(answer is always: NOT relatively consistent, but relatively\n"
      << " serializable — the RSG test accepts instantly)\n";

  AsciiTable part1({"free_txns", "ops", "plain_states", "plain_ms",
                    "memo_states", "memo_ms", "rsg_us", "rc", "rsr"});
  constexpr std::uint64_t kBudget = 30'000'000;
  for (std::size_t k = 0; k <= 10; ++k) {
    const HardInstance instance = PaddedFigure4Instance(k);

    auto start = std::chrono::steady_clock::now();
    const BruteForceResult plain = IsRelativelyConsistent(
        instance.txns, instance.schedule, instance.spec, kBudget,
        /*memoize=*/false);
    const double plain_ms = MicrosSince(start) / 1000.0;

    start = std::chrono::steady_clock::now();
    const BruteForceResult memo = IsRelativelyConsistent(
        instance.txns, instance.schedule, instance.spec, kBudget,
        /*memoize=*/true);
    const double memo_ms = MicrosSince(start) / 1000.0;

    start = std::chrono::steady_clock::now();
    const RelativeSerializationGraph rsg(instance.txns, instance.schedule,
                                         instance.spec);
    const bool rsr = !HasCycle(rsg.graph());
    const double rsg_us = MicrosSince(start);

    auto decided = [](const BruteForceResult& r) {
      return !r.decided.has_value() ? std::string(">budget")
                                    : std::string(*r.decided ? "yes" : "no");
    };
    part1.AddRow({std::to_string(k), std::to_string(instance.schedule.size()),
                  std::to_string(plain.stats.states_visited),
                  FormatDouble(plain_ms, 1),
                  std::to_string(memo.stats.states_visited),
                  FormatDouble(memo_ms, 1), FormatDouble(rsg_us, 1),
                  decided(plain) + "/" + decided(memo),
                  rsr ? "yes" : "no"});
  }
  part1.Print(std::cout);

  // One build of the densest RSG swings by tens of percent from run to
  // run, so each size reports the median of kRepeats builds.
  constexpr std::size_t kRepeats = 21;
  std::cout << "\nPart 2: RSG decision scaling (polynomial; rsg_us is the "
               "median of "
            << kRepeats << " builds)\n";
  Rng rng(987654321);
  AsciiTable part2({"ops", "arcs", "rsg_us"});
  for (const std::size_t txn_count : {8u, 16u, 32u, 64u, 128u, 256u}) {
    WorkloadParams wp;
    wp.txn_count = txn_count;
    wp.min_ops_per_txn = 8;
    wp.max_ops_per_txn = 8;
    wp.object_count = txn_count * 4;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomUniformObserverSpec(txns, 0.4, &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);
    std::vector<double> build_us;
    std::size_t arcs = 0;
    for (std::size_t repeat = 0; repeat < kRepeats; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      const RelativeSerializationGraph rsg(txns, schedule, spec);
      const bool acyclic = !HasCycle(rsg.graph());
      build_us.push_back(MicrosSince(start));
      (void)acyclic;
      arcs = rsg.arc_count();
    }
    part2.AddRow({std::to_string(txn_count * 8), std::to_string(arcs),
                  FormatDouble(Percentile(build_us, 50), 1)});
  }
  part2.Print(std::cout);
  std::cout << "\nExpected shape: plain_states grows ~8x per free txn and "
               "memo_states ~2x,\nwhile rsg_us stays flat on the same "
               "instances (and polynomial in ops overall).\n";
  return 0;
}
