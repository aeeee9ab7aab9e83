// PAR — the multi-core execution substrate, measured:
//
//  1. Census speedup: the Figure 5 class census (workload/census.h) run
//     serially (pool = nullptr) and over thread pools of 1/2/4/8
//     workers. The counts must be bit-identical at every size — the
//     determinism contract — and the wall-clock ratio is the speedup.
//     The >= 3x-at-8-threads gate is enforced only when the machine
//     actually has >= 8 hardware threads (the JSON records
//     hardware_concurrency so downstream tooling can tell).
//  2. Parallel brute-force: IsRelativelyConsistentParallel vs the serial
//     IsRelativelyConsistent on random workloads — decision, witness
//     and stats must match exactly.
//  3. Admitter throughput: a single-shard ShardedAdmitter fed by
//     1/4/8/16 client threads (clients own disjoint transaction sets and
//     submit in program order, blocking on SubmitWithBackoff).
//     Client-observed decision latency p50/p99 and end-to-end ops/sec
//     are reported per client count, and the admitted log is replayed
//     through a fresh serial checker — every admitted operation must
//     re-admit, or the run fails.
//
// Emits BENCH_parallel.json (cwd + repo root + bench/trajectory/ when a
// tag is set) via WriteBenchJsonFile. `--smoke` shrinks every dimension
// for CI; `--tag=NAME` snapshots the trajectory file.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/brute.h"
#include "core/online.h"
#include "exec/backoff.h"
#include "exec/thread_pool.h"
#include "model/schedule.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/census.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct CensusRun {
  std::size_t threads = 0;  // 0 = serial reference (no pool)
  double seconds = 0.0;
  bool identical = true;
};

struct BruteRun {
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
};

struct AdmitterRun {
  std::size_t clients = 0;
  std::size_t ops = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t fast_path = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  bool replay_sound = true;
};

std::vector<CensusRun> MeasureCensus(const CensusParams& params,
                                     const std::vector<std::size_t>& sizes) {
  std::vector<CensusRun> runs;
  const auto serial_start = std::chrono::steady_clock::now();
  const std::vector<CensusCounts> reference = RunClassCensus(params, nullptr);
  CensusRun serial;
  serial.seconds = SecondsSince(serial_start);
  runs.push_back(serial);
  for (const std::size_t threads : sizes) {
    ThreadPool pool(threads);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<CensusCounts> rows = RunClassCensus(params, &pool);
    CensusRun run;
    run.threads = threads;
    run.seconds = SecondsSince(start);
    run.identical = rows == reference;
    runs.push_back(run);
  }
  return runs;
}

BruteRun MeasureBrute(std::size_t cases, ThreadPool* pool) {
  BruteRun run;
  run.cases = cases;
  const Rng base(0xB007);
  for (std::size_t c = 0; c < cases; ++c) {
    Rng rng = base.Split(c);
    WorkloadParams wp;
    wp.txn_count = 4 + rng.UniformIndex(2);
    wp.min_ops_per_txn = 3;
    wp.max_ops_per_txn = 5;
    wp.object_count = 3;
    wp.read_ratio = 0.4;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const Schedule schedule = RandomSchedule(txns, &rng);

    const auto serial_start = std::chrono::steady_clock::now();
    const BruteForceResult serial =
        IsRelativelyConsistent(txns, schedule, spec);
    run.serial_seconds += SecondsSince(serial_start);

    const auto parallel_start = std::chrono::steady_clock::now();
    const BruteForceResult parallel =
        IsRelativelyConsistentParallel(txns, schedule, spec, pool);
    run.parallel_seconds += SecondsSince(parallel_start);

    // With no budget the two procedures explore the same tree, so the
    // decision and the witness must agree exactly.
    const bool same_decision = serial.decided == parallel.decided;
    const bool same_witness =
        serial.witness.has_value() == parallel.witness.has_value() &&
        (!serial.witness.has_value() ||
         serial.witness->ops() == parallel.witness->ops());
    if (!same_decision || !same_witness) ++run.mismatches;
  }
  return run;
}

AdmitterRun MeasureAdmitter(const TransactionSet& txns,
                            const AtomicitySpec& spec, std::size_t clients) {
  AdmitterRun run;
  run.clients = clients;

  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 1, ShardStrategy::kRange));

  std::vector<std::vector<std::uint64_t>> latencies(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::vector<std::uint64_t>& lat = latencies[c];
      Backoff backoff(0xBE9C0000ULL + c);
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + clients)) {
        bool live = true;
        for (std::uint32_t i = 0; live && i < txns.txn(t).size(); ++i) {
          const auto op_start = std::chrono::steady_clock::now();
          live = admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok();
          lat.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - op_start)
                  .count()));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  admitter.Stop();
  run.seconds = SecondsSince(start);

  run.accepted = admitter.accepted();
  run.rejected = admitter.rejected();
  run.fast_path = admitter.shard_stats(0).fast_path;
  run.ops = run.accepted + run.rejected;
  run.ops_per_sec = run.seconds > 0 ? static_cast<double>(run.ops) / run.seconds
                                    : 0.0;

  std::vector<std::uint64_t> all;
  for (const auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  if (!all.empty()) {
    const auto nth = [&](double q) {
      const std::size_t k = static_cast<std::size_t>(
          q * static_cast<double>(all.size() - 1));
      std::nth_element(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(k),
                       all.end());
      return all[k];
    };
    run.p50_ns = nth(0.50);
    run.p99_ns = nth(0.99);
  }

  // Soundness replay: everything the admitter accepted must re-admit
  // through a fresh serial checker in the same order.
  const std::vector<Operation> admitted = admitter.AdmittedLog();
  OnlineRsrChecker replay(txns, spec);
  for (const Operation& op : admitted) {
    if (!replay.TryAppend(op)) {
      run.replay_sound = false;
      break;
    }
  }
  if (admitted.size() != run.accepted) run.replay_sound = false;
  return run;
}

}  // namespace
}  // namespace relser

int main(int argc, char** argv) {
  using namespace relser;
  bool smoke = false;
  std::string tag;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--tag=", 6) == 0) tag = argv[i] + 6;
  }
  const std::size_t hw = ThreadPool::HardwareConcurrency();
  std::cout << "== PAR: parallel analysis + concurrent admission ==\n"
            << "hardware_concurrency: " << hw << (smoke ? " (smoke)" : "")
            << "\n\n";

  // -- 1. Census speedup -----------------------------------------------
  CensusParams census_params;
  if (smoke) {
    census_params.workloads_per_family = 6;
    census_params.schedules_per_workload = 6;
  } else {
    census_params.workloads_per_family = 80;
    census_params.schedules_per_workload = 40;
  }
  const std::vector<std::size_t> pool_sizes = {1, 2, 4, 8};
  const std::vector<CensusRun> census = MeasureCensus(census_params,
                                                      pool_sizes);
  const double serial_seconds = census.front().seconds;
  bool census_identical = true;
  double speedup_at_8 = 0.0;
  AsciiTable census_table({"threads", "seconds", "speedup", "bit-identical"});
  for (const CensusRun& run : census) {
    census_identical = census_identical && run.identical;
    const double speedup =
        run.seconds > 0 ? serial_seconds / run.seconds : 0.0;
    if (run.threads == 8) speedup_at_8 = speedup;
    census_table.AddRow({run.threads == 0 ? "serial" : std::to_string(
                                                           run.threads),
                         std::to_string(run.seconds),
                         run.threads == 0 ? "1.0" : std::to_string(speedup),
                         run.identical ? "yes" : "NO"});
  }
  census_table.Print(std::cout);
  // The speedup gate needs the cores to exist; determinism never does.
  const bool speedup_gate = hw < 8 || speedup_at_8 >= 3.0;
  std::cout << "census counts bit-identical across pool sizes: "
            << (census_identical ? "yes" : "NO") << "\n"
            << "census speedup at 8 threads: " << speedup_at_8
            << (hw < 8 ? " (gate waived: fewer than 8 hardware threads)"
                       : " (gate: >= 3.0)")
            << "\n\n";

  // -- 2. Parallel brute-force equivalence -----------------------------
  ThreadPool brute_pool(hw);
  const BruteRun brute = MeasureBrute(smoke ? 12 : 80, &brute_pool);
  std::cout << "brute-force parallel vs serial: " << brute.cases << " cases, "
            << brute.mismatches << " mismatches (serial "
            << brute.serial_seconds << "s, parallel " << brute.parallel_seconds
            << "s)\n\n";

  // -- 3. Concurrent admission throughput ------------------------------
  Rng rng(0xAD417);
  WorkloadParams wp;
  wp.txn_count = smoke ? 48 : 192;
  wp.min_ops_per_txn = 4;
  wp.max_ops_per_txn = 10;
  wp.object_count = smoke ? 256 : 1024;
  wp.read_ratio = 0.6;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.4, &rng);

  const std::vector<std::size_t> client_counts = {1, 4, 8, 16};
  std::vector<AdmitterRun> admitter_runs;
  bool replay_sound = true;
  AsciiTable admit_table({"clients", "ops", "accepted", "fast-path",
                          "ops/sec", "p50_us", "p99_us", "replay"});
  for (const std::size_t clients : client_counts) {
    const AdmitterRun run = MeasureAdmitter(txns, spec, clients);
    replay_sound = replay_sound && run.replay_sound;
    admit_table.AddRow(
        {std::to_string(run.clients), std::to_string(run.ops),
         std::to_string(run.accepted), std::to_string(run.fast_path),
         std::to_string(static_cast<std::uint64_t>(run.ops_per_sec)),
         std::to_string(static_cast<double>(run.p50_ns) / 1000.0),
         std::to_string(static_cast<double>(run.p99_ns) / 1000.0),
         run.replay_sound ? "sound" : "UNSOUND"});
    admitter_runs.push_back(run);
  }
  admit_table.Print(std::cout);

  // -- JSON artifact ---------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("parallel");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("hardware_concurrency");
  json.Uint(hw);
  json.Key("census");
  json.BeginObject();
  json.Key("workloads_per_family");
  json.Uint(census_params.workloads_per_family);
  json.Key("schedules_per_workload");
  json.Uint(census_params.schedules_per_workload);
  json.Key("bit_identical");
  json.Bool(census_identical);
  json.Key("speedup_at_8");
  json.Double(speedup_at_8);
  json.Key("runs");
  json.BeginArray();
  for (const CensusRun& run : census) {
    json.BeginObject();
    json.Key("threads");
    json.Uint(run.threads);  // 0 = serial reference
    json.Key("seconds");
    json.Double(run.seconds);
    json.Key("identical");
    json.Bool(run.identical);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("brute");
  json.BeginObject();
  json.Key("cases");
  json.Uint(brute.cases);
  json.Key("mismatches");
  json.Uint(brute.mismatches);
  json.Key("serial_seconds");
  json.Double(brute.serial_seconds);
  json.Key("parallel_seconds");
  json.Double(brute.parallel_seconds);
  json.EndObject();
  json.Key("admitter");
  json.BeginArray();
  for (const AdmitterRun& run : admitter_runs) {
    json.BeginObject();
    json.Key("clients");
    json.Uint(run.clients);
    json.Key("ops");
    json.Uint(run.ops);
    json.Key("accepted");
    json.Uint(run.accepted);
    json.Key("rejected");
    json.Uint(run.rejected);
    json.Key("fast_path_accepts");
    json.Uint(run.fast_path);
    json.Key("seconds");
    json.Double(run.seconds);
    json.Key("ops_per_sec");
    json.Double(run.ops_per_sec);
    json.Key("p50_ns");
    json.Uint(run.p50_ns);
    json.Key("p99_ns");
    json.Uint(run.p99_ns);
    json.Key("replay_sound");
    json.Bool(run.replay_sound);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteBenchJsonFile("BENCH_parallel.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_parallel.json\n";
    return 1;
  }

  const bool ok = census_identical && brute.mismatches == 0 && replay_sound &&
                  speedup_gate;
  std::cout << "\npaper-vs-measured: " << (ok ? "ALL MATCH" : "FAILED")
            << "\n";
  return ok ? 0 : 1;
}
