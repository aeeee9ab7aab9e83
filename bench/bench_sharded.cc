// SHARDED — partitioned admission throughput and the cross-shard tax.
//
// Sweeps the ShardedAdmitter over shard count x cross-shard ratio x
// Zipf skew on range-partitioned workloads (workload/shard_gen.h). A
// fixed client fleet walks transactions in program order through
// SubmitWithBackoff; each cell reports committed throughput plus the
// coordinator's traffic (arcs mirrored, transaction-level rejections,
// taint escalations), which is the price of cross-shard glue. At
// cross_shard_ratio = 0 the coordinator is silent and per-shard
// admission is embarrassingly parallel; raising the ratio grows the
// mirrored-arc load and the conservative coordinator rejections.
//
// Hard gate, failing the run with a non-zero exit — soundness at EVERY
// cell: the merged committed history must replay relatively
// serializably through one full (unsharded) OnlineRsrChecker, and every
// committed transaction must appear complete in it. (That one shard
// decides exactly as the serial abort-and-cascade policy is gated by
// tests/shard_test.cc.)
//
// Emits BENCH_sharded.json (cwd, plus bench/trajectory/ when a tag is
// set) via WriteBenchJsonFile. `--smoke` shrinks the grid for
// CI; `--tag=NAME` snapshots the trajectory file.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/backoff.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::string Fixed2(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

struct ShardedRun {
  std::size_t shard_count = 0;
  double cross_shard_ratio = 0.0;
  double zipf_theta = 0.0;
  std::size_t txns = 0;
  std::size_t multi_shard_txns = 0;
  std::size_t committed = 0;
  std::size_t committed_ops = 0;
  std::uint64_t arcs_mirrored = 0;
  std::uint64_t coordinator_rejects = 0;
  std::uint64_t escalations = 0;
  std::uint64_t retries = 0;
  std::size_t unrecoverable_reads = 0;
  double seconds = 0.0;
  double committed_ops_per_sec = 0.0;
  bool replay_sound = true;
  bool committed_complete = true;
};

/// One admitter lifetime at one grid cell: `clients` threads walk the
/// transactions in program order, blocking per operation. Returns the
/// measured run including the soundness gate.
ShardedRun RunCell(std::size_t shard_count, double ratio, double theta,
                   std::size_t total_objects, std::size_t txn_count,
                   std::size_t clients, std::uint64_t seed) {
  ShardedRun run;
  run.shard_count = shard_count;
  run.cross_shard_ratio = ratio;
  run.zipf_theta = theta;

  Rng rng(seed);
  ShardedWorkloadParams wp;
  wp.txn_count = txn_count;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 8;
  wp.shard_count = shard_count;
  wp.objects_per_shard = total_objects / shard_count;
  wp.cross_shard_ratio = ratio;
  wp.zipf_theta = theta;
  const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
  run.txns = txns.txn_count();

  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), shard_count, ShardStrategy::kRange));
  run.multi_shard_txns = admitter.plan().spans().multi_shard_count();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      Backoff backoff(seed ^ (0x5A4D0000ULL + c));
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + clients)) {
        for (std::uint32_t i = 0; i < txns.txn(t).size(); ++i) {
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff).ok()) {
            break;  // rejected or cascade-aborted
          }
        }
        backoff.Reset();
      }
    });
  }
  for (std::thread& client : fleet) client.join();
  admitter.Stop();
  run.seconds = SecondsSince(start);

  run.arcs_mirrored = admitter.coordinator().arcs_mirrored();
  run.coordinator_rejects = admitter.coordinator().rejects();
  run.retries = admitter.retries();
  run.unrecoverable_reads = admitter.unrecoverable_reads();
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    run.escalations +=
        admitter.shard_stats(shard).escalations;
  }

  // -- Hard gate 1: the merged committed history replays relatively
  // serializably through one full checker over the ORIGINAL set.
  const std::vector<Operation> committed_log = admitter.CommittedLog();
  run.committed_ops = committed_log.size();
  run.committed_ops_per_sec =
      run.seconds > 0 ? static_cast<double>(run.committed_ops) / run.seconds
                      : 0.0;
  const ReplayVerdict verdict =
      ReplayCommittedLog(admitter, txns, spec, committed_log);
  run.committed = verdict.committed;
  run.replay_sound = verdict.sound;
  run.committed_complete = verdict.complete;
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

  const std::size_t clients = smoke ? 4 : 8;
  const std::size_t txn_count = smoke ? 64 : 384;
  const std::size_t total_objects = smoke ? 64 : 512;
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<double> ratios =
      smoke ? std::vector<double>{0.0, 0.2}
            : std::vector<double>{0.0, 0.05, 0.2, 0.5};
  const std::vector<double> thetas =
      smoke ? std::vector<double>{0.9} : std::vector<double>{0.0, 0.9};
  std::cout << "== SHARDED: partitioned admission, shard x cross-shard x "
               "skew sweep =="
            << (smoke ? " (smoke)" : "") << "\n\n";

  std::vector<ShardedRun> runs;
  bool sound = true;
  AsciiTable table({"shards", "xshard", "theta", "multi", "committed",
                    "ops/s", "arcs", "coord-rej", "escal", "replay"});
  std::uint64_t cell = 0;
  for (const double theta : thetas) {
    for (const double ratio : ratios) {
      for (const std::size_t shards : shard_counts) {
        const ShardedRun run =
            RunCell(shards, ratio, theta, total_objects, txn_count, clients,
                    0x5A4DBE5CULL * (++cell));
        const bool run_sound = run.replay_sound && run.committed_complete;
        sound = sound && run_sound;
        table.AddRow({std::to_string(run.shard_count),
                      Fixed2(run.cross_shard_ratio),
                      Fixed2(run.zipf_theta),
                      std::to_string(run.multi_shard_txns),
                      std::to_string(run.committed) + "/" +
                          std::to_string(run.txns),
                      std::to_string(
                          static_cast<std::uint64_t>(run.committed_ops_per_sec)),
                      std::to_string(run.arcs_mirrored),
                      std::to_string(run.coordinator_rejects),
                      std::to_string(run.escalations),
                      run_sound ? "sound" : "UNSOUND"});
        runs.push_back(run);
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\ncommitted history relatively serializable at every cell: "
            << (sound ? "yes" : "NO") << "\n";

  // -- JSON artifact ---------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("sharded");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("clients");
  json.Uint(clients);
  json.Key("txn_count");
  json.Uint(txn_count);
  json.Key("total_objects");
  json.Uint(total_objects);
  json.Key("sound");
  json.Bool(sound);
  json.Key("runs");
  json.BeginArray();
  for (const ShardedRun& run : runs) {
    json.BeginObject();
    json.Key("shard_count");
    json.Uint(run.shard_count);
    json.Key("cross_shard_ratio");
    json.Double(run.cross_shard_ratio);
    json.Key("zipf_theta");
    json.Double(run.zipf_theta);
    json.Key("txns");
    json.Uint(run.txns);
    json.Key("multi_shard_txns");
    json.Uint(run.multi_shard_txns);
    json.Key("committed_txns");
    json.Uint(run.committed);
    json.Key("committed_ops");
    json.Uint(run.committed_ops);
    json.Key("arcs_mirrored");
    json.Uint(run.arcs_mirrored);
    json.Key("coordinator_rejects");
    json.Uint(run.coordinator_rejects);
    json.Key("escalations");
    json.Uint(run.escalations);
    json.Key("retries");
    json.Uint(run.retries);
    json.Key("unrecoverable_reads");
    json.Uint(run.unrecoverable_reads);
    json.Key("seconds");
    json.Double(run.seconds);
    json.Key("committed_ops_per_sec");
    json.Double(run.committed_ops_per_sec);
    json.Key("replay_sound");
    json.Bool(run.replay_sound);
    json.Key("committed_complete");
    json.Bool(run.committed_complete);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteBenchJsonFile("BENCH_sharded.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_sharded.json\n";
    return 1;
  }

  std::cout << "gates: " << (sound ? "PASS" : "FAIL") << "\n";
  return sound ? 0 : 1;
}
