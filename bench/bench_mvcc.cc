// MVCC — the snapshot-read fast path's win and its soundness gates.
//
// Sweeps the read-only transaction ratio (workload/generator.h's
// read_only_txn_ratio knob) and, per cell, runs the same workload twice
// through a single-shard ShardedAdmitter (shard/sharded_admitter.h):
// snapshot_reads ON vs OFF, with a fixed client fleet walking
// transactions in program order. The headline metric is committed
// READ-ONLY transaction throughput: with the fast path on, settled
// readers commit client-side against the committed watermark — zero RSG
// arcs, zero admission-core traffic — so read throughput scales with
// the fleet instead of serializing through a shard core. One
// four-shard cell shows the same fast path composed with partitioned
// admission.
//
// Hard gates, each failing the run with a non-zero exit:
//   1. Soundness, EVERY cell, ON and OFF: the merged committed history
//      (CommittedLog — snapshot blocks spliced at their watermark /
//      admission stamp) must replay relatively serializably through a
//      fresh OnlineRsrChecker, and every committed transaction must
//      appear complete in it.
//   2. Bit-identity at ratio 0: with no read-only transactions the fast
//      path must be invisible — a deterministic lock-step feed must
//      produce decision-for-decision identical outcomes and identical
//      committed histories, ON vs OFF, over four shards.
//   3. Zero arcs at ratio 1: an all-readers workload must be admitted
//      entirely by the fast path (snapshot_admits == txn_count) with
//      the wrapped checker receiving zero arcs.
//   4. Speedup (full mode only): at ratio 0.95 the ON run must commit
//      read-only transactions >= 3x faster than the OFF run. Smoke mode
//      reports the ratio but does not enforce it (CI machines jitter).
//
// Emits BENCH_mvcc.json (cwd + repo root + bench/trajectory/ when a tag
// is set) via WriteBenchJsonFile. `--smoke` shrinks the grid for CI;
// `--tag=NAME` snapshots the trajectory file.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/online.h"
#include "exec/backoff.h"
#include "model/op_indexer.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/shard_gen.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

std::string Fixed2(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t ReadOnlyTxnCount(const TransactionSet& txns) {
  std::size_t count = 0;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    bool read_only = true;
    for (const Operation& op : txns.txn(t).ops()) {
      if (op.is_write()) read_only = false;
    }
    if (read_only) ++count;
  }
  return count;
}

struct MvccRun {
  std::size_t shards = 0;
  double ratio = 0.0;
  bool snapshot_on = false;
  std::size_t txns = 0;
  std::size_t read_only_txns = 0;
  std::size_t committed = 0;
  std::size_t committed_read_txns = 0;
  std::size_t committed_ops = 0;
  std::uint64_t snapshot_admits = 0;
  std::uint64_t snapshot_escalations = 0;
  std::uint64_t checker_arcs = 0;
  double seconds = 0.0;
  double read_txns_per_sec = 0.0;
  double ops_per_sec = 0.0;
  bool replay_sound = true;
  bool committed_complete = true;
};

/// Replays `committed_log` through a fresh full checker and verifies
/// that committed transactions appear complete, nothing else appears.
void GateReplay(const TransactionSet& txns, const AtomicitySpec& spec,
                const std::vector<Operation>& committed_log,
                const std::vector<std::uint8_t>& committed, MvccRun* run) {
  OnlineRsrChecker replay(txns, spec);
  std::vector<std::uint32_t> ops_of(txns.txn_count(), 0);
  for (const Operation& op : committed_log) {
    if (!replay.TryAppend(op)) {
      run->replay_sound = false;
      break;
    }
    ++ops_of[op.txn];
  }
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (committed[t] != 0) {
      if (ops_of[t] != txns.txn(t).size()) run->committed_complete = false;
    } else if (ops_of[t] != 0) {
      run->committed_complete = false;
    }
  }
}

/// One admitter lifetime over `txns`, range-partitioned into
/// `shard_count` shards: `clients` threads walk transactions in program
/// order through SubmitWithBackoff.
MvccRun RunCell(const TransactionSet& txns, const AtomicitySpec& spec,
                std::size_t shard_count, double ratio, bool snapshot_on,
                std::size_t clients, std::uint64_t seed) {
  MvccRun run;
  run.shards = shard_count;
  run.ratio = ratio;
  run.snapshot_on = snapshot_on;
  run.txns = txns.txn_count();
  run.read_only_txns = ReadOnlyTxnCount(txns);

  ShardedAdmitterOptions options;
  options.snapshot_reads = snapshot_on;
  ShardedAdmitter admitter(
      txns, spec,
      ShardRouter(txns.object_count(), shard_count, ShardStrategy::kRange),
      options);
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
            break;
          }
        }
        backoff.Reset();
      }
    });
  }
  for (std::thread& client : fleet) client.join();
  admitter.Stop();
  run.seconds = SecondsSince(start);

  run.snapshot_admits = admitter.snapshot_admits();
  run.snapshot_escalations = admitter.snapshot_escalations();
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    run.checker_arcs += admitter.checker(shard).arcs_submitted();
  }

  std::vector<std::uint8_t> committed(txns.txn_count(), 0);
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (!admitter.TxnCommitted(t)) continue;
    committed[t] = 1;
    ++run.committed;
    bool read_only = true;
    for (const Operation& op : txns.txn(t).ops()) {
      if (op.is_write()) read_only = false;
    }
    if (read_only) ++run.committed_read_txns;
  }
  const std::vector<Operation> log = admitter.CommittedLog();
  run.committed_ops = log.size();
  run.ops_per_sec =
      run.seconds > 0 ? static_cast<double>(run.committed_ops) / run.seconds
                      : 0.0;
  run.read_txns_per_sec =
      run.seconds > 0
          ? static_cast<double>(run.committed_read_txns) / run.seconds
          : 0.0;
  GateReplay(txns, spec, log, committed, &run);
  return run;
}

/// Hard gate 2: with read_only_txn_ratio = 0 (every transaction has a
/// writer) the fast path must be bit-invisible. Lock-step deterministic
/// round-robin feeds, ON vs OFF, over four range shards.
bool RatioZeroIdentical(std::size_t rounds, std::size_t txn_count,
                        std::uint64_t seed) {
  const Rng base(seed);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng = base.Split(round * 2 + 1);
    ShardedWorkloadParams wp;
    wp.txn_count = txn_count;
    wp.shard_count = 4;
    wp.objects_per_shard = 4;  // dense: plenty of real conflicts
    wp.zipf_theta = 0.9;
    wp.read_only_txn_ratio = 0.0;
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const ShardRouter router(txns.object_count(), 4, ShardStrategy::kRange);
    ShardedAdmitterOptions on_opts;
    on_opts.snapshot_reads = true;
    ShardedAdmitter on(txns, spec, router, on_opts);
    ShardedAdmitter off(txns, spec, router);

    std::vector<std::uint32_t> next(txns.txn_count(), 0);
    std::vector<std::uint8_t> dead(txns.txn_count(), 0);
    bool progress = true;
    while (progress) {
      progress = false;
      for (TxnId t = 0; t < txns.txn_count(); ++t) {
        if (dead[t] != 0 || next[t] >= txns.txn(t).size()) continue;
        const Operation& op = txns.txn(t).op(next[t]);
        const AdmitResult a = on.SubmitAndWait(op);
        const AdmitResult b = off.SubmitAndWait(op);
        if (a.outcome != b.outcome) {
          std::cerr << "identity gate: round " << round << " T" << t
                    << " op " << next[t] << ": snapshot-on "
                    << AdmitOutcomeName(a.outcome) << ", snapshot-off "
                    << AdmitOutcomeName(b.outcome) << "\n";
          return false;
        }
        ++next[t];
        if (!a.ok()) dead[t] = 1;
        progress = true;
      }
    }
    on.Stop();
    off.Stop();
    const std::vector<Operation> log_on = on.CommittedLog();
    const std::vector<Operation> log_off = off.CommittedLog();
    const OpIndexer indexer(txns);
    bool same = log_on.size() == log_off.size();
    for (std::size_t i = 0; same && i < log_on.size(); ++i) {
      same = indexer.GlobalId(log_on[i]) == indexer.GlobalId(log_off[i]);
    }
    if (!same) {
      std::cerr << "identity gate: round " << round
                << ": committed logs diverge (" << log_on.size() << " vs "
                << log_off.size() << " ops)\n";
      return false;
    }
  }
  return true;
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
  const std::size_t txn_count = smoke ? 512 : 4096;
  const std::size_t object_count = smoke ? 1024 : 4096;
  const std::vector<double> ratios =
      smoke ? std::vector<double>{0.0, 0.95, 1.0}
            : std::vector<double>{0.0, 0.9, 0.95, 0.99, 1.0};
  std::cout << "== MVCC: snapshot-read fast path, read-only ratio sweep =="
            << (smoke ? " (smoke)" : "") << "\n\n";

  std::vector<MvccRun> runs;
  bool sound = true;
  bool zero_arcs_at_one = true;
  double speedup_at_095 = 0.0;
  AsciiTable table({"shards", "ratio", "snap", "committed", "read-txn/s",
                    "ops/s", "snap-admits", "escal", "arcs", "replay"});
  std::uint64_t cell = 0;
  const auto record = [&](const MvccRun& run) {
    const bool run_sound = run.replay_sound && run.committed_complete;
    sound = sound && run_sound;
    table.AddRow({std::to_string(run.shards), Fixed2(run.ratio), run.snapshot_on ? "on" : "off",
                  std::to_string(run.committed) + "/" + std::to_string(run.txns),
                  std::to_string(static_cast<std::uint64_t>(run.read_txns_per_sec)),
                  std::to_string(static_cast<std::uint64_t>(run.ops_per_sec)),
                  std::to_string(run.snapshot_admits),
                  std::to_string(run.snapshot_escalations),
                  std::to_string(run.checker_arcs),
                  run_sound ? "sound" : "UNSOUND"});
    runs.push_back(run);
  };

  for (const double ratio : ratios) {
    const std::uint64_t seed = 0x36CC0000ULL + 977 * (++cell);
    Rng rng(seed);
    WorkloadParams wp;
    wp.txn_count = txn_count;
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 5;
    wp.object_count = object_count;
    wp.read_ratio = 0.6;
    wp.read_only_txn_ratio = ratio;
    const TransactionSet txns = GenerateTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const MvccRun off = RunCell(txns, spec, 1, ratio, /*snapshot_on=*/false,
                                clients, seed);
    const MvccRun on = RunCell(txns, spec, 1, ratio, /*snapshot_on=*/true,
                               clients, seed);
    record(off);
    record(on);
    if (ratio == 0.95 && off.read_txns_per_sec > 0) {
      speedup_at_095 = on.read_txns_per_sec / off.read_txns_per_sec;
    }
    if (ratio == 1.0) {
      zero_arcs_at_one = zero_arcs_at_one &&
                         on.snapshot_admits == on.txns &&
                         on.checker_arcs == 0;
    }
  }
  // One sharded cell at the read-heavy ratio: the fast path composed
  // with partitioned admission.
  {
    constexpr std::uint64_t kSeed = 0x36CC5A4DULL;
    Rng rng(kSeed);
    ShardedWorkloadParams wp;
    wp.txn_count = txn_count;
    wp.min_ops_per_txn = 2;
    wp.max_ops_per_txn = 5;
    wp.shard_count = 4;
    wp.objects_per_shard = object_count / 4;
    wp.cross_shard_ratio = 0.1;
    wp.read_ratio = 0.6;
    wp.read_only_txn_ratio = 0.95;
    const TransactionSet txns = GenerateShardedTransactions(wp, &rng);
    const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);
    const MvccRun off = RunCell(txns, spec, 4, 0.95, /*snapshot_on=*/false,
                                clients, kSeed);
    const MvccRun on = RunCell(txns, spec, 4, 0.95, /*snapshot_on=*/true,
                               clients, kSeed);
    record(off);
    record(on);
  }
  table.Print(std::cout);
  std::cout << "\ncommitted history relatively serializable at every cell: "
            << (sound ? "yes" : "NO") << "\n";

  const bool identical = RatioZeroIdentical(smoke ? 6 : 16, smoke ? 12 : 24,
                                            0x1D36CCULL);
  std::cout << "ratio-0 decisions identical with the fast path on: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "ratio-1 admitted arc-free: "
            << (zero_arcs_at_one ? "yes" : "NO") << "\n";
  std::cout << "read-txn throughput speedup at ratio 0.95: "
            << Fixed2(speedup_at_095) << "x"
            << (smoke ? " (reported, not enforced in smoke)" : " (gate: >= 3)")
            << "\n";

  // -- JSON artifact ---------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("mvcc");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("clients");
  json.Uint(clients);
  json.Key("txn_count");
  json.Uint(txn_count);
  json.Key("object_count");
  json.Uint(object_count);
  json.Key("sound");
  json.Bool(sound);
  json.Key("ratio_zero_identical");
  json.Bool(identical);
  json.Key("zero_arcs_at_ratio_one");
  json.Bool(zero_arcs_at_one);
  json.Key("read_speedup_at_095");
  json.Double(speedup_at_095);
  json.Key("speedup_enforced");
  json.Bool(!smoke);
  json.Key("runs");
  json.BeginArray();
  for (const MvccRun& run : runs) {
    json.BeginObject();
    json.Key("shards");
    json.Uint(run.shards);
    json.Key("read_only_txn_ratio");
    json.Double(run.ratio);
    json.Key("snapshot_reads");
    json.Bool(run.snapshot_on);
    json.Key("txns");
    json.Uint(run.txns);
    json.Key("read_only_txns");
    json.Uint(run.read_only_txns);
    json.Key("committed_txns");
    json.Uint(run.committed);
    json.Key("committed_read_txns");
    json.Uint(run.committed_read_txns);
    json.Key("committed_ops");
    json.Uint(run.committed_ops);
    json.Key("snapshot_admits");
    json.Uint(run.snapshot_admits);
    json.Key("snapshot_escalations");
    json.Uint(run.snapshot_escalations);
    json.Key("checker_arcs");
    json.Uint(run.checker_arcs);
    json.Key("seconds");
    json.Double(run.seconds);
    json.Key("read_txns_per_sec");
    json.Double(run.read_txns_per_sec);
    json.Key("ops_per_sec");
    json.Double(run.ops_per_sec);
    json.Key("replay_sound");
    json.Bool(run.replay_sound);
    json.Key("committed_complete");
    json.Bool(run.committed_complete);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteBenchJsonFile("BENCH_mvcc.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_mvcc.json\n";
    return 1;
  }

  const bool speedup_ok = smoke || speedup_at_095 >= 3.0;
  const bool pass = sound && identical && zero_arcs_at_one && speedup_ok;
  std::cout << "gates: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
