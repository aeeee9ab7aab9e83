// FAULTS — the robustness layer under deterministic fault injection.
//
// A fixed fleet of client threads drives a single-shard ShardedAdmitter
// through a grid of fault rates. At each rate a seeded FaultPlan (exec/faultplan.h)
// decides, purely as a function of (seed, txn, op), which submissions
// stall, which are dropped on the floor (the client walks away and the
// transaction is aborted), which transactions abort themselves
// mid-stream, and how often the admission core pauses. On top of the
// plan, every third transaction submits under a tight deadline
// (SubmitAndWait timeouts) and the inbox bound is kept small so
// backpressure retries fire.
//
// The hard gate, checked at EVERY fault rate: the serial replay of the
// committed prefix must be relatively serializable. CommittedLog() —
// the surviving feed restricted to committed transactions — is replayed
// through a fresh OnlineRsrChecker and every operation must re-admit;
// additionally every committed transaction must appear complete (all of
// its operations present). Aborts, cascades and timeouts may discard
// work, but they must never corrupt what committed.
//
// Emits BENCH_faults.json (cwd, plus bench/trajectory/ when a tag is
// set) via WriteBenchJsonFile. `--smoke` shrinks the grid and the
// workload for CI; `--tag=NAME` snapshots the trajectory file.
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/backoff.h"
#include "exec/faultplan.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/spec_gen.h"

namespace relser {
namespace {

struct FaultRun {
  double fault_rate = 0.0;
  std::size_t txns = 0;
  std::size_t committed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t cascade_aborts = 0;
  // Operations the checker re-admitted across all exact aborts: each
  // victim's dependents (the later operations that descend from it
  // through conflicts or program order), not the whole feed since the
  // victim started. The table's replayed/abort column divides this by
  // the aborts.
  std::uint64_t replayed_ops = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t drops = 0;       // client-side: submissions never made
  std::uint64_t stall_us = 0;    // client-side: injected stall budget
  std::size_t unrecoverable_reads = 0;
  std::size_t committed_ops = 0;
  double seconds = 0.0;
  double committed_ops_per_sec = 0.0;
  bool replay_sound = true;
  bool committed_complete = true;
};

/// One admitter lifetime at one fault rate: the client fleet walks its
/// transactions in program order, consulting the FaultPlan before every
/// submission. Returns the measured run including the soundness gate.
FaultRun RunAtRate(const TransactionSet& txns, const AtomicitySpec& spec,
                   double rate, std::size_t clients, std::uint64_t seed) {
  FaultRun run;
  run.fault_rate = rate;
  run.txns = txns.txn_count();

  FaultPlanParams params;
  params.stall_prob = rate;
  params.drop_prob = rate / 2;
  params.abort_prob = rate;
  params.core_pause_prob = rate / 2;
  params.max_stall_us = 100;
  params.max_core_pause_us = 20;
  const FaultPlan plan(seed, params);

  Tracer tracer(TraceLevel::kCounters);
  ShardedAdmitterOptions options;
  // With `clients` blocking submitters the inbox never holds more than
  // one operation per client, so its bound sits below that to make
  // backpressure retries actually fire.
  options.queue_capacity = clients / 2;
  options.tracer = &tracer;
  options.faults = &plan;
  ShardedAdmitter admitter(
      txns, spec, ShardRouter(txns.object_count(), 1, ShardStrategy::kRange),
      options);

  std::vector<std::uint64_t> drops(clients, 0);
  std::vector<std::uint64_t> stalls(clients, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      Backoff backoff(seed ^ (0xFA010000ULL + c));
      for (TxnId t = static_cast<TxnId>(c); t < txns.txn_count();
           t = static_cast<TxnId>(t + clients)) {
        const auto size = static_cast<std::uint32_t>(txns.txn(t).size());
        const std::optional<std::uint32_t> abort_after =
            plan.AbortAfter(t, size);
        // Every third transaction runs under a deadline.
        const std::chrono::microseconds deadline =
            t % 3 == 0 ? std::chrono::microseconds(2000)
                       : std::chrono::microseconds::zero();
        for (std::uint32_t i = 0; i < size; ++i) {
          const OpFault fault = plan.ForOp(t, i);
          if (fault.drop) {
            // The submission is lost and the client gives up on the
            // transaction; the abort reclaims whatever prefix ran.
            ++drops[c];
            admitter.AbortTxn(t);
            break;
          }
          if (fault.stall_us > 0) {
            stalls[c] += fault.stall_us;
            std::this_thread::sleep_for(
                std::chrono::microseconds(fault.stall_us));
          }
          if (!admitter.SubmitWithBackoff(txns.txn(t).op(i), backoff,
                                          deadline)
                   .ok()) {
            break;  // rejected, aborted or timed out
          }
          if (abort_after.has_value() && i + 1 == *abort_after) {
            admitter.AbortTxn(t);  // scripted mid-stream client abort
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

  for (std::size_t c = 0; c < clients; ++c) {
    run.drops += drops[c];
    run.stall_us += stalls[c];
  }
  const TraceCounters& counters = tracer.counters();
  run.aborts = counters.aborts;
  run.cascade_aborts = counters.cascade_aborts;
  run.replayed_ops = admitter.checker(0).replayed_ops();
  run.timeouts = counters.timeouts;
  run.retries = counters.retries;
  run.unrecoverable_reads = admitter.unrecoverable_reads();

  // -- Hard gate: the committed prefix replays relatively serializably.
  const std::vector<Operation> committed_log = admitter.CommittedLog();
  run.committed_ops = committed_log.size();
  run.committed_ops_per_sec =
      run.seconds > 0
          ? static_cast<double>(run.committed_ops) / run.seconds
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

  const std::size_t clients = 8;
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.02, 0.05, 0.1, 0.2, 0.4};
  std::cout << "== FAULTS: admission under deterministic fault injection =="
            << (smoke ? " (smoke)" : "") << "\n\n";

  Rng rng(0xFA5EED);
  WorkloadParams wp;
  wp.txn_count = smoke ? 48 : 192;
  wp.min_ops_per_txn = 3;
  wp.max_ops_per_txn = 8;
  wp.object_count = smoke ? 64 : 256;
  wp.read_ratio = 0.5;
  const TransactionSet txns = GenerateTransactions(wp, &rng);
  const AtomicitySpec spec = RandomSpec(txns, 0.5, &rng);

  std::vector<FaultRun> runs;
  bool sound = true;
  AsciiTable table({"rate", "committed", "aborts", "cascades",
                    "replayed/abort", "timeouts", "retries", "drops",
                    "committed-replay"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const FaultRun run =
        RunAtRate(txns, spec, rates[r], clients, 0xFA17ULL * (r + 1));
    const bool run_sound = run.replay_sound && run.committed_complete;
    sound = sound && run_sound;
    table.AddRow({std::to_string(run.fault_rate),
                  std::to_string(run.committed) + "/" +
                      std::to_string(run.txns),
                  std::to_string(run.aborts),
                  std::to_string(run.cascade_aborts),
                  FormatDouble(run.aborts == 0
                                   ? 0.0
                                   : static_cast<double>(run.replayed_ops) /
                                         static_cast<double>(run.aborts),
                               1),
                  std::to_string(run.timeouts),
                  std::to_string(run.retries), std::to_string(run.drops),
                  run_sound ? "sound" : "UNSOUND"});
    runs.push_back(run);
  }
  table.Print(std::cout);
  std::cout << "\ncommitted prefix relatively serializable at every rate: "
            << (sound ? "yes" : "NO") << "\n";

  // -- JSON artifact ---------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("faults");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("clients");
  json.Uint(clients);
  json.Key("txn_count");
  json.Uint(txns.txn_count());
  json.Key("sound");
  json.Bool(sound);
  json.Key("runs");
  json.BeginArray();
  for (const FaultRun& run : runs) {
    json.BeginObject();
    json.Key("fault_rate");
    json.Double(run.fault_rate);
    json.Key("committed_txns");
    json.Uint(run.committed);
    json.Key("committed_ops");
    json.Uint(run.committed_ops);
    json.Key("aborts");
    json.Uint(run.aborts);
    json.Key("cascade_aborts");
    json.Uint(run.cascade_aborts);
    json.Key("replayed_ops");
    json.Uint(run.replayed_ops);
    json.Key("timeouts");
    json.Uint(run.timeouts);
    json.Key("retries");
    json.Uint(run.retries);
    json.Key("client_drops");
    json.Uint(run.drops);
    json.Key("client_stall_us");
    json.Uint(run.stall_us);
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
  if (!WriteBenchJsonFile("BENCH_faults.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_faults.json\n";
    return 1;
  }

  std::cout << "soundness gate: " << (sound ? "PASS" : "FAIL") << "\n";
  return sound ? 0 : 1;
}
