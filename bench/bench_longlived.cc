// CONC/long-lived — Section 5's motivating case: "for long lived
// transactions ... a long-lived transaction does not need to be atomic
// for its entire duration with respect to all other transactions", citing
// the altruistic-locking results of [SGMA87].
//
// One long audit-and-annotate transaction sweeps every object while short
// read-modify-write transactions arrive throughout its lifetime. The
// long transaction exposes a unit boundary after each per-object step.
// The key metric is the *short-transaction latency*: under strict 2PL a
// short transaction that touches an object the long transaction already
// locked stalls until the long transaction commits; under unit-2PL and
// RSGT it proceeds as soon as the long transaction's unit has passed.
// Expected shape: short-latency grows with the long transaction's length
// for the classical protocols and stays flat for the spec-aware ones.
// Emits BENCH_longlived.json (plus a bench/trajectory snapshot when a
// tag is set) via WriteBenchJsonFile. `--smoke` shrinks the grid for
// CI; `--tag=NAME` names the trajectory snapshot.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/backoff.h"
#include "sched/engine.h"
#include "sched/factory.h"
#include "sched/verify.h"
#include "shard/sharded_admitter.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

struct LongLivedWorkload {
  relser::TransactionSet txns;
  relser::AtomicitySpec spec;
  std::vector<std::size_t> start_tick;
  std::vector<std::size_t> think_time;
};

// One long transaction (read+write each of `long_steps` objects, thinking
// `long_think` ticks between steps) plus `short_count` short RMW
// transactions arriving uniformly over the long transaction's lifetime.
LongLivedWorkload MakeLongLived(std::size_t long_steps,
                                std::size_t short_count,
                                std::size_t long_think, relser::Rng* rng) {
  using namespace relser;
  LongLivedWorkload w;
  w.txns.AddObjects(long_steps);
  Transaction* long_txn = w.txns.AddTransaction();
  for (std::size_t k = 0; k < long_steps; ++k) {
    long_txn->Read(static_cast<ObjectId>(k));
    long_txn->Write(static_cast<ObjectId>(k));
  }
  const std::size_t long_duration = 2 * long_steps * (1 + long_think);
  w.start_tick.push_back(0);
  w.think_time.push_back(long_think);
  for (std::size_t s = 0; s < short_count; ++s) {
    // A transfer between two objects (ascending): the short transaction
    // may straddle two of the long transaction's units. Such executions
    // are often non-serializable (the long sees a forward cut through the
    // short) — SGT must abort one side, while RSGT admits them whenever
    // the cut respects the long transaction's unit boundaries.
    Transaction* txn = w.txns.AddTransaction();
    auto a = static_cast<ObjectId>(rng->UniformIndex(long_steps));
    auto b = static_cast<ObjectId>(rng->UniformIndex(long_steps));
    if (a == b) b = static_cast<ObjectId>((b + 1) % long_steps);
    if (a > b) std::swap(a, b);
    txn->Read(a);
    txn->Write(a);
    txn->Read(b);
    txn->Write(b);
    w.start_tick.push_back(rng->UniformIndex(long_duration));
    w.think_time.push_back(0);
  }
  AtomicitySpec spec(w.txns);
  // The long transaction's per-object read+write step is its atomic unit
  // relative to every short transaction.
  for (TxnId j = 1; j < w.txns.txn_count(); ++j) {
    for (std::uint32_t g = 1; g + 1 < 2 * long_steps; g += 2) {
      spec.SetBreakpoint(0, j, g);
    }
  }
  w.spec = std::move(spec);
  return w;
}

}  // namespace

namespace {

struct LongLivedRow {
  std::size_t long_steps = 0;
  std::string scheduler;
  double makespan_mean = 0;
  double short_lat_mean = 0;
  std::size_t short_lat_max = 0;
  double long_latency_mean = 0;
  std::size_t blocks_mean = 0;
  std::size_t aborts_mean = 0;
  bool guarantee = true;
};

// ---------------------------------------------------------------------
// Admission GC phase: the epoch/watermark manager under a LONG run.
//
// The simulation phase above shows WHY long-lived transactions want
// relaxed atomicity; this phase shows that the admission stack can now
// run them INDEFINITELY: a sharded admitter with epoch GC on processes
// ~10^7 operations (waves of one long audit transaction plus short
// RMW/read-only transactions, interleaved by one feeding client) while
// the live state — checker ancestor rows, F/B pairs, coordinator arcs,
// accept logs — stays flat, and each wave leaves little
// retained behind once its transactions finish. These are exit-coded
// gates; without the stable-prefix GC the checkers keep every admitted
// operation of a wave, and every later checkpoint and abort works over
// them. The operation latency p99 early and late in the run is reported,
// not gated.
// ---------------------------------------------------------------------

struct AdmissionWave {
  relser::TransactionSet txns;
  relser::AtomicitySpec spec;
};

// One long audit transaction (RMW sweep of the first `long_steps`
// objects, unit boundary after each per-object step) plus short
// transfers and read-only auditors over a larger object universe.
AdmissionWave MakeAdmissionWave(std::size_t wave_txns, std::size_t objects,
                                std::size_t long_steps, relser::Rng* rng) {
  using namespace relser;
  AdmissionWave w;
  w.txns.AddObjects(objects);
  Transaction* long_txn = w.txns.AddTransaction();
  for (std::size_t k = 0; k < long_steps; ++k) {
    long_txn->Read(static_cast<ObjectId>(k));
    long_txn->Write(static_cast<ObjectId>(k));
  }
  for (std::size_t s = 1; s < wave_txns; ++s) {
    Transaction* txn = w.txns.AddTransaction();
    auto a = static_cast<ObjectId>(rng->UniformIndex(objects));
    auto b = static_cast<ObjectId>(rng->UniformIndex(objects));
    if (a == b) b = static_cast<ObjectId>((b + 1) % objects);
    if (a > b) std::swap(a, b);
    if (s % 4 == 0) {
      // Read-only auditor: snapshot fast-path fodder.
      txn->Read(a);
      txn->Read(b);
    } else {
      txn->Read(a);
      txn->Write(a);
      txn->Read(b);
      txn->Write(b);
    }
  }
  AtomicitySpec spec(w.txns);
  for (TxnId j = 1; j < w.txns.txn_count(); ++j) {
    for (std::uint32_t g = 1; g + 1 < 2 * long_steps; g += 2) {
      spec.SetBreakpoint(0, j, g);
    }
  }
  w.spec = std::move(spec);
  return w;
}

/// VmRSS of this process in kilobytes (0 when /proc is unavailable).
std::size_t ReadRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

/// One wave's live-state high-water, collapsed to an estimated byte
/// count of the structures stable-prefix GC bounds.
std::uint64_t CompositeBytes(const relser::ShardedAdmitter::LiveHighWater& hw,
                             std::size_t txn_count) {
  return hw.pool_rows * txn_count *
             sizeof(relser::OnlineRsrChecker::AncestorColumn) +
         hw.retained_ops * sizeof(std::size_t) +
         hw.accept_entries *
             sizeof(std::pair<std::uint64_t, relser::Operation>) +
         hw.coordinator_arcs * 16 + hw.dep_arcs * 8;
}

struct GcPhaseResult {
  std::size_t ops = 0;
  std::size_t waves = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::uint64_t snapshot_admits = 0;
  std::uint64_t epochs_advanced = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t arcs_gcd = 0;
  std::uint64_t early_live_bytes = 0;  // max composite, first 10% of waves
  std::uint64_t final_live_bytes = 0;  // composite of the last wave
  std::uint64_t peak_live_bytes = 0;   // max composite over the whole run
  std::uint64_t hw_pool_rows = 0;
  std::uint64_t hw_coordinator_arcs = 0;
  std::size_t rss_early_kb = 0;  // VmRSS at the 10%-of-run boundary
  std::size_t rss_final_kb = 0;
  std::uint64_t p99_early_ns = 0;  // first 10% of operations
  std::uint64_t p99_final_ns = 0;  // last 10% of operations
  // Per-wave admitter construction (shard projection included).
  double setup_ms_p50 = 0;
  double setup_ms_max = 0;
  // Checker work counters, summed over shards: operations re-admitted by
  // exact aborts (each victim's dependents outside the victim, so
  // replayed_per_op_* counts only work that depends on an aborted
  // transaction), and operations still retained when a wave's admitter
  // stops (what its next checkpoint and aborts would still work over),
  // per decided operation; means over the first and last 10% of waves.
  std::uint64_t replayed_ops = 0;
  double replayed_per_op_early = 0;
  double replayed_per_op_late = 0;
  double residual_per_op_early = 0;
  double residual_per_op_late = 0;
  double residual_per_op_max = 0;
  bool flat_memory = false;
  bool flat_rss = false;
  bool bounded_work = false;
};

// Without GC a wave's checkers retain about one operation per decided
// operation; with it, the settled prefix is gone and only the last
// unswept finishes and the open window remain (below 0.2 on the smoke).
constexpr double kMaxResidualPerOp = 0.3;

// ASan keeps freed blocks in a 256 MB quarantine, so under ASan RSS
// tracks allocation churn, not live state: on the smoke run it reads
// 203 -> 430 MB, and 45 -> 42 MB with the quarantine disabled. The
// flat_rss gate therefore runs only in builds without ASan (scripts/ci.sh
// runs this smoke on the Release build for it); flat_memory and
// bounded_work count entries, not bytes or time, and are gated in every
// build.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

GcPhaseResult RunGcPhase(std::size_t target_ops, std::size_t wave_txns,
                         std::size_t objects, std::size_t long_steps) {
  using namespace relser;
  GcPhaseResult out;
  std::vector<std::uint32_t> latencies;
  latencies.reserve(target_ops + wave_txns * 4);
  std::vector<std::uint64_t> wave_bytes;
  std::vector<double> wave_replayed;  // per decided op
  std::vector<double> wave_residual;  // per decided op
  std::vector<double> wave_setup_ms;
  Rng wave_rng(0xEB0C5);
  Backoff backoff(0xEB0C6);
  constexpr std::size_t kWindow = 32;  // concurrently-open transactions
  while (out.ops < target_ops) {
    AdmissionWave w =
        MakeAdmissionWave(wave_txns, objects, long_steps, &wave_rng);
    const auto txn_count = static_cast<TxnId>(w.txns.txn_count());
    const std::size_t ops_before = out.ops;
    ShardedAdmitterOptions opt;
    opt.epoch_gc = true;
    opt.gc_interval = 64;
    opt.committed_log = false;  // cap memory at the unsettled suffix
    opt.snapshot_reads = true;
    const auto setup_start = std::chrono::steady_clock::now();
    ShardedAdmitter admitter(w.txns, w.spec,
                             ShardRouter(objects, /*shard_count=*/2), opt);
    wave_setup_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - setup_start)
                                .count());
    // One client interleaves a window of open transactions in round-robin
    // program order (the blocking feeding contract is per transaction).
    std::vector<TxnId> active;
    std::vector<std::uint32_t> cursor(txn_count, 0);
    TxnId next_txn = 0;
    std::size_t slot = 0;
    while (true) {
      while (active.size() < kWindow && next_txn < txn_count) {
        active.push_back(next_txn++);
      }
      if (active.empty()) break;
      slot = slot % active.size();
      const TxnId txn = active[slot];
      const Operation op = w.txns.txn(txn).op(cursor[txn]);
      const auto t0 = std::chrono::steady_clock::now();
      const AdmitResult result = admitter.SubmitWithBackoff(op, backoff);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      latencies.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(ns, 0xFFFFFFFF)));
      ++out.ops;
      ++cursor[txn];
      // A non-accept is terminal for the whole transaction: stop
      // submitting its remaining operations.
      const bool done =
          !result.ok() || cursor[txn] >= w.txns.txn(txn).size();
      if (done) {
        active[slot] = active.back();
        active.pop_back();
      } else {
        ++slot;
      }
    }
    admitter.Stop();
    for (TxnId t = 0; t < txn_count; ++t) {
      if (admitter.TxnCommitted(t)) {
        ++out.committed;
      } else {
        ++out.aborted;
      }
    }
    out.snapshot_admits += admitter.snapshot_admits();
    out.epochs_advanced += admitter.epochs()->epochs_advanced();
    out.checkpoints += admitter.checkpoints();
    out.arcs_gcd += admitter.coordinator().arcs_gcd();
    const ShardedAdmitter::LiveHighWater hw = admitter.live_high_water();
    out.hw_pool_rows = std::max(out.hw_pool_rows, hw.pool_rows);
    out.hw_coordinator_arcs =
        std::max(out.hw_coordinator_arcs, hw.coordinator_arcs);
    wave_bytes.push_back(CompositeBytes(hw, w.txns.txn_count()));
    std::size_t replayed = 0;
    std::size_t residual = 0;
    for (std::uint32_t s = 0; s < 2; ++s) {
      replayed += admitter.checker(s).replayed_ops();
      residual += admitter.checker(s).retained_ops();
    }
    const auto decided = static_cast<double>(out.ops - ops_before);
    out.replayed_ops += replayed;
    wave_replayed.push_back(static_cast<double>(replayed) / decided);
    wave_residual.push_back(static_cast<double>(residual) / decided);
    ++out.waves;
    if (out.rss_early_kb == 0 && out.ops * 10 >= target_ops) {
      out.rss_early_kb = ReadRssKb();
    }
  }
  out.rss_final_kb = ReadRssKb();
  const std::size_t early_waves = std::max<std::size_t>(1, out.waves / 10);
  for (std::size_t i = 0; i < early_waves; ++i) {
    out.early_live_bytes = std::max(out.early_live_bytes, wave_bytes[i]);
  }
  for (const std::uint64_t bytes : wave_bytes) {
    out.peak_live_bytes = std::max(out.peak_live_bytes, bytes);
  }
  out.final_live_bytes = wave_bytes.back();
  const auto mean = [early_waves](const std::vector<double>& per_wave,
                                  std::size_t first) {
    double sum = 0;
    for (std::size_t i = first; i < first + early_waves; ++i) {
      sum += per_wave[i];
    }
    return sum / static_cast<double>(early_waves);
  };
  const std::size_t late_first = out.waves - early_waves;
  out.replayed_per_op_early = mean(wave_replayed, 0);
  out.replayed_per_op_late = mean(wave_replayed, late_first);
  out.residual_per_op_early = mean(wave_residual, 0);
  out.residual_per_op_late = mean(wave_residual, late_first);
  for (const double residual : wave_residual) {
    out.residual_per_op_max = std::max(out.residual_per_op_max, residual);
  }
  out.setup_ms_max =
      *std::max_element(wave_setup_ms.begin(), wave_setup_ms.end());
  out.setup_ms_p50 = Percentile(wave_setup_ms, 50);
  const std::size_t decile = std::max<std::size_t>(1, latencies.size() / 10);
  out.p99_early_ns = Percentile(
      std::vector<std::uint32_t>(
          latencies.begin(),
          latencies.begin() + static_cast<std::ptrdiff_t>(decile)),
      99);
  out.p99_final_ns = Percentile(
      std::vector<std::uint32_t>(
          latencies.end() - static_cast<std::ptrdiff_t>(decile),
          latencies.end()),
      99);
  if (std::getenv("RELSER_LONGLIVED_DECILES") != nullptr) {
    std::cout << "per-decile p99_ns:";
    for (std::size_t d = 0; d < 10; ++d) {
      const std::size_t lo = latencies.size() * d / 10;
      const std::size_t hi = latencies.size() * (d + 1) / 10;
      std::cout << ' '
                << Percentile(
                       std::vector<std::uint32_t>(
                           latencies.begin() + static_cast<std::ptrdiff_t>(lo),
                           latencies.begin() + static_cast<std::ptrdiff_t>(hi)),
                       99);
    }
    std::cout << '\n';
  }
  // Exit-coded gates: live state flat — the end of the run retains no
  // more than 1.2x what the 10% mark high-watered — RSS flat by the same
  // ratio, and no wave leaving more than kMaxResidualPerOp retained
  // operations per decided operation behind.
  out.flat_memory = out.final_live_bytes * 10 <= out.early_live_bytes * 12;
  out.flat_rss = out.rss_final_kb * 10 <= out.rss_early_kb * 12;
  out.bounded_work = out.residual_per_op_max <= kMaxResidualPerOp;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace relser;
  bool smoke = false;
  std::string tag;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--tag=", 6) == 0) tag = argv[i] + 6;
  }
  std::cout << "== CONC/long-lived: short-txn latency behind a long txn =="
            << (smoke ? " (smoke)" : "") << "\n\n";

  AsciiTable table({"long_steps", "scheduler", "makespan", "short_lat_mean",
                    "short_lat_max", "long_latency", "blocks", "aborts",
                    "guarantee"});
  bool all_guarantees = true;
  constexpr std::size_t kShortTxns = 16;
  const std::size_t kRuns = smoke ? 2 : 5;
  const double runs_d = static_cast<double>(kRuns);
  std::vector<LongLivedRow> rows;
  const std::vector<std::size_t> step_grid =
      smoke ? std::vector<std::size_t>{4, 8}
            : std::vector<std::size_t>{4, 8, 16, 32};
  for (const std::size_t long_steps : step_grid) {
    for (const std::string& name : AllSchedulerNames()) {
      double short_lat_sum = 0;
      std::size_t short_lat_max = 0;
      double long_lat_sum = 0;
      double makespan_sum = 0;
      std::size_t blocks = 0;
      std::size_t aborts = 0;
      bool guarantee = true;
      for (std::size_t run = 0; run < kRuns; ++run) {
        Rng rng(31337 + static_cast<std::uint64_t>(run));
        const LongLivedWorkload w = MakeLongLived(long_steps, kShortTxns,
                                                  /*long_think=*/3, &rng);
        auto scheduler = MakeScheduler(name, w.txns, w.spec);
        SimParams sp;
        sp.seed = 99 + static_cast<std::uint64_t>(run);
        sp.think_time = w.think_time;
        sp.start_tick = w.start_tick;
        sp.max_ticks = 500000;
        const SimResult result = RunSimulation(w.txns, scheduler.get(), sp);
        const RunVerification verification =
            VerifyRun(w.txns, w.spec, result, GuaranteeOf(name));
        guarantee = guarantee && verification.guarantee_held &&
                    result.metrics.completed;
        for (TxnId t = 1; t < w.txns.txn_count(); ++t) {
          short_lat_sum += static_cast<double>(result.latency[t]);
          short_lat_max = std::max(short_lat_max, result.latency[t]);
        }
        long_lat_sum += static_cast<double>(result.latency[0]);
        makespan_sum += static_cast<double>(result.metrics.makespan);
        blocks += result.metrics.blocks;
        aborts += result.metrics.aborts + result.metrics.cascade_aborts;
      }
      all_guarantees = all_guarantees && guarantee;
      LongLivedRow row;
      row.long_steps = long_steps;
      row.scheduler = name;
      row.makespan_mean = makespan_sum / runs_d;
      row.short_lat_mean =
          short_lat_sum / (runs_d * kShortTxns);
      row.short_lat_max = short_lat_max;
      row.long_latency_mean = long_lat_sum / runs_d;
      row.blocks_mean = blocks / kRuns;
      row.aborts_mean = aborts / kRuns;
      row.guarantee = guarantee;
      rows.push_back(row);
      table.AddRow({std::to_string(long_steps), name,
                    FormatDouble(makespan_sum / runs_d, 0),
                    FormatDouble(short_lat_sum / (runs_d * kShortTxns), 1),
                    std::to_string(short_lat_max),
                    FormatDouble(long_lat_sum / runs_d, 0),
                    std::to_string(blocks / kRuns),
                    std::to_string(aborts / kRuns),
                    guarantee ? "held" : "VIOLATED"});
    }
  }
  table.Print(std::cout);

  // -- Admission GC phase: flat memory + bounded work under epoch GC ---
  std::size_t gc_target_ops = smoke ? 40000 : 10000000;
  if (const char* env = std::getenv("RELSER_LONGLIVED_GC_OPS")) {
    const long long parsed = std::strtoll(env, nullptr, 10);
    if (parsed > 0) gc_target_ops = static_cast<std::size_t>(parsed);
  }
  const std::size_t gc_wave_txns = smoke ? 256 : 2048;
  const std::size_t gc_objects = smoke ? 96 : 256;
  const std::size_t gc_long_steps = smoke ? 16 : 64;
  std::cout << "\n== admission GC phase: " << gc_target_ops
            << " ops through ShardedAdmitter{epoch_gc} ==\n\n";
  const GcPhaseResult gc =
      RunGcPhase(gc_target_ops, gc_wave_txns, gc_objects, gc_long_steps);
  AsciiTable gc_table({"metric", "value"});
  gc_table.AddRow({"ops", std::to_string(gc.ops)});
  gc_table.AddRow({"waves", std::to_string(gc.waves)});
  gc_table.AddRow({"committed", std::to_string(gc.committed)});
  gc_table.AddRow({"aborted", std::to_string(gc.aborted)});
  gc_table.AddRow({"snapshot_admits", std::to_string(gc.snapshot_admits)});
  gc_table.AddRow({"epochs_advanced", std::to_string(gc.epochs_advanced)});
  gc_table.AddRow({"checkpoints", std::to_string(gc.checkpoints)});
  gc_table.AddRow({"arcs_gcd", std::to_string(gc.arcs_gcd)});
  gc_table.AddRow({"live_bytes_early_hw",
                   std::to_string(gc.early_live_bytes)});
  gc_table.AddRow({"live_bytes_final", std::to_string(gc.final_live_bytes)});
  gc_table.AddRow({"live_bytes_peak", std::to_string(gc.peak_live_bytes)});
  gc_table.AddRow({"hw_pool_rows", std::to_string(gc.hw_pool_rows)});
  gc_table.AddRow({"hw_coordinator_arcs",
                   std::to_string(gc.hw_coordinator_arcs)});
  gc_table.AddRow({"rss_early_kb", std::to_string(gc.rss_early_kb)});
  gc_table.AddRow({"rss_final_kb", std::to_string(gc.rss_final_kb)});
  gc_table.AddRow({"p99_early_ns", std::to_string(gc.p99_early_ns)});
  gc_table.AddRow({"p99_final_ns", std::to_string(gc.p99_final_ns)});
  gc_table.AddRow({"setup_ms_p50", FormatDouble(gc.setup_ms_p50, 3)});
  gc_table.AddRow({"setup_ms_max", FormatDouble(gc.setup_ms_max, 3)});
  gc_table.AddRow({"replayed_ops", std::to_string(gc.replayed_ops)});
  gc_table.AddRow({"replayed_per_op_early",
                   FormatDouble(gc.replayed_per_op_early, 3)});
  gc_table.AddRow({"replayed_per_op_late",
                   FormatDouble(gc.replayed_per_op_late, 3)});
  gc_table.AddRow({"residual_per_op_early",
                   FormatDouble(gc.residual_per_op_early, 3)});
  gc_table.AddRow({"residual_per_op_late",
                   FormatDouble(gc.residual_per_op_late, 3)});
  gc_table.AddRow({"residual_per_op_max",
                   FormatDouble(gc.residual_per_op_max, 3)});
  gc_table.AddRow({"flat_memory_gate", gc.flat_memory ? "PASS" : "FAIL"});
  gc_table.AddRow({"flat_rss_gate", kAsan         ? "not gated (ASan)"
                                    : gc.flat_rss ? "PASS"
                                                  : "FAIL"});
  gc_table.AddRow({"bounded_work_gate", gc.bounded_work ? "PASS" : "FAIL"});
  gc_table.Print(std::cout);
  const bool gc_gates =
      gc.flat_memory && gc.bounded_work && (kAsan || gc.flat_rss);

  std::cout << "\nExpected shape: short_lat_mean grows with long_steps for "
               "serial and 2PL (shorts stall\nbehind the long transaction's "
               "locks) but stays flat for unit-2PL and RSGT; SGT keeps\n"
               "shorts fast but starves the long transaction (long_latency "
               "blows up: the long txn is\nthe one aborted when a short "
               "makes the execution non-serializable), while RSGT\nadmits "
               "those interleavings via the unit boundaries.\nguarantees: "
            << (all_guarantees ? "all held" : "VIOLATED") << "\n";

  // -- JSON artifact ---------------------------------------------------
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("longlived");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("runs_per_cell");
  json.Uint(kRuns);
  json.Key("short_txns");
  json.Uint(kShortTxns);
  json.Key("all_guarantees_held");
  json.Bool(all_guarantees);
  json.Key("rows");
  json.BeginArray();
  for (const LongLivedRow& row : rows) {
    json.BeginObject();
    json.Key("long_steps");
    json.Uint(row.long_steps);
    json.Key("scheduler");
    json.String(row.scheduler);
    json.Key("makespan_mean");
    json.Double(row.makespan_mean);
    json.Key("short_lat_mean");
    json.Double(row.short_lat_mean);
    json.Key("short_lat_max");
    json.Uint(row.short_lat_max);
    json.Key("long_latency_mean");
    json.Double(row.long_latency_mean);
    json.Key("blocks_mean");
    json.Uint(row.blocks_mean);
    json.Key("aborts_mean");
    json.Uint(row.aborts_mean);
    json.Key("guarantee_held");
    json.Bool(row.guarantee);
    json.EndObject();
  }
  json.EndArray();
  json.Key("gc");
  json.BeginObject();
  json.Key("ops");
  json.Uint(gc.ops);
  json.Key("waves");
  json.Uint(gc.waves);
  json.Key("committed");
  json.Uint(gc.committed);
  json.Key("aborted");
  json.Uint(gc.aborted);
  json.Key("snapshot_admits");
  json.Uint(gc.snapshot_admits);
  json.Key("epochs_advanced");
  json.Uint(gc.epochs_advanced);
  json.Key("checkpoints");
  json.Uint(gc.checkpoints);
  json.Key("arcs_gcd");
  json.Uint(gc.arcs_gcd);
  json.Key("live_bytes_early_hw");
  json.Uint(gc.early_live_bytes);
  json.Key("live_bytes_final");
  json.Uint(gc.final_live_bytes);
  json.Key("live_bytes_peak");
  json.Uint(gc.peak_live_bytes);
  json.Key("hw_pool_rows");
  json.Uint(gc.hw_pool_rows);
  json.Key("hw_coordinator_arcs");
  json.Uint(gc.hw_coordinator_arcs);
  json.Key("rss_early_kb");
  json.Uint(gc.rss_early_kb);
  json.Key("rss_final_kb");
  json.Uint(gc.rss_final_kb);
  json.Key("p99_early_ns");
  json.Uint(gc.p99_early_ns);
  json.Key("p99_final_ns");
  json.Uint(gc.p99_final_ns);
  json.Key("setup_ms_p50");
  json.Double(gc.setup_ms_p50);
  json.Key("setup_ms_max");
  json.Double(gc.setup_ms_max);
  json.Key("replayed_ops");
  json.Uint(gc.replayed_ops);
  json.Key("replayed_per_op_early");
  json.Double(gc.replayed_per_op_early);
  json.Key("replayed_per_op_late");
  json.Double(gc.replayed_per_op_late);
  json.Key("residual_per_op_early");
  json.Double(gc.residual_per_op_early);
  json.Key("residual_per_op_late");
  json.Double(gc.residual_per_op_late);
  json.Key("residual_per_op_max");
  json.Double(gc.residual_per_op_max);
  json.Key("flat_memory_gate");
  json.Bool(gc.flat_memory);
  const auto release_gate = [&json](bool pass) {
    if (kAsan) {
      json.Null();  // not gated in this build
    } else {
      json.Bool(pass);
    }
  };
  json.Key("flat_rss_gate");
  release_gate(gc.flat_rss);
  json.Key("bounded_work_gate");
  json.Bool(gc.bounded_work);
  json.EndObject();
  json.EndObject();
  if (!WriteBenchJsonFile("BENCH_longlived.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_longlived.json\n";
    return 1;
  }
  if (!gc_gates) {
    std::cerr << "admission GC gate FAILED (flat_memory="
              << (gc.flat_memory ? "pass" : "FAIL")
              << ", flat_rss="
              << (kAsan ? "not gated" : gc.flat_rss ? "pass" : "FAIL")
              << ", bounded_work=" << (gc.bounded_work ? "pass" : "FAIL")
              << ")\n";
  }
  return (all_guarantees && gc_gates) ? 0 : 1;
}
