// AUDIT — offline auditor throughput and witness-minimization gates.
//
// Two cells, each a hard gate (non-zero exit on failure):
//
//   1. Scale: a 10^6-operation committed-epoch history — epochs of two
//      concurrently interleaved transactions over a shared hot object
//      pool, each epoch fully committed before the next begins — is
//      serialized to generic-dialect JSONL, ingested back through
//      audit/ingest.h, and replayed through the online checker via the
//      auditor's epoch-segmented scan (audit/audit.h: no RSG cycle can
//      span a point where no transaction is open, so the checker
//      restarts per epoch and the audit stays linear in history
//      length). Each epoch pair is mutually fully relaxed, so the
//      history is relatively serializable by construction while the
//      within-epoch conflict arcs the checker certifies are real.
//      Gate: >= 10^6 ops (10^5 under --smoke) ingested and accepted
//      end-to-end.
//
//   2. Minimize: a planted three-transaction conflict cycle (the
//      docs/audit.md worked example writ large) is buried in a 10^4-op
//      history of disjoint-object filler transactions and audited
//      under absolute atomicity. Gate: the delta-debugged witness has
//      <= 10 operations, re-checks as violating, and its exported
//      JSONL trace passes the versioned schema validator
//      (docs/trace-format.md).
//
// Emits BENCH_audit.json (cwd, plus bench/trajectory/ when a tag is
// set) via WriteBenchJsonFile. `--smoke` shrinks the scale cell
// for CI; `--tag=NAME` snapshots the trajectory file.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/ingest.h"
#include "bench_common.h"
#include "model/text.h"
#include "obs/inspect.h"
#include "spec/builders.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"

namespace relser {
namespace {

// Serializes `history` as generic-dialect JSONL (docs/trace-format.md):
// one {"txn","op","object","rw"} object per line.
std::string ToGenericJsonl(const TransactionSet& txns,
                           const std::vector<Operation>& history) {
  std::string out;
  out.reserve(history.size() * 48);
  char line[96];
  for (const Operation& op : history) {
    std::snprintf(line, sizeof(line),
                  "{\"txn\": %u, \"op\": %u, \"object\": \"%s\", \"rw\": "
                  "\"%c\"}\n",
                  op.txn, op.index, txns.ObjectName(op.object).c_str(),
                  op.is_write() ? 'w' : 'r');
    out += line;
  }
  return out;
}

struct ScaleResult {
  std::size_t ops = 0;
  std::size_t jsonl_bytes = 0;
  double ingest_seconds = 0.0;
  double check_seconds = 0.0;
  double ingest_ops_per_sec = 0.0;
  double check_ops_per_sec = 0.0;
  bool accepted = false;
  bool pass = false;
};

ScaleResult RunScale(std::size_t epochs, std::size_t ops_per_txn,
                     std::size_t min_ops, std::uint64_t seed) {
  ScaleResult result;
  Rng rng(seed);

  // Epoch e interleaves transactions 2e and 2e+1 round-robin; both
  // draw from one shared 64-object hot pool, so within-epoch conflict
  // arcs are dense. The epoch pair is mutually fully relaxed (every
  // gap a breakpoint): unit structure is all singletons, so the
  // interleaving is relatively serializable by construction while the
  // D-arc bookkeeping stays real. Transaction ids appear in first-use
  // order, so the generic dialect densifies them identically.
  TransactionSet txns;
  std::vector<ObjectId> pool;
  for (int o = 0; o < 64; ++o) {
    std::string name = "g";
    name += std::to_string(o);
    pool.push_back(txns.InternObject(name));
  }
  std::vector<Operation> history;
  history.reserve(epochs * 2 * ops_per_txn);
  for (std::size_t e = 0; e < epochs; ++e) {
    Transaction* t0 = txns.AddTransaction();
    Transaction* t1 = txns.AddTransaction();
    for (std::size_t i = 0; i < ops_per_txn; ++i) {
      for (Transaction* txn : {t0, t1}) {
        const ObjectId obj =
            pool[static_cast<std::size_t>(rng.Next()) % pool.size()];
        if (rng.Next() % 2 == 0) {
          txn->Write(obj);
        } else {
          txn->Read(obj);
        }
      }
    }
    const TxnId a = static_cast<TxnId>(2 * e);
    const TxnId b = static_cast<TxnId>(2 * e + 1);
    for (std::uint32_t r = 0; r < ops_per_txn; ++r) {
      history.push_back(txns.txn(a).op(r));
      history.push_back(txns.txn(b).op(r));
    }
  }
  AtomicitySpec spec(txns);
  for (std::size_t e = 0; e < epochs; ++e) {
    spec.RelaxFully(static_cast<TxnId>(2 * e), static_cast<TxnId>(2 * e + 1));
    spec.RelaxFully(static_cast<TxnId>(2 * e + 1), static_cast<TxnId>(2 * e));
  }

  const std::string jsonl = ToGenericJsonl(txns, history);
  result.jsonl_bytes = jsonl.size();

  auto start = std::chrono::steady_clock::now();
  Result<AuditInput> input = IngestHistoryText(jsonl);
  result.ingest_seconds = SecondsSince(start);
  if (!input.ok()) {
    std::cerr << "scale: ingest failed: " << input.status().message()
              << "\n";
    return result;
  }
  const AuditInput& in = input.value();
  result.ops = in.history.size();

  start = std::chrono::steady_clock::now();
  const AuditReport report = AuditHistory(in.txns, spec, in.history);
  result.check_seconds = SecondsSince(start);

  const auto rate = [](std::size_t ops, double seconds) {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  };
  result.ingest_ops_per_sec = rate(result.ops, result.ingest_seconds);
  result.check_ops_per_sec = rate(result.ops, result.check_seconds);
  result.accepted = report.accepted;
  result.pass = result.accepted && result.ops >= min_ops;
  return result;
}

struct MinimizeResult {
  std::size_t ops = 0;
  std::size_t witness_ops = 0;
  std::size_t ddmin_checks = 0;
  std::string witness_text;
  bool violated = false;
  bool minimized = false;
  bool witness_small = false;
  bool witness_jsonl_valid = false;
  bool pass = false;
};

MinimizeResult RunMinimize(std::size_t filler_epochs,
                           std::size_t ops_per_filler) {
  MinimizeResult result;

  // Filler: committed epochs of two interleaved transactions on
  // disjoint per-transaction objects — never a conflict, so the
  // absolute-atomicity audit of the filler alone accepts, and each
  // epoch closes a segmentation cut.
  TransactionSet txns;
  for (std::size_t e = 0; e < filler_epochs; ++e) {
    for (int half = 0; half < 2; ++half) {
      Transaction* txn = txns.AddTransaction();
      std::string name = "f";
      name += std::to_string(2 * e + static_cast<std::size_t>(half));
      const ObjectId obj = txns.InternObject(name);
      for (std::size_t i = 0; i < ops_per_filler; ++i) {
        if (i % 2 == 0) {
          txn->Write(obj);
        } else {
          txn->Read(obj);
        }
      }
    }
  }
  // The planted cycle: the mutated Figure 3 shape (docs/audit.md) —
  // T_a -> T_b on x, T_b -> T_c on y, T_c -> T_a on z.
  const TxnId a = static_cast<TxnId>(2 * filler_epochs);
  const TxnId b = static_cast<TxnId>(2 * filler_epochs + 1);
  const TxnId c = static_cast<TxnId>(2 * filler_epochs + 2);
  {
    const ObjectId x = txns.InternObject("x");
    const ObjectId y = txns.InternObject("y");
    const ObjectId z = txns.InternObject("z");
    Transaction* ta = txns.AddTransaction();
    ta->Write(x);
    ta->Write(z);
    Transaction* tb = txns.AddTransaction();
    tb->Read(x);
    tb->Write(y);
    Transaction* tc = txns.AddTransaction();
    tc->Read(z);
    tc->Read(y);
  }

  // Epochs run back to back; the six planted operations land on six
  // consecutive epoch boundaries in the middle of the history. The
  // planted transactions stay open across that window, merging those
  // epochs into one (still small) segment the violation lives in.
  std::vector<Operation> history;
  history.reserve(2 * filler_epochs * ops_per_filler + 6);
  const std::vector<Operation> planted = {
      txns.txn(a).op(0),  // wa[x]
      txns.txn(b).op(0),  // rb[x]
      txns.txn(c).op(0),  // rc[z]
      txns.txn(b).op(1),  // wb[y]
      txns.txn(c).op(1),  // rc[y]
      txns.txn(a).op(1),  // wa[z] — closes the cycle
  };
  const std::size_t plant_start = filler_epochs / 2;
  for (std::size_t e = 0; e < filler_epochs; ++e) {
    if (e >= plant_start && e - plant_start < planted.size()) {
      history.push_back(planted[e - plant_start]);
    }
    const TxnId t0 = static_cast<TxnId>(2 * e);
    const TxnId t1 = static_cast<TxnId>(2 * e + 1);
    for (std::uint32_t r = 0; r < ops_per_filler; ++r) {
      history.push_back(txns.txn(t0).op(r));
      history.push_back(txns.txn(t1).op(r));
    }
  }
  result.ops = history.size();

  const AtomicitySpec absolute = AbsoluteSpec(txns);
  const AuditReport report = AuditHistory(txns, absolute, history);
  result.violated = !report.accepted;
  result.minimized = report.minimized;
  result.witness_ops = report.witness_ops.size();
  result.ddmin_checks = report.ddmin_checks;
  result.witness_text = report.witness_text;
  result.witness_small = result.witness_ops <= 10;

  if (report.minimized) {
    const std::string jsonl_path = "BENCH_audit_witness.jsonl";
    const std::string chrome_path = "BENCH_audit_witness.chrome.json";
    if (ExportWitness(report, jsonl_path, chrome_path)) {
      std::ifstream file(jsonl_path, std::ios::binary);
      std::ostringstream content;
      content << file.rdbuf();
      const TraceValidation validation =
          ValidateTraceJsonl(content.str());
      result.witness_jsonl_valid = file.good() && validation.ok;
    }
  }
  result.pass = result.violated && result.minimized &&
                result.witness_small && result.witness_jsonl_valid;
  return result;
}

std::string Rate(double ops_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fM", ops_per_sec / 1e6);
  return buf;
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

  std::cout << "== AUDIT: offline auditor ingest+check throughput and "
               "witness minimization =="
            << (smoke ? " (smoke)" : "") << "\n\n";

  // 1000 epochs x 2 txns x 500 ops = 10^6 exactly (smoke: 100 epochs
  // ~ 10^5). Epoch width trades checker cost (super-linear in segment
  // size) against spec storage (quadratic in transaction count).
  const std::size_t epochs = smoke ? 100 : 1000;
  const std::size_t min_ops = smoke ? 100000 : 1000000;
  const ScaleResult scale = RunScale(epochs, 500, min_ops, 0xA0D17ULL);

  AsciiTable table({"cell", "ops", "ingest", "check", "result", "gate"});
  table.AddRow({"scale", std::to_string(scale.ops),
                Rate(scale.ingest_ops_per_sec) + " ops/s",
                Rate(scale.check_ops_per_sec) + " ops/s",
                scale.accepted ? "accepted" : "rejected",
                scale.pass ? "PASS" : "FAIL"});

  const MinimizeResult minimize = RunMinimize(smoke ? 20 : 80, 64);
  table.AddRow({"minimize", std::to_string(minimize.ops),
                "-",
                std::to_string(minimize.ddmin_checks) + " re-checks",
                std::to_string(minimize.witness_ops) + "-op witness",
                minimize.pass ? "PASS" : "FAIL"});
  table.Print(std::cout);
  std::cout << "\nminimized witness: " << minimize.witness_text << "\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("audit");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("scale");
  json.BeginObject();
  json.Key("ops");
  json.Uint(scale.ops);
  json.Key("jsonl_bytes");
  json.Uint(scale.jsonl_bytes);
  json.Key("ingest_seconds");
  json.Double(scale.ingest_seconds);
  json.Key("check_seconds");
  json.Double(scale.check_seconds);
  json.Key("ingest_ops_per_sec");
  json.Double(scale.ingest_ops_per_sec);
  json.Key("check_ops_per_sec");
  json.Double(scale.check_ops_per_sec);
  json.Key("accepted");
  json.Bool(scale.accepted);
  json.Key("pass");
  json.Bool(scale.pass);
  json.EndObject();
  json.Key("minimize");
  json.BeginObject();
  json.Key("ops");
  json.Uint(minimize.ops);
  json.Key("witness_ops");
  json.Uint(minimize.witness_ops);
  json.Key("ddmin_checks");
  json.Uint(minimize.ddmin_checks);
  json.Key("witness_text");
  json.String(minimize.witness_text);
  json.Key("violated");
  json.Bool(minimize.violated);
  json.Key("minimized");
  json.Bool(minimize.minimized);
  json.Key("witness_jsonl_valid");
  json.Bool(minimize.witness_jsonl_valid);
  json.Key("pass");
  json.Bool(minimize.pass);
  json.EndObject();
  const bool pass = scale.pass && minimize.pass;
  json.Key("pass");
  json.Bool(pass);
  json.EndObject();
  if (!WriteBenchJsonFile("BENCH_audit.json", json.str(), tag)) {
    std::cerr << "failed to write BENCH_audit.json\n";
    return 1;
  }
  std::cout << "gates: " << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
