#include "audit/audit.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "core/online.h"
#include "model/text.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "spec/text.h"

namespace relser {

namespace {

constexpr TxnId kNoTxn = ~static_cast<TxnId>(0);

// Streams `history` through one fresh checker; returns the index of
// the first rejected operation (filling *rejection) or history.size().
std::size_t ScanWhole(const TransactionSet& txns, const AtomicitySpec& spec,
                      const std::vector<Operation>& history,
                      AdmitResult* rejection) {
  OnlineRsrChecker checker(txns, spec);
  for (std::size_t i = 0; i < history.size(); ++i) {
    const AdmitResult result = checker.TryAppend(history[i]);
    if (!result.ok()) {
      if (rejection != nullptr) *rejection = result;
      return i;
    }
  }
  return history.size();
}

// Epoch cut points: every index `c` such that after feeding
// history[0..c) no transaction is open (every transaction started so
// far is completely fed). Returns the exclusive end of each segment;
// the last entry is always history.size().
//
// Cuts are where the auditor may forget everything: every RSG arc
// between operations of different transactions (D-, F- and B-arcs,
// Definition 3) runs from an operation of the depended-on — i.e.
// schedule-earlier — transaction to an operation of the dependent
// transaction, and I-arcs stay inside one transaction. A transaction
// finished before the cut therefore only sends arcs *forward* across
// it, so no cycle spans a cut and Theorem 1 decomposes: the history is
// relatively serializable iff every segment is. This is what makes
// auditing long committed-epoch logs linear instead of quadratic.
std::vector<std::size_t> SegmentEnds(const TransactionSet& txns,
                                     const std::vector<Operation>& history) {
  std::vector<std::size_t> ends;
  std::vector<std::uint32_t> fed(txns.txn_count(), 0);
  std::size_t open = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Operation& op = history[i];
    if (fed[op.txn] == 0) ++open;
    ++fed[op.txn];
    if (fed[op.txn] == txns.txn(op.txn).size()) --open;
    if (open == 0) ends.push_back(i + 1);
  }
  if (ends.empty() || ends.back() != history.size()) {
    ends.push_back(history.size());  // trailing open segment
  }
  return ends;
}

// Segmented scan: restarts a fresh checker at every epoch cut, feeding
// each segment as a self-contained projected history. Equivalent to
// ScanWhole by the cut argument above, and linear in history length
// when segments stay bounded.
std::size_t Scan(const TransactionSet& txns, const AtomicitySpec& spec,
                 const std::vector<Operation>& history,
                 AdmitResult* rejection) {
  const std::vector<std::size_t> ends = SegmentEnds(txns, history);
  if (ends.size() <= 1) {
    return ScanWhole(txns, spec, history, rejection);
  }
  std::size_t start = 0;
  // Hoisted: IsAbsolute() walks every breakpoint vector, which is
  // O(transactions^2) on wide specs — far too hot for the segment loop.
  const bool absolute = spec.IsAbsolute();
  for (const std::size_t end : ends) {
    // Rebuild the segment's transactions (complete by construction:
    // only the final segment of a truncated history may hold partially
    // fed transactions, and partial feeds are fine for the checker).
    TransactionSet seg;
    std::unordered_map<TxnId, TxnId> local;
    std::vector<TxnId> rev;
    std::vector<Operation> ops;
    ops.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      const Operation& op = history[i];
      const auto [it, inserted] =
          local.try_emplace(op.txn, static_cast<TxnId>(rev.size()));
      if (inserted) {
        rev.push_back(op.txn);
        Transaction* txn = seg.AddTransaction();
        const Transaction& original = txns.txn(op.txn);
        for (std::uint32_t k = 0; k < original.size(); ++k) {
          const Operation& o = original.op(k);
          const ObjectId obj = seg.InternObject(txns.ObjectName(o.object));
          if (o.is_write()) {
            txn->Write(obj);
          } else {
            txn->Read(obj);
          }
        }
      }
      ops.push_back(seg.txn(it->second).op(op.index));
    }

    AtomicitySpec seg_spec(seg);
    if (!absolute) {
      for (std::size_t a = 0; a < rev.size(); ++a) {
        const std::size_t len = txns.txn(rev[a]).size();
        for (std::size_t b = 0; b < rev.size(); ++b) {
          if (a == b) continue;
          for (std::uint32_t g = 0; g + 1 < len; ++g) {
            if (spec.HasBreakpoint(rev[a], rev[b], g)) {
              seg_spec.SetBreakpoint(static_cast<TxnId>(a),
                                     static_cast<TxnId>(b), g);
            }
          }
        }
      }
    }

    OnlineRsrChecker checker(seg, seg_spec);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const AdmitResult result = checker.TryAppend(ops[i]);
      if (!result.ok()) {
        if (rejection != nullptr) {
          AdmitResult mapped = result;
          mapped.txn = rev[result.txn];
          if (result.witness_arc.valid) {
            const Operation& from = result.witness_arc.from;
            const Operation& to = result.witness_arc.to;
            mapped.witness_arc.from = txns.txn(rev[from.txn]).op(from.index);
            mapped.witness_arc.to = txns.txn(rev[to.txn]).op(to.index);
          }
          *rejection = mapped;
        }
        return start + i;
      }
    }
    start = end;
  }
  return history.size();
}

// The ddmin candidate test with a shared check budget.
class Tester {
 public:
  Tester(const TransactionSet& txns, const AtomicitySpec& spec,
         std::size_t max_checks)
      : txns_(txns), spec_(spec), max_checks_(max_checks) {}

  bool Violates(const std::vector<Operation>& kept) {
    if (checks_ >= max_checks_) return false;  // budget: stop reducing
    ++checks_;
    const ProjectedHistory projected = Project(txns_, spec_, kept);
    return HistoryViolates(projected.txns, projected.spec, projected.ops);
  }

  std::size_t checks() const { return checks_; }

 private:
  const TransactionSet& txns_;
  const AtomicitySpec& spec_;
  std::size_t max_checks_;
  std::size_t checks_ = 0;
};

// Complement-only ddmin over abstract units. `materialize` maps a unit
// subset (order preserved) to the operation sub-history it selects.
// Precondition: materialize(units) violates. Postcondition: the
// returned subset still violates, and (budget permitting) removing any
// single unit no longer does.
std::vector<std::size_t> Ddmin(
    std::vector<std::size_t> units,
    const std::function<std::vector<Operation>(
        const std::vector<std::size_t>&)>& materialize,
    Tester& tester) {
  std::size_t n = 2;
  while (units.size() >= 2) {
    const std::size_t chunk = (units.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < units.size(); start += chunk) {
      std::vector<std::size_t> candidate;
      candidate.reserve(units.size());
      for (std::size_t i = 0; i < units.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(units[i]);
      }
      if (candidate.empty()) continue;
      if (tester.Violates(materialize(candidate))) {
        units = std::move(candidate);
        n = n > 2 ? n - 1 : 2;
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= units.size()) break;  // 1-minimal at unit granularity
      n = std::min(n * 2, units.size());
    }
  }
  return units;
}

}  // namespace

ProjectedHistory Project(const TransactionSet& txns,
                         const AtomicitySpec& spec,
                         const std::vector<Operation>& kept) {
  ProjectedHistory out;
  const std::size_t n = txns.txn_count();

  // Kept original op indices per transaction; ascending because `kept`
  // is a subsequence of a program-order-respecting history.
  std::vector<std::vector<std::uint32_t>> kept_idx(n);
  for (const Operation& op : kept) kept_idx[op.txn].push_back(op.index);

  std::vector<TxnId> new_id(n, kNoTxn);
  for (TxnId t = 0; t < n; ++t) {
    if (kept_idx[t].empty()) continue;
    new_id[t] = static_cast<TxnId>(out.txn_map.size());
    out.txn_map.push_back(t);
  }

  for (const TxnId orig : out.txn_map) {
    Transaction* writer = out.txns.AddTransaction();
    for (const std::uint32_t idx : kept_idx[orig]) {
      const Operation& op = txns.txn(orig).op(idx);
      const ObjectId obj = out.txns.InternObject(txns.ObjectName(op.object));
      if (op.is_write()) {
        writer->Write(obj);
      } else {
        writer->Read(obj);
      }
    }
  }

  // Projected spec: a kept gap is a breakpoint iff any original gap it
  // absorbed was one — op pairs land in the same projected unit iff
  // they shared an original unit, so this is exactly the original
  // atomic-unit structure restricted to the kept operations.
  out.spec = AtomicitySpec(out.txns);
  if (!spec.IsAbsolute()) {
    for (std::size_t i = 0; i < out.txn_map.size(); ++i) {
      const TxnId oi = out.txn_map[i];
      const std::vector<std::uint32_t>& keep = kept_idx[oi];
      for (std::size_t j = 0; j < out.txn_map.size(); ++j) {
        if (i == j) continue;
        const TxnId oj = out.txn_map[j];
        for (std::size_t g = 0; g + 1 < keep.size(); ++g) {
          bool breaks = false;
          for (std::uint32_t og = keep[g]; og < keep[g + 1] && !breaks;
               ++og) {
            breaks = spec.HasBreakpoint(oi, oj, og);
          }
          if (breaks) {
            out.spec.SetBreakpoint(static_cast<TxnId>(i),
                                   static_cast<TxnId>(j),
                                   static_cast<std::uint32_t>(g));
          }
        }
      }
    }
  }

  out.ops.reserve(kept.size());
  for (const Operation& op : kept) {
    const std::vector<std::uint32_t>& keep = kept_idx[op.txn];
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(keep.begin(), keep.end(), op.index) - keep.begin());
    out.ops.push_back(
        out.txns.txn(new_id[op.txn]).op(pos));
  }
  return out;
}

bool HistoryViolates(const TransactionSet& txns, const AtomicitySpec& spec,
                     const std::vector<Operation>& ops) {
  return Scan(txns, spec, ops, nullptr) != ops.size();
}

AuditReport AuditHistory(const TransactionSet& txns,
                         const AtomicitySpec& spec,
                         const std::vector<Operation>& history,
                         const AuditOptions& options) {
  AuditReport report;
  report.history_size = history.size();

  const std::size_t reject_at = Scan(txns, spec, history, &report.rejection);
  if (reject_at == history.size()) {
    report.accepted = true;
    report.ops_checked = history.size();
    return report;
  }
  report.accepted = false;
  report.first_rejection = reject_at;
  report.ops_checked = reject_at + 1;
  if (!options.minimize) return report;

  // Operations after the first rejection cannot matter: the violating
  // prefix (rejected op included) is itself a violating sub-history.
  std::vector<Operation> prefix(history.begin(),
                                history.begin() +
                                    static_cast<std::ptrdiff_t>(reject_at) +
                                    1);
  Tester tester(txns, spec, options.max_checks);

  // Pass 1: transaction granularity.
  std::vector<std::size_t> txn_units;
  {
    std::vector<std::uint8_t> present(txns.txn_count(), 0);
    for (const Operation& op : prefix) present[op.txn] = 1;
    for (std::size_t t = 0; t < present.size(); ++t) {
      if (present[t] != 0) txn_units.push_back(t);
    }
  }
  const auto by_txn = [&prefix, &txns](const std::vector<std::size_t>& keep) {
    std::vector<std::uint8_t> in(txns.txn_count(), 0);
    for (const std::size_t t : keep) in[t] = 1;
    std::vector<Operation> ops;
    for (const Operation& op : prefix) {
      if (in[op.txn] != 0) ops.push_back(op);
    }
    return ops;
  };
  std::vector<Operation> kept = by_txn(Ddmin(txn_units, by_txn, tester));

  // Pass 2: operation granularity, down to 1-minimality.
  std::vector<std::size_t> op_units(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) op_units[i] = i;
  const auto by_pos = [&kept](const std::vector<std::size_t>& keep) {
    std::vector<Operation> ops;
    ops.reserve(keep.size());
    for (const std::size_t i : keep) ops.push_back(kept[i]);
    return ops;
  };
  report.witness_ops = by_pos(Ddmin(op_units, by_pos, tester));
  report.ddmin_checks = tester.checks();

  report.witness = Project(txns, spec, report.witness_ops);
  const std::size_t witness_reject =
      Scan(report.witness.txns, report.witness.spec, report.witness.ops,
           &report.witness_rejection);
  report.minimized = witness_reject != report.witness.ops.size();

  for (const Operation& op : report.witness_ops) {
    if (!report.witness_text.empty()) report.witness_text += ' ';
    report.witness_text += ToString(txns, op);
  }
  return report;
}

bool ExportWitness(const AuditReport& report, const std::string& jsonl_path,
                   const std::string& chrome_path) {
  if (!report.minimized) return false;
  const ProjectedHistory& witness = report.witness;

  Tracer tracer(TraceLevel::kFull);
  OnlineRsrChecker checker(witness.txns, witness.spec);
  checker.set_tracer(&tracer);
  // The trace is a transport for the witness sub-history: every
  // operation is recorded as an admit event so that ingestion
  // reconstructs the full violating history (a reject event would be
  // dropped — rejected operations never happened). The checker's
  // kFull arc events document the cycle, and the admit event of the
  // replay-rejected operation carries the witnessing-arc cause.
  std::vector<std::uint32_t> fed(witness.txns.txn_count(), 0);
  for (std::size_t i = 0; i < witness.ops.size(); ++i) {
    const Operation& op = witness.ops[i];
    tracer.SetTick(i);
    const bool ok = checker.TryAppend(op).ok();
    tracer.RecordAdmit(op, i, 0);
    if (!ok) break;  // the exported prefix is itself a violating history
    if (++fed[op.txn] == witness.txns.txn(op.txn).size()) {
      tracer.RecordCommit(op.txn, i);
    }
  }

  const std::string spec_text = ToString(witness.txns, witness.spec);
  bool ok = WriteTraceJsonl(tracer, witness.txns, jsonl_path, spec_text);
  ok = WriteChromeTrace(tracer, witness.txns, chrome_path) && ok;
  return ok;
}

}  // namespace relser
