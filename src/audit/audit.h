// The offline relative-serializability auditor: replay a reconstructed
// history through the streaming certifier, and on violation
// delta-debug it down to a minimal witness sub-history.
//
// Checking is Theorem 1 applied per prefix: feed the history through
// OnlineRsrChecker and the first kReject is the earliest operation at
// which the history leaves the relatively-serializable class, with the
// witnessing RSG arc attached.
//
// Long histories are checked by *epoch segmentation*: at any point
// where no transaction is open (every transaction seen so far fed to
// completion), the checker restarts fresh. This is exact, not an
// approximation — every cross-transaction RSG arc (D/F/B, Definition
// 3) runs from the schedule-earlier, depended-on transaction to the
// dependent one, so arcs only cross such a cut forwards and no cycle
// can span it. Committed-epoch logs (the shape real systems emit)
// audit in time linear in length times the cost of their widest
// epoch; a history that never quiesces degrades to one whole-history
// scan.
//
// Minimization is ddmin (Zeller/Hildebrandt) run twice over the
// truncated violating prefix: a transaction-granularity pass (drop
// whole transactions in geometrically shrinking chunks), then an
// operation-granularity pass to 1-minimality (no single remaining
// operation can be dropped). Every candidate sub-history is re-checked
// from scratch: because dropped operations renumber program order and
// shift specification gaps, candidates are *projected* — a fresh
// TransactionSet over the kept operations plus a projected
// AtomicitySpec in which a kept gap is a breakpoint iff any original
// gap it absorbed was one (exactly the restriction of the original
// atomic-unit structure to the kept operations). docs/audit.md walks
// the algorithm and a worked example.
#ifndef RELSER_AUDIT_AUDIT_H_
#define RELSER_AUDIT_AUDIT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/admit.h"
#include "model/transaction.h"
#include "spec/atomicity_spec.h"

namespace relser {

/// A candidate sub-history rebuilt as a first-class checkable artifact.
struct ProjectedHistory {
  TransactionSet txns;   ///< renumbered, kept transactions only
  AtomicitySpec spec;    ///< original units restricted to kept ops
  std::vector<Operation> ops;  ///< the sub-history, projected ids
  std::vector<TxnId> txn_map;  ///< projected txn id -> original txn id
};

/// Projects `kept` (a subsequence of a valid history: per-transaction
/// program-order ascending, original ids) against the original
/// transaction set and spec.
ProjectedHistory Project(const TransactionSet& txns,
                         const AtomicitySpec& spec,
                         const std::vector<Operation>& kept);

/// True iff feeding `ops` through a fresh checker rejects any
/// operation (the ddmin candidate test).
bool HistoryViolates(const TransactionSet& txns, const AtomicitySpec& spec,
                     const std::vector<Operation>& ops);

struct AuditOptions {
  /// Run ddmin on violation. Off: the report stops at first rejection.
  bool minimize = true;
  /// Safety valve: maximum candidate re-checks ddmin may spend. When
  /// exhausted the current (still-violating, possibly non-minimal)
  /// witness is returned.
  std::size_t max_checks = 200000;
};

struct AuditReport {
  bool accepted = false;
  std::size_t history_size = 0;  ///< operations in the input history
  std::size_t ops_checked = 0;   ///< operations fed (≤ history_size)

  // Violation details (meaningful when !accepted).
  std::size_t first_rejection = 0;  ///< history index of the rejected op
  AdmitResult rejection;            ///< verdict + witnessing arc

  // Minimized witness (when !accepted and options.minimize).
  bool minimized = false;
  std::size_t ddmin_checks = 0;        ///< candidate re-checks spent
  std::vector<Operation> witness_ops;  ///< original ids, history order
  ProjectedHistory witness;            ///< self-contained replayable form
  AdmitResult witness_rejection;       ///< rejection on the witness replay
  std::string witness_text;            ///< e.g. "r1[x] r2[y] w1[y] w2[x]"
};

/// Replays `history` (per-transaction program-order contiguous, e.g.
/// from audit/ingest.h) against `spec`; minimizes on violation.
AuditReport AuditHistory(const TransactionSet& txns,
                         const AtomicitySpec& spec,
                         const std::vector<Operation>& history,
                         const AuditOptions& options = {});

/// Replays the minimized witness through a fresh OnlineRsrChecker with
/// a full tracer attached and writes the witness as `jsonl_path` (the
/// versioned JSONL trace, txns + spec embedded in the header; every
/// witness operation is an admit event, the replay-rejected one
/// carrying the witnessing-arc cause, so auditing the file reproduces
/// the violation) and `chrome_path` (Chrome trace_event JSON; load in
/// Perfetto to see the witnessing cycle's arcs). Requires
/// report.minimized. Returns false on I/O failure.
bool ExportWitness(const AuditReport& report, const std::string& jsonl_path,
                   const std::string& chrome_path);

}  // namespace relser

#endif  // RELSER_AUDIT_AUDIT_H_
