// AdmitOutcome / AdmitResult: the one decision shape of the admission
// stack.
//
// Before this header, every layer reported admission decisions through a
// different ad-hoc shape — bool returns from OnlineRsrChecker, a
// three-way Decision enum from the simulator schedulers, raw decision
// words inside the admitter. The robustness layer (aborts, backpressure,
// deadlines) needs verdicts none of those shapes can express, so the
// checker, both graph-based schedulers and the sharded admitter now all
// return the same AdmitResult:
//
//   kAccept  — the operation executed; the prefix stays relatively
//              serializable (Theorem 1 applied online).
//   kReject  — certification failed; the witnessing arc (when known) is
//              in `witness_arc`. The issuing transaction is dead.
//   kRetry   — transient refusal: a blocked scheduler request, a full
//              shard inbox (backpressure), or an ineligible fast
//              path. Nothing was recorded; the caller may retry, ideally
//              after a jittered backoff (exec/backoff.h).
//   kAborted — the transaction was aborted: explicitly (AbortTxn), as a
//              cascade over reads-from, or by a scheduler whose
//              certification failure dooms the requester.
//   kTimeout — a deadline-bearing SubmitAndWait expired; the admitter
//              aborts the transaction asynchronously.
//
// AdmitResult converts to bool *contextually* (explicit operator bool),
// so `if (checker.TryAppend(op))` keeps reading naturally while
// accidental arithmetic on a verdict refuses to compile.
#ifndef RELSER_CORE_ADMIT_H_
#define RELSER_CORE_ADMIT_H_

#include <cstdint>
#include <ostream>

#include "model/operation.h"

namespace relser {

/// The unified verdict vocabulary of the admission stack.
enum class AdmitOutcome : std::uint8_t {
  kAccept = 0,
  kReject,
  kRetry,
  kAborted,
  kTimeout,
};

/// Stable lowercase name ("accept", "reject", "retry", "aborted",
/// "timeout").
inline const char* AdmitOutcomeName(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kAccept:
      return "accept";
    case AdmitOutcome::kReject:
      return "reject";
    case AdmitOutcome::kRetry:
      return "retry";
    case AdmitOutcome::kAborted:
      return "aborted";
    case AdmitOutcome::kTimeout:
      return "timeout";
  }
  return "unknown";
}

inline std::ostream& operator<<(std::ostream& os, AdmitOutcome outcome) {
  return os << AdmitOutcomeName(outcome);
}

/// The arc that witnessed a certification failure. For RSG rejections
/// `from`/`to` are exact operations and `arc_kinds` is the core/rsg.h
/// ArcKind bitmask (I=1, D=2, F=4, B=8); for SGT's transaction-level
/// conflict arcs `arc_kinds` is 0 and `from` is the conflicting access.
/// `valid` is false when the deciding layer had no arc to blame (lock
/// conflicts, policy kills, auto-rejects of dead transactions).
struct ArcWitness {
  bool valid = false;
  std::uint8_t arc_kinds = 0;
  Operation from;
  Operation to;
};

/// One admission decision. Returned uniformly by
/// OnlineRsrChecker::TryAppend*, the simulator schedulers' OnRequest,
/// and ShardedAdmitter::{SubmitAndWait,TxnVerdict,AbortTxn}.
struct AdmitResult {
  AdmitOutcome outcome = AdmitOutcome::kAccept;
  ArcWitness witness_arc;
  TxnId txn = 0;

  bool ok() const { return outcome == AdmitOutcome::kAccept; }
  /// Contextual conversion only: `if (result)` works, `int x = result`
  /// does not.
  explicit operator bool() const { return ok(); }

  static AdmitResult Accept(TxnId txn) {
    return AdmitResult{AdmitOutcome::kAccept, {}, txn};
  }
  static AdmitResult Reject(TxnId txn, ArcWitness witness = {}) {
    return AdmitResult{AdmitOutcome::kReject, witness, txn};
  }
  static AdmitResult Retry(TxnId txn) {
    return AdmitResult{AdmitOutcome::kRetry, {}, txn};
  }
  static AdmitResult Aborted(TxnId txn, ArcWitness witness = {}) {
    return AdmitResult{AdmitOutcome::kAborted, witness, txn};
  }
  static AdmitResult Timeout(TxnId txn) {
    return AdmitResult{AdmitOutcome::kTimeout, {}, txn};
  }

  /// Comparing a result against an outcome compares the verdict alone,
  /// keeping call sites as terse as the enum they migrated from.
  friend bool operator==(const AdmitResult& result, AdmitOutcome outcome) {
    return result.outcome == outcome;
  }
};

inline std::ostream& operator<<(std::ostream& os, const AdmitResult& result) {
  return os << AdmitOutcomeName(result.outcome) << "(T" << result.txn + 1
            << ")";
}

}  // namespace relser

#endif  // RELSER_CORE_ADMIT_H_
