// Deterministic fault-injection plans for the admission front-end.
//
// A FaultPlan is a *pure function* of (seed, identifiers): every query —
// "does transaction t stall before its k-th operation?", "is t aborted
// mid-stream, and after which op?", "does the admission core pause at
// decision step s?" — is answered by deriving a child generator with
// Rng::Split chains, never by advancing shared state. Two consequences:
//
//   * Plans are thread-safe by construction (all queries are const) and
//     independent of interleaving: a pool of 8 clients and a pool of 1
//     see byte-identical fault schedules for the same seed, which is
//     what makes fault runs replayable and tests/fault_test.cc's
//     determinism check meaningful.
//   * Faults compose freely with the checker's own determinism: a fault
//     run is fully described by (workload seed, plan seed, grid point).
//
// The injected fault vocabulary matches the robustness layer's threat
// model (docs/robustness.md): client stalls (latency jitter), dropped
// submissions (a client dies mid-transaction and its transaction must be
// aborted to unwedge the frontier), mid-stream voluntary aborts, and
// admission-core pauses (certifier hiccups that exercise backpressure).
#ifndef RELSER_EXEC_FAULTPLAN_H_
#define RELSER_EXEC_FAULTPLAN_H_

#include <cstdint>
#include <optional>

#include "model/operation.h"
#include "util/rng.h"

namespace relser {

/// Tuning knobs; probabilities are per-decision-site, in [0, 1].
struct FaultPlanParams {
  double stall_prob = 0.0;       ///< chance an op's submission stalls
  double drop_prob = 0.0;        ///< chance an op's submission is dropped
  double abort_prob = 0.0;       ///< chance a txn self-aborts mid-stream
  double core_pause_prob = 0.0;  ///< chance a decision step pauses the core
  std::uint32_t max_stall_us = 200;      ///< stall duration ∈ [1, max]
  std::uint32_t max_core_pause_us = 50;  ///< pause duration ∈ [1, max]
};

/// What a client must do before submitting one operation.
struct OpFault {
  std::uint32_t stall_us = 0;  ///< sleep this long first (0 = none)
  bool drop = false;  ///< abandon the submission; the client must then
                      ///< abort the transaction (program-order feeding
                      ///< means later ops of the txn could never commit)
};

/// Seeded, immutable, pure-query fault schedule. Copyable; queries are
/// const and safe to call concurrently from any number of clients.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed, FaultPlanParams params = {})
      : base_(seed), params_(params) {}

  const FaultPlanParams& params() const { return params_; }

  /// The fault (if any) for transaction `txn`'s `index`-th operation.
  OpFault ForOp(TxnId txn, std::uint32_t index) const;

  /// If transaction `txn` (with `txn_size` operations) self-aborts, the
  /// number of operations it submits before doing so (in [1, txn_size-1]);
  /// nullopt when it runs to completion. Single-op transactions never
  /// self-abort mid-stream (there is no "mid").
  std::optional<std::uint32_t> AbortAfter(TxnId txn,
                                          std::uint32_t txn_size) const;

  /// How long the admission core pauses after its `step`-th decision
  /// (0 = no pause). Keyed by the core's decided-op count, which is a
  /// deterministic function of the admission order actually taken.
  std::uint32_t CorePauseUs(std::uint64_t step) const;

 private:
  // Domain-separation tags so the three query families draw from
  // disjoint child streams of the same base generator.
  static constexpr std::uint64_t kOpFamily = 0x01;
  static constexpr std::uint64_t kAbortFamily = 0x02;
  static constexpr std::uint64_t kCoreFamily = 0x03;

  Rng base_{0};  // never advanced; all queries go through Split (const)
  FaultPlanParams params_;
};

}  // namespace relser

#endif  // RELSER_EXEC_FAULTPLAN_H_
