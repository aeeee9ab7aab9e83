// Randomized workload generation: transaction sets, schedules, and
// schedule perturbations.
//
// The paper reports no machine experiments; its claims about concurrency
// and class containment are exercised here with synthetic workloads whose
// knobs (transaction length, object count, access skew, read ratio)
// mirror standard concurrency-control simulation studies. All generation
// is deterministic given the Rng.
#ifndef RELSER_WORKLOAD_GENERATOR_H_
#define RELSER_WORKLOAD_GENERATOR_H_

#include <cstdint>

#include "model/schedule.h"
#include "model/transaction.h"
#include "util/rng.h"

namespace relser {

/// Knobs for GenerateTransactions.
struct WorkloadParams {
  std::size_t txn_count = 4;
  std::size_t min_ops_per_txn = 2;   ///< inclusive
  std::size_t max_ops_per_txn = 6;   ///< inclusive
  std::size_t object_count = 8;
  double zipf_theta = 0.0;           ///< 0 = uniform object choice
  double read_ratio = 0.5;           ///< probability an access is a read
  /// Avoid a transaction touching the same object twice in a row (makes
  /// small random workloads less degenerate).
  bool avoid_immediate_repeat = true;
  /// Read-only transaction ratio (the MVCC snapshot fast-path knob).
  /// Negative (default) = legacy generation: every access draws
  /// read_ratio independently, preserving the exact rng stream older
  /// revisions produced. >= 0 activates the reader/writer split: each
  /// transaction is read-only (all accesses reads) with this
  /// probability, and every non-selected transaction is guaranteed at
  /// least one write (its last access is flipped when sampling produced
  /// none) — so ratio 0.0 means "0% read-only", the bit-identity
  /// baseline of mvcc_test's lock-step cases, and 0.95 means the
  /// read-heavy web-traffic shape.
  double read_only_txn_ratio = -1.0;
};

/// Generates a random transaction set.
TransactionSet GenerateTransactions(const WorkloadParams& params, Rng* rng);

/// Uniformly random interleaving of all operations of `txns` (each
/// distinct interleaving is equally likely).
Schedule RandomSchedule(const TransactionSet& txns, Rng* rng);

/// Serial schedule over a uniformly random transaction permutation.
Schedule RandomSerialSchedule(const TransactionSet& txns, Rng* rng);

/// Starts from `base` and applies up to `swaps` random adjacent
/// transpositions of operations from different transactions, yielding
/// schedules "near" the base — the regime where membership in the
/// correctness classes is most informative for the Figure 5 census.
Schedule PerturbSchedule(const TransactionSet& txns, const Schedule& base,
                         std::size_t swaps, Rng* rng);

}  // namespace relser

#endif  // RELSER_WORKLOAD_GENERATOR_H_
