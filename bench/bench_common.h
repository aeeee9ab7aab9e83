// Helpers shared by the bench binaries: wall-clock spans, an
// nth_element percentile, and the committed-log replay gate.
#ifndef RELSER_BENCH_BENCH_COMMON_H_
#define RELSER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/online.h"
#include "shard/sharded_admitter.h"

namespace relser {

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

inline double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The element at index size * percent / 100 (clamped to the last) of
/// `values` in sorted order, found by nth_element; T{} when empty.
template <typename T>
T Percentile(std::vector<T> values, std::size_t percent) {
  if (values.empty()) return T{};
  const std::size_t nth =
      std::min(values.size() * percent / 100, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(nth),
                   values.end());
  return values[nth];
}

/// Verdict of the committed-log replay gate.
struct ReplayVerdict {
  std::size_t committed = 0;  ///< transactions the admitter committed
  bool sound = true;     ///< the log re-admits through a fresh checker
  bool complete = true;  ///< it holds exactly the committed transactions
};

/// The committed-log replay gate: `committed_log` (the admitter's
/// CommittedLog()) must replay relatively serializably through a fresh
/// OnlineRsrChecker over the original set, and must hold every
/// operation of each committed transaction and none of any other.
inline ReplayVerdict ReplayCommittedLog(
    const ShardedAdmitter& admitter, const TransactionSet& txns,
    const AtomicitySpec& spec, const std::vector<Operation>& committed_log) {
  ReplayVerdict verdict;
  OnlineRsrChecker replay(txns, spec);
  std::vector<std::uint32_t> ops_of(txns.txn_count(), 0);
  for (const Operation& op : committed_log) {
    if (!replay.TryAppend(op)) {
      verdict.sound = false;
      break;
    }
    ++ops_of[op.txn];
  }
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    if (admitter.TxnCommitted(t)) {
      ++verdict.committed;
      if (ops_of[t] != txns.txn(t).size()) verdict.complete = false;
    } else if (ops_of[t] != 0) {
      verdict.complete = false;  // an uncommitted op leaked into the log
    }
  }
  return verdict;
}

}  // namespace relser

#endif  // RELSER_BENCH_BENCH_COMMON_H_
