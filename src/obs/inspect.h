// Offline analysis of JSONL traces (obs/export.h's format).
//
// ValidateTraceJsonl is the executable form of the schema documented in
// docs/trace-format.md: the version-1 header line is required, every
// required field of every event kind is checked, and unknown versions
// are rejected — so tests, scripts/ci.sh, tools/trace_inspect --check,
// and tools/audit all gate on the same validator and "the trace a build
// produces is the trace the docs promise". SummarizeTraceJsonl computes
// the aggregates tools/trace_inspect prints: top blocking arcs,
// longest-delayed operations, and the per-transaction wait breakdown.
#ifndef RELSER_OBS_INSPECT_H_
#define RELSER_OBS_INSPECT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace relser {

/// Result of a schema validation pass; `errors` lists one human-readable
/// message per violating line (capped at 20).
struct TraceValidation {
  bool ok = false;
  std::size_t lines = 0;       ///< non-empty lines seen (header included)
  std::int64_t version = -1;   ///< declared header version; -1 when absent
  std::vector<std::string> errors;
};

/// Validates one JSONL document against the versioned trace schema: the
/// first line must be a `{"kind":"header","version":1,...}` header
/// (unknown versions are rejected), every following line one event.
TraceValidation ValidateTraceJsonl(std::string_view content);

/// True iff `kind` is an event kind of the current trace format version
/// (docs/trace-format.md). Shared by the validator and audit/ingest.h so
/// both reject kinds this build does not know.
bool IsKnownTraceEventKind(std::string_view kind);

/// One aggregated blocking cause: a witnessing arc (or lock) and how
/// many delay/reject decisions cited it.
struct BlockingCauseStat {
  std::string label;   ///< e.g. "F r1[z] -> r2[x]" or "lock x held by T2"
  std::uint64_t delays = 0;
  std::uint64_t rejects = 0;
};

/// One operation's waiting profile.
struct OpWaitStat {
  std::string op;            ///< rendered operation, e.g. "r2[x]"
  std::uint64_t txn = 0;     ///< 1-based
  std::uint64_t delays = 0;  ///< times the request was delayed/rejected
  std::uint64_t first_request_tick = 0;
  std::uint64_t decided_tick = 0;  ///< admit tick (or last event tick)
  bool admitted = false;
  /// decided_tick - first_request_tick (0 when never delayed).
  std::uint64_t wait_ticks() const {
    return decided_tick - first_request_tick;
  }
};

/// Per-transaction roll-up.
struct TxnWaitStat {
  std::uint64_t txn = 0;  ///< 1-based
  std::uint64_t admits = 0;
  std::uint64_t delays = 0;
  std::uint64_t rejects = 0;
  std::uint64_t delays_on_arcs = 0;   ///< rsg_arc / conflict_arc causes
  std::uint64_t delays_on_locks = 0;  ///< lock / deadlock causes
  bool committed = false;
  bool aborted = false;
};

/// Everything trace_inspect prints.
struct TraceSummary {
  std::uint64_t events = 0;
  std::uint64_t admits = 0;
  std::uint64_t delays = 0;
  std::uint64_t rejects = 0;
  std::uint64_t aborts = 0;
  std::uint64_t cascade_aborts = 0;
  std::uint64_t commits = 0;
  std::uint64_t arcs = 0;
  std::uint64_t snapshot_reads = 0;  ///< arc-free snapshot admissions
  /// The header's `b_arcs_implied` counter (0 when absent).
  std::uint64_t b_arcs_implied = 0;
  // Cross-shard durable-arc census reconstructed from cross_shard_arc
  // events (deduplicated from->peer pairs): an arc is *dead* (tombstone)
  // when either endpoint transaction aborted, live otherwise.
  std::uint64_t cross_shard_arcs_live = 0;
  std::uint64_t cross_shard_arcs_dead = 0;
  // Epoch/watermark GC activity (informational events; `arcs_gcd` and
  // `versions_pruned` sum the per-event `count` payloads; only older
  // traces carry `version_prune` events).
  std::uint64_t epochs_advanced = 0;
  std::uint64_t arcs_gcd = 0;
  std::uint64_t versions_pruned = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t router_swaps = 0;
  std::vector<BlockingCauseStat> top_blocking;  ///< most-cited first
  std::vector<OpWaitStat> longest_delayed;      ///< largest wait first
  std::vector<TxnWaitStat> per_txn;             ///< by transaction id
};

/// Aggregates a (previously validated) JSONL trace. Unparseable lines
/// are skipped.
TraceSummary SummarizeTraceJsonl(std::string_view content);

/// Renders the summary as the human-readable report the CLI prints.
std::string RenderTraceSummary(const TraceSummary& summary);

}  // namespace relser

#endif  // RELSER_OBS_INSPECT_H_
