// Constant-memory streaming audit: epoch-segmented replay over a pipe.
//
// AuditHistory (audit.h) needs the whole history in memory before it
// can segment. StreamAuditTrace instead consumes the trace line by
// line and retains only the *current* epoch segment: operations are
// buffered until the stream quiesces (no transaction is open — every
// transaction seen so far fed to completion), the buffered segment is
// audited with a fresh checker, and on ACCEPT the buffer is dropped.
// By the cut argument in audit.h this is exact — no RSG cycle spans a
// quiescent cut — so the verdict, the first-rejection index, and the
// minimized witness are identical to the batch auditor's. Peak memory
// is O(transaction set + widest segment), independent of stream
// length, which is what makes `audit --stream` usable on unbounded
// pipes (e.g. `tail -f` of a committed-epoch log).
//
// Streaming requires the relser-trace dialect with header-embedded
// `txns`: operations must be resolvable on arrival. Headerless and
// generic-dialect inputs reconstruct the transaction set from the
// events themselves (memory O(history)) and are rejected; use the
// batch auditor for those.
#ifndef RELSER_AUDIT_STREAM_H_
#define RELSER_AUDIT_STREAM_H_

#include <cstddef>
#include <istream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/ingest.h"
#include "util/status.h"

namespace relser {

struct StreamAuditOptions {
  AuditOptions audit;  ///< minimize / max_checks, as in batch
  /// Force the absolute spec, ignoring any header-embedded one.
  bool spec_absolute = false;
  /// Non-empty: parse this spec text against the header transactions
  /// and audit under it instead of the header spec.
  std::string spec_text;
};

/// The streamed verdict plus the retained violating segment.
struct StreamAuditResult {
  /// Header artifacts: txns, the spec actually audited against,
  /// version, dialect, lines consumed. `header.history` stays empty —
  /// that is the point.
  AuditInput header;

  bool accepted = true;
  std::size_t ops = 0;       ///< admitted operations streamed
  std::size_t segments = 0;  ///< segments audited (fresh checker each)
  /// Peak buffered segment length — the memory high-water in ops.
  std::size_t max_segment_ops = 0;

  // Violation details (meaningful when !accepted). `report` is
  // AuditHistory over `segment_ops`, so its indices are local to the
  // retained segment; `first_rejection` here is the global stream
  // index (segment_start + report.first_rejection).
  std::size_t first_rejection = 0;
  std::size_t segment_start = 0;        ///< global index of segment op 0
  std::vector<Operation> segment_ops;   ///< the violating segment
  AuditReport report;
};

/// Streams a relser-trace from `in`. Stops reading at the first
/// violating segment (the rest of the pipe cannot change the verdict).
/// Returns InvalidArgument for malformed input or a non-streamable
/// dialect.
Result<StreamAuditResult> StreamAuditTrace(
    std::istream& in, const StreamAuditOptions& options = {});

/// StreamAuditTrace over a file ("-" reads stdin).
Result<StreamAuditResult> StreamAuditTraceFile(
    const std::string& path, const StreamAuditOptions& options = {});

}  // namespace relser

#endif  // RELSER_AUDIT_STREAM_H_
