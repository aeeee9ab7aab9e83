#include "obs/inspect.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/export.h"
#include "util/json.h"
#include "util/strings.h"

namespace relser {

namespace {

bool IsKnownKind(const std::string& kind) {
  return IsKnownTraceEventKind(kind);
}

// Transaction-level shard events carry a conflict_arc cause reduced to
// the peer transaction (no operation endpoints).
bool IsTxnLevelKind(const std::string& kind) {
  return kind == "cross_shard_arc" || kind == "coordinator_reject";
}

bool IsDecisionKind(const std::string& kind) {
  return kind == "admit" || kind == "delay" || kind == "reject";
}

// Epoch-GC events are transaction-free and informational; all but
// router_swap carry the reclaimed quantity in "count".
bool IsEpochGcKind(const std::string& kind) {
  return kind == "epoch_advance" || kind == "arc_gc" ||
         kind == "version_prune" || kind == "checkpoint" ||
         kind == "router_swap";
}

bool HasNumber(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  return field != nullptr && field->is_number();
}

bool HasString(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  return field != nullptr && field->is_string();
}

// Validates one event object; returns an empty string when OK.
std::string CheckEvent(const JsonValue& event) {
  if (!event.is_object()) return "event is not a JSON object";
  for (const char* key : {"seq", "tick", "txn"}) {
    if (!HasNumber(event, key)) {
      return std::string("missing numeric field \"") + key + "\"";
    }
  }
  if (!HasString(event, "kind")) return "missing string field \"kind\"";
  const std::string& kind = event.Find("kind")->string_value();
  if (!IsKnownKind(kind)) return "unknown kind \"" + kind + "\"";

  const bool needs_op = IsDecisionKind(kind) || kind == "arc";
  if (needs_op) {
    if (!HasString(event, "op")) return kind + " event missing \"op\"";
    if (!HasNumber(event, "op_index")) {
      return kind + " event missing \"op_index\"";
    }
    if (!HasString(event, "op_type")) {
      return kind + " event missing \"op_type\"";
    }
    const std::string& type = event.Find("op_type")->string_value();
    if (type != "r" && type != "w") return "bad op_type \"" + type + "\"";
    if (!HasString(event, "object")) return kind + " missing \"object\"";
  }
  if (IsDecisionKind(kind) && !HasNumber(event, "latency_ns")) {
    return kind + " event missing \"latency_ns\"";
  }
  if (IsEpochGcKind(kind) && kind != "router_swap" &&
      !HasNumber(event, "count")) {
    return kind + " event missing numeric \"count\"";
  }

  const JsonValue* cause = event.Find("cause");
  if (kind == "arc" && cause == nullptr) {
    return "arc event missing \"cause\"";
  }
  if (IsTxnLevelKind(kind) && cause == nullptr) {
    return kind + " event missing \"cause\"";
  }
  if (cause != nullptr) {
    if (!cause->is_object()) return "\"cause\" is not an object";
    if (!HasString(*cause, "kind")) return "cause missing \"kind\"";
    const std::string& ckind = cause->Find("kind")->string_value();
    if (IsTxnLevelKind(kind)) {
      if (ckind != "conflict_arc") {
        return kind + " cause must be conflict_arc, got \"" + ckind + "\"";
      }
      if (!HasNumber(*cause, "peer")) {
        return kind + " cause missing numeric \"peer\"";
      }
    } else if (ckind == "rsg_arc" || ckind == "conflict_arc") {
      for (const char* key : {"arc", "from", "to"}) {
        if (!HasString(*cause, key)) {
          return "arc cause missing \"" + std::string(key) + "\"";
        }
      }
      for (const char* key :
           {"from_txn", "from_index", "to_txn", "to_index"}) {
        if (!HasNumber(*cause, key)) {
          return "arc cause missing numeric \"" + std::string(key) + "\"";
        }
      }
    } else if (ckind == "lock") {
      if (!HasString(*cause, "object")) return "lock cause missing object";
      if (!HasNumber(*cause, "holder")) return "lock cause missing holder";
      const JsonValue* exclusive = cause->Find("exclusive");
      if (exclusive == nullptr || !exclusive->is_bool()) {
        return "lock cause missing boolean \"exclusive\"";
      }
    } else if (ckind == "deadlock") {
      if (!HasNumber(*cause, "holder")) {
        return "deadlock cause missing holder";
      }
    } else if (ckind != "none") {
      return "unknown cause kind \"" + ckind + "\"";
    }
  }
  return {};
}

std::uint64_t U64(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || !field->is_number()) return 0;
  return static_cast<std::uint64_t>(field->number_value());
}

std::string Str(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr || !field->is_string()) return {};
  return field->string_value();
}

// Iterates the non-empty lines of a JSONL document.
template <typename Fn>
void ForEachLine(std::string_view content, Fn&& fn) {
  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    const std::string_view line = content.substr(start, end - start);
    ++line_no;
    if (!line.empty()) fn(line_no, line);
    if (end == content.size()) break;
    start = end + 1;
  }
}

}  // namespace

bool IsKnownTraceEventKind(std::string_view kind) {
  // "shed" and "version_prune" are no longer emitted; they stay
  // accepted so that older v1 trace files still validate.
  return kind == "admit" || kind == "delay" || kind == "reject" ||
         kind == "abort" || kind == "cascade_abort" || kind == "commit" ||
         kind == "arc" || kind == "shed" || kind == "timeout" ||
         kind == "shard_route" || kind == "cross_shard_arc" ||
         kind == "coordinator_reject" || kind == "snapshot_read" ||
         kind == "epoch_advance" || kind == "arc_gc" ||
         kind == "version_prune" || kind == "checkpoint" ||
         kind == "router_swap";
}

TraceValidation ValidateTraceJsonl(std::string_view content) {
  TraceValidation result;
  std::int64_t last_seq = -1;
  bool saw_header = false;
  ForEachLine(content, [&](std::size_t line_no, std::string_view line) {
    ++result.lines;
    if (result.errors.size() >= 20) return;
    const auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      result.errors.push_back("line " + std::to_string(line_no) + ": " +
                              parsed.status().message());
      return;
    }
    const bool is_header =
        parsed->is_object() && Str(*parsed, "kind") == "header";
    if (!saw_header) {
      if (!is_header) {
        result.errors.push_back(
            "line " + std::to_string(line_no) +
            ": first line is not a {\"kind\":\"header\",...} header");
        // Keep validating the rest as events so one missing header
        // does not mask every other problem.
        saw_header = true;
      } else {
        saw_header = true;
        if (!HasNumber(*parsed, "version")) {
          result.errors.push_back("line " + std::to_string(line_no) +
                                  ": header missing numeric \"version\"");
          return;
        }
        result.version = static_cast<std::int64_t>(U64(*parsed, "version"));
        if (result.version != kTraceFormatVersion) {
          result.errors.push_back(
              "line " + std::to_string(line_no) +
              ": unsupported trace version " +
              std::to_string(result.version) + " (this build reads version " +
              std::to_string(kTraceFormatVersion) + ")");
        }
        return;
      }
    } else if (is_header) {
      result.errors.push_back("line " + std::to_string(line_no) +
                              ": duplicate header (only line 1 may be one)");
      return;
    }
    if (const std::string error = CheckEvent(*parsed); !error.empty()) {
      result.errors.push_back("line " + std::to_string(line_no) + ": " +
                              error);
      return;
    }
    const auto seq = static_cast<std::int64_t>(U64(*parsed, "seq"));
    if (seq <= last_seq) {
      result.errors.push_back("line " + std::to_string(line_no) +
                              ": seq not strictly increasing");
    }
    last_seq = seq;
  });
  result.ok = result.errors.empty() && result.lines > 0;
  if (result.lines == 0) result.errors.push_back("empty trace");
  return result;
}

TraceSummary SummarizeTraceJsonl(std::string_view content) {
  TraceSummary summary;
  std::map<std::string, BlockingCauseStat> blocking;
  // Keyed by (txn, op_index); value tracks the op's waiting window.
  std::map<std::pair<std::uint64_t, std::uint64_t>, OpWaitStat> ops;
  std::map<std::uint64_t, TxnWaitStat> txns;
  // Deduplicated coordinator arcs (from, peer), for the durable-arc
  // (tombstone) census.
  std::set<std::pair<std::uint64_t, std::uint64_t>> coordinator_pairs;

  ForEachLine(content, [&](std::size_t /*line_no*/, std::string_view line) {
    const auto parsed = JsonValue::Parse(line);
    if (!parsed.ok() || !parsed->is_object()) return;
    const JsonValue& event = *parsed;
    const std::string kind = Str(event, "kind");
    if (kind == "header") return;
    ++summary.events;
    // Epoch-GC events concern no transaction; tally and move on before
    // the per-transaction bookkeeping below can invent a phantom row.
    if (IsEpochGcKind(kind)) {
      if (kind == "epoch_advance") {
        ++summary.epochs_advanced;
      } else if (kind == "arc_gc") {
        summary.arcs_gcd += U64(event, "count");
      } else if (kind == "version_prune") {
        summary.versions_pruned += U64(event, "count");
      } else if (kind == "checkpoint") {
        ++summary.checkpoints;
      } else {
        ++summary.router_swaps;
      }
      return;
    }
    const std::uint64_t txn = U64(event, "txn");
    const std::uint64_t tick = U64(event, "tick");
    TxnWaitStat& txn_stat = txns[txn];
    txn_stat.txn = txn;

    const JsonValue* cause = event.Find("cause");
    const std::string cause_kind =
        cause != nullptr && cause->is_object() ? Str(*cause, "kind") : "";

    const auto cause_label = [&]() -> std::string {
      if (cause_kind == "rsg_arc" || cause_kind == "conflict_arc") {
        return Str(*cause, "arc") + "-arc " + Str(*cause, "from") + " -> " +
               Str(*cause, "to");
      }
      if (cause_kind == "lock") {
        return "lock " + Str(*cause, "object") + " held by T" +
               std::to_string(U64(*cause, "holder")) +
               (cause->Find("exclusive") != nullptr &&
                        cause->Find("exclusive")->bool_value()
                    ? " (X)"
                    : " (S)");
      }
      if (cause_kind == "deadlock") {
        return "deadlock through T" + std::to_string(U64(*cause, "holder"));
      }
      return "(uncaused)";
    };

    if (kind == "admit" || kind == "delay" || kind == "reject") {
      const auto key = std::make_pair(txn, U64(event, "op_index"));
      auto [it, inserted] = ops.try_emplace(key);
      OpWaitStat& op_stat = it->second;
      if (inserted) {
        op_stat.op = Str(event, "op");
        op_stat.txn = txn;
        op_stat.first_request_tick = tick;
      }
      op_stat.decided_tick = tick;
      if (kind == "admit") {
        ++summary.admits;
        ++txn_stat.admits;
        op_stat.admitted = true;
      } else {
        ++op_stat.delays;
        BlockingCauseStat& cause_stat = blocking[cause_label()];
        cause_stat.label = cause_label();
        const bool arc_cause =
            cause_kind == "rsg_arc" || cause_kind == "conflict_arc";
        if (kind == "delay") {
          ++summary.delays;
          ++txn_stat.delays;
          ++cause_stat.delays;
        } else {
          ++summary.rejects;
          ++txn_stat.rejects;
          ++cause_stat.rejects;
        }
        if (arc_cause) {
          ++txn_stat.delays_on_arcs;
        } else if (cause_kind == "lock" || cause_kind == "deadlock") {
          ++txn_stat.delays_on_locks;
        }
      }
    } else if (kind == "abort") {
      ++summary.aborts;
      txn_stat.aborted = true;
    } else if (kind == "cascade_abort") {
      ++summary.cascade_aborts;
      txn_stat.aborted = true;
    } else if (kind == "commit") {
      ++summary.commits;
      txn_stat.committed = true;
    } else if (kind == "arc") {
      ++summary.arcs;
    } else if (kind == "snapshot_read") {
      ++summary.snapshot_reads;
    } else if (kind == "cross_shard_arc" && cause != nullptr &&
               cause->is_object()) {
      coordinator_pairs.emplace(txn, U64(*cause, "peer"));
    }
  });

  for (const auto& [from, to] : coordinator_pairs) {
    const auto dead = [&](std::uint64_t t) {
      const auto it = txns.find(t);
      return it != txns.end() && it->second.aborted;
    };
    if (dead(from) || dead(to)) {
      ++summary.cross_shard_arcs_dead;
    } else {
      ++summary.cross_shard_arcs_live;
    }
  }

  for (auto& [label, stat] : blocking) {
    if (label != "(uncaused)" || stat.delays + stat.rejects > 0) {
      summary.top_blocking.push_back(stat);
    }
  }
  std::stable_sort(summary.top_blocking.begin(), summary.top_blocking.end(),
                   [](const BlockingCauseStat& a, const BlockingCauseStat& b) {
                     return a.delays + a.rejects > b.delays + b.rejects;
                   });

  for (auto& [key, stat] : ops) {
    if (stat.delays > 0) summary.longest_delayed.push_back(stat);
  }
  std::stable_sort(summary.longest_delayed.begin(),
                   summary.longest_delayed.end(),
                   [](const OpWaitStat& a, const OpWaitStat& b) {
                     return a.wait_ticks() > b.wait_ticks();
                   });

  for (auto& [txn, stat] : txns) {
    summary.per_txn.push_back(stat);
  }
  return summary;
}

std::string RenderTraceSummary(const TraceSummary& summary) {
  std::string out;
  out += "events: " + std::to_string(summary.events) +
         " (admit " + std::to_string(summary.admits) +
         ", delay " + std::to_string(summary.delays) +
         ", reject " + std::to_string(summary.rejects) +
         ", abort " + std::to_string(summary.aborts) +
         ", cascade " + std::to_string(summary.cascade_aborts) +
         ", commit " + std::to_string(summary.commits) +
         ", arc " + std::to_string(summary.arcs) + ")\n";
  if (summary.snapshot_reads > 0) {
    out += "snapshot reads: " + std::to_string(summary.snapshot_reads) +
           " (admitted arc-free from the committed watermark)\n";
  }
  if (summary.cross_shard_arcs_live + summary.cross_shard_arcs_dead > 0) {
    out += "cross-shard durable arcs: " +
           std::to_string(summary.cross_shard_arcs_live) + " live, " +
           std::to_string(summary.cross_shard_arcs_dead) +
           " dead (tombstoned)\n";
  }
  if (summary.epochs_advanced + summary.arcs_gcd + summary.versions_pruned +
          summary.checkpoints + summary.router_swaps >
      0) {
    out += "epoch GC: " + std::to_string(summary.epochs_advanced) +
           " epochs advanced, " + std::to_string(summary.arcs_gcd) +
           " arcs gcd, " + std::to_string(summary.versions_pruned) +
           " versions pruned, " + std::to_string(summary.checkpoints) +
           " checkpoints, " + std::to_string(summary.router_swaps) +
           " router swaps\n";
  }

  out += "\ntop blocking causes:\n";
  std::size_t shown = 0;
  for (const BlockingCauseStat& stat : summary.top_blocking) {
    if (++shown > 10) break;
    out += "  " + std::to_string(stat.delays + stat.rejects) + "x  " +
           stat.label + "  (" + std::to_string(stat.delays) + " delays, " +
           std::to_string(stat.rejects) + " rejects)\n";
  }
  if (summary.top_blocking.empty()) out += "  (none)\n";

  out += "\nlongest-delayed operations:\n";
  shown = 0;
  for (const OpWaitStat& stat : summary.longest_delayed) {
    if (++shown > 10) break;
    out += "  " + stat.op + "  waited " +
           std::to_string(stat.wait_ticks()) + " ticks over " +
           std::to_string(stat.delays) + " retries" +
           (stat.admitted ? "" : " (never admitted)") + "\n";
  }
  if (summary.longest_delayed.empty()) out += "  (none)\n";

  out += "\nper-transaction wait breakdown:\n";
  for (const TxnWaitStat& stat : summary.per_txn) {
    out += "  T" + std::to_string(stat.txn) + ": " +
           std::to_string(stat.admits) + " admits, " +
           std::to_string(stat.delays) + " delays, " +
           std::to_string(stat.rejects) + " rejects (" +
           std::to_string(stat.delays_on_arcs) + " on arcs, " +
           std::to_string(stat.delays_on_locks) + " on locks)" +
           (stat.committed ? ", committed" : "") +
           (stat.aborted ? ", aborted" : "") + "\n";
  }
  return out;
}

}  // namespace relser
