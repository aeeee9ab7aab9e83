#include "obs/export.h"

#include "model/text.h"
#include "util/json.h"

namespace relser {

namespace {

std::string OpString(const Operation& op, const TransactionSet& txns) {
  return OperationToString(op, txns.ObjectName(op.object));
}

bool IsDecision(TraceEventKind kind) {
  return kind == TraceEventKind::kAdmit || kind == TraceEventKind::kDelay ||
         kind == TraceEventKind::kReject;
}

// Transaction-level events carry a conflict_arc cause whose only
// payload is the peer transaction in `holder` — the from/to Operation
// fields are meaningless for them and must not be rendered.
bool IsTxnLevel(TraceEventKind kind) {
  return kind == TraceEventKind::kCrossShardArc ||
         kind == TraceEventKind::kCoordinatorReject;
}

// Epoch-GC events concern no transaction (txn is emitted as 0, meaning
// "none") and carry the reclaimed quantity in `count`.
bool IsEpochGcKind(TraceEventKind kind) {
  return kind == TraceEventKind::kEpochAdvance ||
         kind == TraceEventKind::kArcGc ||
         kind == TraceEventKind::kCheckpoint ||
         kind == TraceEventKind::kRouterSwap;
}

bool HasCause(const TraceEvent& event) {
  return event.cause.kind != TraceCauseKind::kNone ||
         !event.cause.note.empty();
}

// Emits the "cause" object (shared by the JSONL and Chrome exporters).
void EmitCause(JsonWriter& json, const TraceEvent& event,
               const TransactionSet& txns) {
  const TraceCause& cause = event.cause;
  json.BeginObject();
  json.Key("kind");
  json.String(TraceCauseKindName(cause.kind));
  switch (cause.kind) {
    case TraceCauseKind::kRsgArc:
    case TraceCauseKind::kConflictArc:
      if (IsTxnLevel(event.kind)) {
        json.Key("peer");
        json.Uint(cause.holder + 1);
        break;
      }
      json.Key("arc");
      json.String(TraceArcKindsToString(cause.arc_kinds));
      json.Key("from");
      json.String(OpString(cause.from, txns));
      json.Key("from_txn");
      json.Uint(cause.from.txn + 1);
      json.Key("from_index");
      json.Uint(cause.from.index);
      json.Key("to");
      json.String(OpString(cause.to, txns));
      json.Key("to_txn");
      json.Uint(cause.to.txn + 1);
      json.Key("to_index");
      json.Uint(cause.to.index);
      break;
    case TraceCauseKind::kLock:
      json.Key("object");
      json.String(txns.ObjectName(cause.object));
      json.Key("holder");
      json.Uint(cause.holder + 1);
      json.Key("exclusive");
      json.Bool(cause.exclusive);
      break;
    case TraceCauseKind::kDeadlock:
      json.Key("holder");
      json.Uint(cause.holder + 1);
      break;
    case TraceCauseKind::kNone:
      break;
  }
  if (!cause.note.empty()) {
    json.Key("explain");
    json.String(cause.note);
  }
  json.EndObject();
}

}  // namespace

bool ObjectNameEmbeddable(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

bool TransactionSetEmbeddable(const TransactionSet& txns) {
  for (ObjectId o = 0; o < txns.object_count(); ++o) {
    if (!ObjectNameEmbeddable(txns.ObjectName(o))) return false;
  }
  return true;
}

std::string TransactionSetToText(const TransactionSet& txns) {
  std::string out;
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    out += 'T';
    out += std::to_string(t + 1);
    out += " = ";
    out += ToString(txns, txns.txn(t));
    out += '\n';
  }
  return out;
}

std::string TraceToJsonl(const Tracer& tracer, const TransactionSet& txns,
                         std::string_view spec_text) {
  std::string out;
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("kind");
    json.String("header");
    json.Key("version");
    json.Uint(static_cast<std::uint64_t>(kTraceFormatVersion));
    json.Key("format");
    json.String("relser-trace");
    json.Key("txn_count");
    json.Uint(txns.txn_count());
    json.Key("events");
    json.Uint(tracer.events().size());
    json.Key("b_arcs_implied");
    json.Uint(tracer.counters().b_arcs_implied);
    if (TransactionSetEmbeddable(txns)) {
      json.Key("txns");
      json.String(TransactionSetToText(txns));
      if (!spec_text.empty()) {
        json.Key("spec");
        json.String(spec_text);
      }
    }
    json.EndObject();
    out += json.str();
    out += '\n';
  }
  for (const TraceEvent& event : tracer.events()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("seq");
    json.Uint(event.seq);
    json.Key("tick");
    json.Uint(event.tick);
    json.Key("kind");
    json.String(TraceEventKindName(event.kind));
    json.Key("txn");
    // Printed 1-based, like the paper's T1; epoch-GC events concern no
    // transaction and print 0.
    json.Uint(IsEpochGcKind(event.kind) ? 0 : event.txn + 1);
    if (IsEpochGcKind(event.kind) && event.kind != TraceEventKind::kRouterSwap) {
      json.Key("count");
      json.Uint(event.count);
    }
    if (event.has_op) {
      json.Key("op");
      json.String(OpString(event.op, txns));
      json.Key("op_index");
      json.Uint(event.op.index);
      json.Key("op_type");
      json.String(event.op.is_write() ? "w" : "r");
      json.Key("object");
      json.String(txns.ObjectName(event.op.object));
    }
    if (IsDecision(event.kind)) {
      json.Key("latency_ns");
      json.Uint(event.latency_ns);
    }
    if (HasCause(event)) {
      json.Key("cause");
      EmitCause(json, event, txns);
    }
    json.EndObject();
    out += json.str();
    out += '\n';
  }
  return out;
}

bool WriteTraceJsonl(const Tracer& tracer, const TransactionSet& txns,
                     const std::string& path, std::string_view spec_text) {
  // WriteJsonFile appends a final newline; strip ours to avoid a blank
  // trailing line.
  std::string content = TraceToJsonl(tracer, txns, spec_text);
  if (!content.empty() && content.back() == '\n') content.pop_back();
  return WriteJsonFile(path, content);
}

std::string TraceToChromeJson(const Tracer& tracer,
                              const TransactionSet& txns) {
  // One microsecond-scale column per tick: tick t spans [10t, 10t+10).
  const auto tick_us = [](std::uint64_t tick) { return tick * 10; };

  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();

  json.BeginObject();
  json.Key("name");
  json.String("process_name");
  json.Key("ph");
  json.String("M");
  json.Key("pid");
  json.Uint(1);
  json.Key("args");
  json.BeginObject();
  json.Key("name");
  json.String("relser scheduler run");
  json.EndObject();
  json.EndObject();

  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    json.BeginObject();
    json.Key("name");
    json.String("thread_name");
    json.Key("ph");
    json.String("M");
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(t + 1);
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    std::string lane = "T";
    lane += std::to_string(t + 1);
    json.String(lane);
    json.EndObject();
    json.EndObject();
  }

  for (const TraceEvent& event : tracer.events()) {
    json.BeginObject();
    json.Key("name");
    std::string name = TraceEventKindName(event.kind);
    if (event.has_op) {
      name = OpString(event.op, txns) + " " + name;
    }
    json.String(name);
    json.Key("cat");
    json.String(TraceEventKindName(event.kind));
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(event.txn + 1);
    json.Key("ts");
    json.Uint(tick_us(event.tick));
    if (IsDecision(event.kind)) {
      json.Key("ph");
      json.String("X");  // complete slice spanning most of the tick
      json.Key("dur");
      json.Uint(8);
    } else {
      json.Key("ph");
      json.String("i");  // instant: arcs, commits, aborts
      json.Key("s");
      json.String("t");
    }
    json.Key("args");
    json.BeginObject();
    json.Key("seq");
    json.Uint(event.seq);
    json.Key("tick");
    json.Uint(event.tick);
    if (IsDecision(event.kind)) {
      json.Key("latency_ns");
      json.Uint(event.latency_ns);
    }
    if (HasCause(event)) {
      json.Key("cause");
      EmitCause(json, event, txns);
    }
    json.EndObject();
    json.EndObject();
  }

  json.EndArray();
  json.EndObject();
  return json.str();
}

bool WriteChromeTrace(const Tracer& tracer, const TransactionSet& txns,
                      const std::string& path) {
  return WriteJsonFile(path, TraceToChromeJson(tracer, txns));
}

}  // namespace relser
