#include "audit/ingest.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "model/text.h"
#include "obs/export.h"
#include "obs/inspect.h"
#include "spec/text.h"
#include "util/json.h"

namespace relser {

namespace {

// String concatenation via append: sidesteps GCC 12's -Wrestrict false
// positive (PR 105329) on operator+ chains over std::to_string.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

Status LineError(std::size_t line_no, const std::string& what) {
  return Status::InvalidArgument(
      Cat("line ", std::to_string(line_no), ": ", what));
}

const JsonValue* FindNumber(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  return field != nullptr && field->is_number() ? field : nullptr;
}

const JsonValue* FindString(const JsonValue& obj, const char* key) {
  const JsonValue* field = obj.Find(key);
  return field != nullptr && field->is_string() ? field : nullptr;
}

std::string Str(const JsonValue& obj, const char* key) {
  const JsonValue* field = FindString(obj, key);
  return field != nullptr ? field->string_value() : std::string();
}

// Incremental TransactionSet builder shared by both dialects: appends
// one admitted operation, enforcing per-transaction program-order
// contiguity.
class HistoryBuilder {
 public:
  // `txn` is the dense 0-based id, `index` the claimed program-order
  // index (or kNextIndex for "whatever comes next").
  static constexpr std::uint32_t kNextIndex = ~static_cast<std::uint32_t>(0);

  Status Append(TxnId txn, std::uint32_t index, bool is_write,
                const std::string& object, std::size_t line_no) {
    while (txns_.txn_count() <= txn) {
      writers_.push_back(txns_.AddTransaction());
    }
    Transaction* writer = writers_[txn];
    const auto next = static_cast<std::uint32_t>(writer->size());
    if (index == kNextIndex) index = next;
    if (index != next) {
      if (index < next) {
        return LineError(
            line_no,
            Cat("T", std::to_string(txn + 1), " re-admits op ",
                std::to_string(index),
                " (restarting traces are not auditable; use a replay or "
                "committed-history trace)"));
      }
      return LineError(line_no,
                       Cat("T", std::to_string(txn + 1), " skips from op ",
                           std::to_string(next), " to op ",
                           std::to_string(index),
                           " (program order must be contiguous)"));
    }
    if (next == kMaxTxnOps) {
      return LineError(line_no,
                       Cat("T", std::to_string(txn + 1), " exceeds ",
                           std::to_string(kMaxTxnOps),
                           " operations, the longest transaction the "
                           "checker accepts"));
    }
    const ObjectId obj = txns_.InternObject(object);
    const std::uint32_t got =
        is_write ? writer->Write(obj) : writer->Read(obj);
    history_.push_back(writer->op(got));
    return Status::Ok();
  }

  TransactionSet& txns() { return txns_; }
  std::vector<Operation>& history() { return history_; }

 private:
  TransactionSet txns_;
  std::vector<Transaction*> writers_;
  std::vector<Operation> history_;
};

// Parses one relser-trace event line; only "admit" events mutate state.
// When `header_txns` is non-null the admit is resolved against it
// instead of the builder.
Status ConsumeTraceEvent(const JsonValue& event, std::size_t line_no,
                         const TransactionSet* header_txns,
                         std::vector<std::uint32_t>* fed,
                         HistoryBuilder* builder,
                         std::vector<Operation>* history) {
  const std::string kind = Str(event, "kind");
  if (kind.empty()) return LineError(line_no, "event missing \"kind\"");
  if (kind == "header") {
    return LineError(line_no, "duplicate header (only line 1 may be one)");
  }
  if (kind != "admit") {
    // Skipped kinds must still be kinds this format version defines: a
    // kind we do not know could carry history we would silently drop.
    if (!IsKnownTraceEventKind(kind)) {
      return LineError(line_no, Cat("unknown event kind \"", kind,
                                    "\" (docs/trace-format.md, version 1)"));
    }
    return Status::Ok();
  }

  const JsonValue* txn_field = FindNumber(event, "txn");
  if (txn_field == nullptr) {
    return LineError(line_no, "admit event missing numeric \"txn\"");
  }
  const double txn_raw = txn_field->number_value();
  if (txn_raw < 1) return LineError(line_no, "admit \"txn\" must be >= 1");
  const auto txn = static_cast<TxnId>(txn_raw) - 1;

  const JsonValue* index_field = FindNumber(event, "op_index");
  if (index_field == nullptr) {
    return LineError(line_no, "admit event missing numeric \"op_index\"");
  }
  const auto index = static_cast<std::uint32_t>(index_field->number_value());

  const std::string type = Str(event, "op_type");
  if (type != "r" && type != "w") {
    return LineError(line_no, "admit \"op_type\" must be \"r\" or \"w\"");
  }

  if (header_txns != nullptr) {
    if (txn >= header_txns->txn_count()) {
      return LineError(
          line_no,
          Cat("admit names T", std::to_string(txn + 1),
              " but the header declares only ",
              std::to_string(header_txns->txn_count()), " transactions"));
    }
    const Transaction& decl = header_txns->txn(txn);
    if (index >= decl.size()) {
      return LineError(line_no,
                       Cat("admit op_index ", std::to_string(index),
                           " out of range for T", std::to_string(txn + 1)));
    }
    const Operation& op = decl.op(index);
    if (op.is_write() != (type == "w")) {
      return LineError(line_no,
                       "admit op_type contradicts the header transaction");
    }
    if ((*fed)[txn] != index) {
      if (index < (*fed)[txn]) {
        return LineError(line_no,
                         Cat("T", std::to_string(txn + 1), " re-admits op ",
                             std::to_string(index),
                             " (restarting traces are not auditable)"));
      }
      return LineError(line_no,
                       Cat("T", std::to_string(txn + 1), " admits op ",
                           std::to_string(index), " before op ",
                           std::to_string((*fed)[txn])));
    }
    ++(*fed)[txn];
    history->push_back(op);
    return Status::Ok();
  }

  const std::string object = Str(event, "object");
  if (object.empty()) {
    return LineError(line_no, "admit event missing string \"object\"");
  }
  return builder->Append(txn, index, type == "w", object, line_no);
}

// Parses one generic-dialect line.
Status ConsumeGenericEvent(const JsonValue& event, std::size_t line_no,
                           std::unordered_map<std::uint64_t, TxnId>* remap,
                           HistoryBuilder* builder) {
  const JsonValue* txn_field = FindNumber(event, "txn");
  if (txn_field == nullptr) {
    return LineError(line_no, "missing numeric \"txn\"");
  }
  if (txn_field->number_value() < 0) {
    return LineError(line_no, "\"txn\" must be non-negative");
  }
  const auto label = static_cast<std::uint64_t>(txn_field->number_value());
  const auto [it, inserted] =
      remap->try_emplace(label, static_cast<TxnId>(remap->size()));
  const TxnId txn = it->second;
  (void)inserted;

  std::uint32_t index = HistoryBuilder::kNextIndex;
  if (const JsonValue* op_field = event.Find("op"); op_field != nullptr) {
    if (!op_field->is_number() || op_field->number_value() < 0) {
      return LineError(line_no, "\"op\" must be a non-negative number");
    }
    index = static_cast<std::uint32_t>(op_field->number_value());
  }

  const std::string rw = Str(event, "rw");
  if (rw != "r" && rw != "w") {
    return LineError(line_no, "\"rw\" must be \"r\" or \"w\"");
  }

  std::string object;
  if (const JsonValue* obj_field = event.Find("object");
      obj_field != nullptr) {
    if (obj_field->is_string()) {
      object = obj_field->string_value();
    } else if (obj_field->is_number()) {
      object = Cat("o", std::to_string(static_cast<std::uint64_t>(
                              obj_field->number_value())));
    }
  }
  if (object.empty()) {
    return LineError(line_no, "missing \"object\" (string or number)");
  }
  return builder->Append(txn, index, rw == "w", object, line_no);
}

// Parses a validated {"kind":"header"} line: checks the version and
// fills out->version plus out->txns / out->spec (and the
// *_from_header flags) when the header embeds them.
Status ParseTraceHeader(const JsonValue& event, std::size_t line_no,
                        AuditInput* out) {
  const JsonValue* version = FindNumber(event, "version");
  if (version == nullptr) {
    return LineError(line_no, "header missing numeric \"version\"");
  }
  out->version = static_cast<std::int64_t>(version->number_value());
  if (out->version != kTraceFormatVersion) {
    return LineError(
        line_no,
        Cat("unsupported trace version ", std::to_string(out->version),
            " (this build reads version ",
            std::to_string(kTraceFormatVersion), ")"));
  }
  if (const JsonValue* txns_text = FindString(event, "txns");
      txns_text != nullptr) {
    auto parsed_txns = ParseTransactionSet(txns_text->string_value());
    if (!parsed_txns.ok()) {
      return LineError(line_no, "header \"txns\" unparseable: " +
                                    parsed_txns.status().message());
    }
    out->txns = std::move(parsed_txns).value();
    out->txns_from_header = true;
    if (const JsonValue* spec_text = FindString(event, "spec");
        spec_text != nullptr) {
      auto parsed_spec =
          ParseAtomicitySpec(out->txns, spec_text->string_value());
      if (!parsed_spec.ok()) {
        return LineError(line_no, "header \"spec\" unparseable: " +
                                      parsed_spec.status().message());
      }
      out->spec = std::move(parsed_spec).value();
      out->spec_from_header = true;
    }
  } else if (event.Find("spec") != nullptr) {
    return LineError(line_no, "header embeds \"spec\" without \"txns\"");
  }
  return Status::Ok();
}

}  // namespace

Result<AuditInput> IngestHistory(std::istream& in,
                                 const IngestOptions& options) {
  AuditInput out;
  TraceDialect dialect = options.dialect;

  // Header-declared artifacts (relser-trace dialect only).
  bool have_header_txns = false;
  std::vector<std::uint32_t> fed;  // per-txn next expected op_index
  std::unordered_map<std::uint64_t, TxnId> remap;  // generic txn labels
  HistoryBuilder builder;

  std::string line;
  std::size_t line_no = 0;
  bool saw_first = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ++out.lines;
    const auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      return LineError(line_no, parsed.status().message());
    }
    if (!parsed->is_object()) {
      return LineError(line_no, "line is not a JSON object");
    }
    const JsonValue& event = *parsed;

    if (!saw_first) {
      saw_first = true;
      const bool is_header = Str(event, "kind") == "header";
      if (dialect == TraceDialect::kAuto) {
        if (is_header) {
          dialect = TraceDialect::kRelserTrace;
        } else if (event.Find("rw") != nullptr) {
          dialect = TraceDialect::kGeneric;
        } else {
          return LineError(line_no,
                           "cannot determine dialect: first line is neither "
                           "a relser-trace header nor a generic {\"txn\","
                           "\"object\",\"rw\"} event");
        }
      }
      out.dialect = dialect;
      if (dialect == TraceDialect::kRelserTrace) {
        if (!is_header) {
          return LineError(line_no,
                           "relser-trace input must start with a "
                           "{\"kind\":\"header\",\"version\":1,...} line");
        }
        RELSER_RETURN_IF_ERROR(ParseTraceHeader(event, line_no, &out));
        have_header_txns = out.txns_from_header;
        if (have_header_txns) fed.assign(out.txns.txn_count(), 0);
        continue;  // header consumed
      }
      // Generic dialect: fall through and consume this line as an event.
    }

    if (dialect == TraceDialect::kRelserTrace) {
      RELSER_RETURN_IF_ERROR(ConsumeTraceEvent(
          event, line_no, have_header_txns ? &out.txns : nullptr, &fed,
          &builder, &out.history));
    } else {
      RELSER_RETURN_IF_ERROR(
          ConsumeGenericEvent(event, line_no, &remap, &builder));
    }
  }

  if (out.lines == 0) {
    return Status::InvalidArgument("empty input (no non-empty lines)");
  }
  if (!have_header_txns) {
    out.txns = std::move(builder.txns());
    out.history = std::move(builder.history());
    // A transaction id mentioned nowhere would leave an empty
    // transaction behind, which no checker accepts.
    for (TxnId t = 0; t < out.txns.txn_count(); ++t) {
      if (out.txns.txn(t).empty()) {
        return Status::InvalidArgument(
            Cat("transaction T", std::to_string(t + 1),
                " has no admitted operations; cannot reconstruct its "
                "program"));
      }
    }
  }
  if (out.history.empty()) {
    return Status::InvalidArgument("no admitted operations in input");
  }
  if (!out.spec_from_header) {
    out.spec = AtomicitySpec(out.txns);  // absolute default
  }
  return out;
}

Status StreamTraceHistory(
    std::istream& in, AuditInput* header,
    const std::function<Status(const AuditInput&)>& on_header,
    const std::function<bool(const Operation&, std::size_t line_no)>& on_op) {
  *header = AuditInput{};
  header->dialect = TraceDialect::kRelserTrace;

  std::vector<std::uint32_t> fed;
  std::vector<Operation> scratch;  // ConsumeTraceEvent's one-op output slot
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    ++header->lines;
    const auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      return LineError(line_no, parsed.status().message());
    }
    if (!parsed->is_object()) {
      return LineError(line_no, "line is not a JSON object");
    }
    const JsonValue& event = *parsed;
    if (!saw_header) {
      saw_header = true;
      if (Str(event, "kind") != "header") {
        return LineError(line_no,
                         "streaming requires a relser-trace header line "
                         "(generic-dialect histories cannot stream: their "
                         "transaction set is only known at end of input)");
      }
      RELSER_RETURN_IF_ERROR(ParseTraceHeader(event, line_no, header));
      if (!header->txns_from_header) {
        return LineError(line_no,
                         "streaming requires header-embedded \"txns\" "
                         "(without them operations cannot be resolved "
                         "until end of input)");
      }
      if (!header->spec_from_header) {
        header->spec = AtomicitySpec(header->txns);  // absolute default
      }
      fed.assign(header->txns.txn_count(), 0);
      RELSER_RETURN_IF_ERROR(on_header(*header));
      continue;
    }
    // header_txns is always non-null here, so the builder path inside
    // ConsumeTraceEvent (headerless reconstruction) is unreachable.
    RELSER_RETURN_IF_ERROR(ConsumeTraceEvent(event, line_no, &header->txns,
                                             &fed, /*builder=*/nullptr,
                                             &scratch));
    if (!scratch.empty()) {
      const Operation op = scratch.front();
      scratch.clear();
      if (!on_op(op, line_no)) return Status::Ok();  // caller stopped early
    }
  }
  if (header->lines == 0) {
    return Status::InvalidArgument("empty input (no non-empty lines)");
  }
  return Status::Ok();
}

Result<AuditInput> IngestHistoryText(std::string_view content,
                                     const IngestOptions& options) {
  std::istringstream in{std::string(content)};
  return IngestHistory(in, options);
}

Result<AuditInput> IngestHistoryFile(const std::string& path,
                                     const IngestOptions& options) {
  if (path == "-") return IngestHistory(std::cin, options);
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return IngestHistory(in, options);
}

}  // namespace relser
