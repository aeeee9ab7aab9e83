// Minimal JSON emission and parsing.
//
// JsonWriter started life as the bench perf-trajectory emitter and
// moved here so the observability layer (src/obs/) can reuse it for
// trace snapshots, JSONL event logs and the Chrome trace_event
// exporter. The writer is deliberately tiny: objects, arrays, strings,
// numbers and booleans, with automatic comma placement and string
// escaping. Non-finite doubles are emitted as null (JSON has no NaN).
//
// JsonValue is the matching reader: a recursive-descent parser for the
// documents this repository itself produces (trace_inspect validates
// JSONL traces with it; scripts/ci.sh cross-checks with python3). It
// accepts standard JSON; numbers are held as double plus the raw text.
#ifndef RELSER_UTIL_JSON_H_
#define RELSER_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace relser {

/// Streaming JSON builder. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("ops"); w.Int(1000);
///   w.Key("sizes"); w.BeginArray(); w.Int(1); w.Int(2); w.EndArray();
///   w.EndObject();
///   WriteJsonFile("BENCH_x.json", w.str());
class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  /// Emits an object key; the next value call provides its value.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(std::int64_t value);
  void Uint(std::uint64_t value);
  /// Finite doubles with up to 6 significant decimals; NaN/Inf -> null.
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// The serialized document so far.
  const std::string& str() const { return out_; }

 private:
  void Open(char bracket);
  void Close(char bracket);
  void BeforeValue();
  void Escape(std::string_view value);

  std::string out_;
  // One entry per open container: true when the next element needs a
  // leading comma. A pending Key suppresses the comma of its value.
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// Writes `content` to `path` atomically enough for bench use (truncate +
/// write + flush). Returns false on any I/O failure.
bool WriteJsonFile(const std::string& path, const std::string& content);

/// Nearest ancestor of the current directory containing `marker`
/// (i.e. the repository root when run from anywhere inside the repo);
/// empty string when no ancestor qualifies.
std::string FindRepoRoot(const std::string& marker = "ROADMAP.md");

/// Emits a perf-trajectory artifact. Writes `content` to `filename` in the
/// current directory only, so a bench run from a build directory leaves
/// the committed root BENCH_*.json files alone. When `tag` — or, if `tag`
/// is empty, the RELSER_BENCH_TAG environment variable — is non-empty and
/// the repository root can be located (see FindRepoRoot), additionally
/// snapshots to `<root>/bench/trajectory/<stem>_<tag>.json`, the committed
/// perf-trajectory record. Returns false if any write fails.
bool WriteBenchJsonFile(const std::string& filename,
                        const std::string& content,
                        const std::string& tag = "");

/// A parsed JSON document node.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document (rejects trailing garbage).
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return items_; }

  /// Object member by key; nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // string payload or raw number text
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace relser

#endif  // RELSER_UTIL_JSON_H_
