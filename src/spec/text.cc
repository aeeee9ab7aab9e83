#include "spec/text.h"

#include <cctype>

#include "model/text.h"
#include "spec/builders.h"
#include "util/strings.h"

namespace relser {

namespace {

// Parses "Atomicity(T<i>,T<j>):" and returns the remainder of the line.
Status ParseHeader(std::string_view line, std::size_t txn_count, TxnId* i,
                   TxnId* j, std::string_view* body) {
  constexpr std::string_view kPrefix = "Atomicity(T";
  if (!StartsWith(line, kPrefix)) {
    return Status::InvalidArgument(
        StrCat("expected 'Atomicity(T...' in: ", std::string(line)));
  }
  std::size_t pos = kPrefix.size();
  auto parse_number = [&](TxnId* out) -> Status {
    std::size_t value = 0;
    std::size_t digits = 0;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
      value = value * 10 + static_cast<std::size_t>(line[pos] - '0');
      ++pos;
      ++digits;
      // Stop before the accumulator can wrap back into range.
      if (value > txn_count) break;
    }
    if (digits == 0 || value == 0 || value > txn_count) {
      return Status::InvalidArgument(
          StrCat("bad transaction number in: ", std::string(line)));
    }
    *out = static_cast<TxnId>(value - 1);
    return Status::Ok();
  };
  RELSER_RETURN_IF_ERROR(parse_number(i));
  if (pos + 1 >= line.size() || line[pos] != ',' || line[pos + 1] != 'T') {
    return Status::InvalidArgument(
        StrCat("expected ',T' in: ", std::string(line)));
  }
  pos += 2;
  RELSER_RETURN_IF_ERROR(parse_number(j));
  if (pos + 1 >= line.size() || line[pos] != ')' || line[pos + 1] != ':') {
    return Status::InvalidArgument(
        StrCat("expected '):' in: ", std::string(line)));
  }
  *body = line.substr(pos + 2);
  return Status::Ok();
}

}  // namespace

Result<AtomicitySpec> ParseAtomicitySpec(const TransactionSet& txns,
                                         std::string_view text) {
  AtomicitySpec spec(txns);
  const std::vector<std::string> lines = StrSplit(std::string(text), '\n');
  for (const std::string& raw_line : lines) {
    const std::string_view line = StrTrim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    TxnId i = 0;
    TxnId j = 0;
    std::string_view body;
    RELSER_RETURN_IF_ERROR(ParseHeader(line, txns.txn_count(), &i, &j, &body));
    if (i == j) {
      return Status::InvalidArgument(
          StrCat("Atomicity(T", i + 1, ",T", i + 1, ") is not defined"));
    }
    // Resolve the whole line's operations at once (so repeated identical
    // operations map to successive program-order occurrences), deriving
    // the unit lengths from per-segment token counts.
    const std::vector<std::string> segments = StrSplit(std::string(body), '|');
    std::vector<std::uint32_t> unit_lengths;
    std::string flattened;
    for (const std::string& segment : segments) {
      auto count = CountOperationTokens(segment);
      if (!count.ok()) return count.status();
      if (*count == 0) {
        return Status::InvalidArgument(
            StrCat("empty atomic unit in: ", std::string(line)));
      }
      unit_lengths.push_back(static_cast<std::uint32_t>(*count));
      flattened += segment;
      flattened += ' ';
    }
    auto ops = ParseOperationList(txns, flattened);
    if (!ops.ok()) return ops.status();
    std::uint32_t cursor = 0;
    for (const Operation& op : *ops) {
      if (op.txn != i) {
        return Status::InvalidArgument(
            StrCat("operation of T", op.txn + 1, " in Atomicity(T", i + 1,
                   ",T", j + 1, ")"));
      }
      if (op.index != cursor) {
        return Status::InvalidArgument(
            StrCat("operations of Atomicity(T", i + 1, ",T", j + 1,
                   ") out of program order (op index ", op.index,
                   ", expected ", cursor, ")"));
      }
      ++cursor;
    }
    if (cursor != txns.txn(i).size()) {
      return Status::InvalidArgument(
          StrCat("Atomicity(T", i + 1, ",T", j + 1, ") covers ", cursor,
                 " of ", txns.txn(i).size(), " operations"));
    }
    SetUnitsByLength(&spec, i, j, unit_lengths);
  }
  return spec;
}

std::string AtomicityLineToString(const TransactionSet& txns,
                                  const AtomicitySpec& spec, TxnId i,
                                  TxnId j) {
  std::string out = StrCat("Atomicity(T", i + 1, ",T", j + 1, "): ");
  const std::vector<UnitRange> units = spec.Units(i, j);
  for (std::size_t k = 0; k < units.size(); ++k) {
    if (k > 0) out += " | ";
    for (std::uint32_t idx = units[k].first; idx <= units[k].last; ++idx) {
      out += ToString(txns, txns.txn(i).op(idx));
    }
  }
  return out;
}

std::string ToString(const TransactionSet& txns, const AtomicitySpec& spec) {
  std::string out;
  for (TxnId i = 0; i < spec.txn_count(); ++i) {
    for (TxnId j = 0; j < spec.txn_count(); ++j) {
      if (i == j) continue;
      out += AtomicityLineToString(txns, spec, i, j);
      out += '\n';
    }
  }
  return out;
}

}  // namespace relser
