#include "model/text.h"

#include <cctype>
#include <cstdint>
#include <limits>

#include "util/strings.h"

namespace relser {

namespace {

// Raw token: r<k>[<name>] or w<k>[<name>], with k 1-based in the text.
struct OpToken {
  OpType type;
  TxnId txn;  // 0-based after parsing
  std::string object_name;
};

// Largest 1-based transaction number: its 0-based id must fit in TxnId.
constexpr std::uint64_t kMaxTxnNumber = std::numeric_limits<TxnId>::max();

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Scans one operation token starting at *pos (skipping leading
// whitespace); advances *pos past the token.
Status ScanOpToken(std::string_view text, std::size_t* pos, OpToken* out) {
  std::size_t i = *pos;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i >= text.size()) {
    return Status::OutOfRange("end of input");
  }
  const char kind = text[i];
  if (kind != 'r' && kind != 'w') {
    return Status::InvalidArgument(
        StrCat("expected 'r' or 'w' at position ", i, ", found '", text[i],
               "'"));
  }
  ++i;
  std::size_t digits_begin = i;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  if (i == digits_begin) {
    return Status::InvalidArgument(
        StrCat("expected transaction number at position ", i));
  }
  std::uint64_t txn_1based = 0;
  for (std::size_t d = digits_begin; d < i; ++d) {
    txn_1based = txn_1based * 10 + static_cast<std::uint64_t>(text[d] - '0');
    if (txn_1based > kMaxTxnNumber) {
      return Status::InvalidArgument(
          StrCat("transaction number out of range at position ",
                 digits_begin));
    }
  }
  if (txn_1based == 0) {
    return Status::InvalidArgument("transaction numbers are 1-based");
  }
  if (i >= text.size() || text[i] != '[') {
    return Status::InvalidArgument(
        StrCat("expected '[' after operation at position ", i));
  }
  ++i;
  std::size_t name_begin = i;
  while (i < text.size() && IsNameChar(text[i])) {
    ++i;
  }
  if (i == name_begin) {
    return Status::InvalidArgument(
        StrCat("expected object name at position ", i));
  }
  if (i >= text.size() || text[i] != ']') {
    return Status::InvalidArgument(
        StrCat("expected ']' at position ", i));
  }
  out->type = kind == 'r' ? OpType::kRead : OpType::kWrite;
  out->txn = static_cast<TxnId>(txn_1based - 1);
  out->object_name.assign(text.substr(name_begin, i - name_begin));
  *pos = i + 1;
  return Status::Ok();
}

// Scans every token in `text`; returns an error on trailing garbage.
Result<std::vector<OpToken>> ScanAllTokens(std::string_view text) {
  std::vector<OpToken> tokens;
  std::size_t pos = 0;
  while (true) {
    OpToken token;
    const Status status = ScanOpToken(text, &pos, &token);
    if (status.code() == StatusCode::kOutOfRange) {
      return tokens;  // clean end of input
    }
    if (!status.ok()) {
      return status;
    }
    tokens.push_back(std::move(token));
  }
}

}  // namespace

Result<TransactionSet> ParseTransactionSet(std::string_view text) {
  TransactionSet set;
  // Split into segments on newline and ';'.
  std::string normalized(text);
  for (char& c : normalized) {
    if (c == ';') c = '\n';
  }
  const std::vector<std::string> lines = StrSplit(normalized, '\n');
  for (const std::string& raw_line : lines) {
    std::string_view line = StrTrim(raw_line);
    if (line.empty()) continue;
    // Optional "Tk =" prefix.
    if (line[0] == 'T') {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument(
            StrCat("transaction line starts with 'T' but has no '=': ",
                   std::string(line)));
      }
      std::string_view label = StrTrim(line.substr(1, eq - 1));
      std::uint64_t declared = 0;
      for (const char c : label) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          return Status::InvalidArgument(
              StrCat("bad transaction label 'T", std::string(label), "'"));
        }
        declared = declared * 10 + static_cast<std::uint64_t>(c - '0');
        if (declared > kMaxTxnNumber) {
          return Status::InvalidArgument(StrCat(
              "transaction label 'T", std::string(label), "' out of range"));
        }
      }
      if (declared != set.txn_count() + 1) {
        return Status::InvalidArgument(
            StrCat("transaction T", declared, " declared out of order ",
                   "(expected T", set.txn_count() + 1, ")"));
      }
      line = line.substr(eq + 1);
    }
    auto tokens = ScanAllTokens(line);
    if (!tokens.ok()) return tokens.status();
    if (tokens->empty()) {
      return Status::InvalidArgument("transaction with no operations");
    }
    if (tokens->size() > kMaxTxnOps) {
      return Status::InvalidArgument(
          StrCat("transaction T", set.txn_count() + 1, " has ",
                 tokens->size(), " operations; at most ", kMaxTxnOps,
                 " are supported"));
    }
    Transaction* txn = set.AddTransaction();
    for (const OpToken& token : *tokens) {
      if (token.txn != txn->id()) {
        return Status::InvalidArgument(
            StrCat("operation of T", token.txn + 1, " inside transaction T",
                   txn->id() + 1));
      }
      const ObjectId object = set.InternObject(token.object_name);
      if (token.type == OpType::kRead) {
        txn->Read(object);
      } else {
        txn->Write(object);
      }
    }
  }
  if (set.txn_count() == 0) {
    return Status::InvalidArgument("no transactions in input");
  }
  RELSER_RETURN_IF_ERROR(set.Validate());
  return set;
}

Result<std::vector<Operation>> ParseOperationList(const TransactionSet& txns,
                                                  std::string_view text) {
  auto tokens = ScanAllTokens(text);
  if (!tokens.ok()) return tokens.status();
  std::vector<Operation> ops;
  ops.reserve(tokens->size());
  // Track per-transaction progress so each token resolves to the next
  // not-yet-seen occurrence of (type, object) in program order. The paper
  // never repeats an identical operation within a transaction, so match
  // the earliest unconsumed program-order occurrence.
  std::vector<std::vector<bool>> used(txns.txn_count());
  for (TxnId t = 0; t < txns.txn_count(); ++t) {
    used[t].assign(txns.txn(t).size(), false);
  }
  for (const OpToken& token : *tokens) {
    if (token.txn >= txns.txn_count()) {
      return Status::InvalidArgument(
          StrCat("unknown transaction T", token.txn + 1));
    }
    const Transaction& txn = txns.txn(token.txn);
    bool found = false;
    for (std::uint32_t j = 0; j < txn.size(); ++j) {
      const Operation& candidate = txn.op(j);
      if (used[token.txn][j]) continue;
      const std::string& name = txns.ObjectName(candidate.object);
      if (candidate.type == token.type && name == token.object_name) {
        ops.push_back(candidate);
        used[token.txn][j] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrCat("operation ", OpTypeName(token.type), token.txn + 1, "[",
                 token.object_name, "] does not match any remaining ",
                 "operation of T", token.txn + 1));
    }
  }
  return ops;
}

Result<std::size_t> CountOperationTokens(std::string_view text) {
  auto tokens = ScanAllTokens(text);
  if (!tokens.ok()) return tokens.status();
  return tokens->size();
}

Result<Schedule> ParseSchedule(const TransactionSet& txns,
                               std::string_view text) {
  auto ops = ParseOperationList(txns, text);
  if (!ops.ok()) return ops.status();
  return Schedule::Over(txns, std::move(*ops));
}

std::string ToString(const TransactionSet& txns, const Operation& op) {
  return OperationToString(op, txns.ObjectName(op.object));
}

std::string ToString(const TransactionSet& txns, const Transaction& txn) {
  std::string out;
  for (const Operation& op : txn.ops()) {
    out += ToString(txns, op);
  }
  return out;
}

std::string ToString(const TransactionSet& txns, const Schedule& schedule) {
  std::string out;
  for (const Operation& op : schedule.ops()) {
    out += ToString(txns, op);
  }
  return out;
}

}  // namespace relser
