#include "model/transaction.h"

#include "util/strings.h"

namespace relser {

Transaction* TransactionSet::AddTransaction() {
  const auto id = static_cast<TxnId>(txns_.size());
  txns_.emplace_back(id);
  return &txns_.back();
}

ObjectId TransactionSet::InternObject(const std::string& name) {
  const auto it = object_ids_.find(name);
  if (it != object_ids_.end()) return it->second;
  const auto id = static_cast<ObjectId>(object_names_.size());
  object_names_.push_back(name);
  object_ids_.emplace(name, id);
  return id;
}

const std::string& TransactionSet::ObjectName(ObjectId object) const {
  RELSER_CHECK_MSG(object < object_names_.size(),
                   "object id " << object << " out of range");
  return object_names_[object];
}

ObjectId TransactionSet::AddObjects(std::size_t count) {
  const auto first = static_cast<ObjectId>(object_names_.size());
  // Reserving object_names_ too saved little and raised strict-window's
  // peak RSS by 2.4 MB (EXPERIMENTS.md WORDPROJECT).
  object_ids_.reserve(object_ids_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<ObjectId>(object_names_.size());
    // "o<id>", with '_' appended while the name is already interned.
    std::string name(1, 'o');
    name += std::to_string(id);
    while (!object_ids_.try_emplace(name, id).second) name += '_';
    object_names_.push_back(std::move(name));
  }
  return first;
}

Status TransactionSet::Validate() const {
  for (std::size_t i = 0; i < txns_.size(); ++i) {
    const Transaction& txn = txns_[i];
    if (txn.id() != i) {
      return Status::Internal(StrCat("transaction at slot ", i, " has id ",
                                     txn.id()));
    }
    if (txn.empty()) {
      return Status::InvalidArgument(
          StrCat("transaction T", i + 1, " is empty"));
    }
    for (std::size_t j = 0; j < txn.size(); ++j) {
      const Operation& op = txn.op(j);
      if (op.txn != i || op.index != j) {
        return Status::Internal(
            StrCat("operation at T", i + 1, "[", j, "] mislabeled"));
      }
      if (op.object >= object_names_.size()) {
        return Status::Internal(
            StrCat("operation at T", i + 1, "[", j, "] references unknown ",
                   "object ", op.object));
      }
    }
  }
  return Status::Ok();
}

}  // namespace relser
