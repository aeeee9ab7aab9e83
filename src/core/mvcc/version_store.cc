#include "core/mvcc/version_store.h"

#include <algorithm>

namespace relser {

void VersionStore::Append(FlatLists* lists, const std::vector<ObjectId>& objs) {
  lists->flat.insert(lists->flat.end(), objs.begin(), objs.end());
  lists->offsets.push_back(static_cast<std::uint32_t>(lists->flat.size()));
}

VersionStore::VersionStore(const TransactionSet& txns)
    : read_only_(txns.txn_count(), 0),
      unfinished_writers_(txns.object_count()),
      finished_(txns.txn_count()),
      escalated_(txns.txn_count()) {
  reads_.offsets.push_back(0);
  writes_.offsets.push_back(0);
  for (auto& counter : unfinished_writers_) {
    counter.store(0, std::memory_order_relaxed);
  }
  for (std::size_t t = 0; t < txns.txn_count(); ++t) {
    finished_[t].store(0, std::memory_order_relaxed);
    escalated_[t].store(0, std::memory_order_relaxed);
    std::vector<ObjectId> reads;
    std::vector<ObjectId> writes;
    for (const Operation& op : txns.txn(static_cast<TxnId>(t)).ops()) {
      (op.is_read() ? reads : writes).push_back(op.object);
    }
    auto dedupe = [](std::vector<ObjectId>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedupe(&reads);
    dedupe(&writes);
    read_only_[t] = writes.empty() ? 1 : 0;
    for (ObjectId obj : writes) {
      unfinished_writers_[obj].fetch_add(1, std::memory_order_relaxed);
    }
    Append(&reads_, reads);
    Append(&writes_, writes);
  }
}

bool VersionStore::ReadSetSettled(TxnId txn) const {
  const std::uint32_t begin = reads_.offsets[txn];
  const std::uint32_t end = reads_.offsets[txn + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    if (unfinished_writers_[reads_.flat[i]].load(std::memory_order_acquire) !=
        0) {
      return false;
    }
  }
  return true;
}

void VersionStore::NoteCommit(TxnId txn) {
  if (finished_[txn].exchange(1, std::memory_order_acq_rel) != 0) return;
  watermark_.fetch_add(1, std::memory_order_release);
  // The release decrement is what a classifying reader acquires: once it
  // reads zero, this commit's watermark bump is visible.
  const std::uint32_t begin = writes_.offsets[txn];
  const std::uint32_t end = writes_.offsets[txn + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    unfinished_writers_[writes_.flat[i]].fetch_sub(1,
                                                   std::memory_order_release);
  }
}

void VersionStore::NoteAbort(TxnId txn) {
  if (finished_[txn].exchange(1, std::memory_order_acq_rel) != 0) return;
  const std::uint32_t begin = writes_.offsets[txn];
  const std::uint32_t end = writes_.offsets[txn + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    unfinished_writers_[writes_.flat[i]].fetch_sub(1,
                                                   std::memory_order_release);
  }
}

void VersionStore::LogSnapshotAdmit(TxnId txn, std::uint64_t epoch,
                                    std::uint64_t stamp) {
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    admit_log_.push_back(SnapshotAdmitRecord{txn, epoch, stamp});
  }
  snapshot_admits_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SnapshotAdmitRecord> VersionStore::SnapshotAdmits() const {
  std::vector<SnapshotAdmitRecord> out;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    out = admit_log_;
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotAdmitRecord& a, const SnapshotAdmitRecord& b) {
              return a.stamp < b.stamp;
            });
  return out;
}

void VersionStore::TakeSettledAdmits(const std::atomic<std::uint8_t>* settled,
                                     std::vector<SnapshotAdmitRecord>* out) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  std::size_t kept = 0;
  for (const SnapshotAdmitRecord& rec : admit_log_) {
    if (settled[rec.txn].load(std::memory_order_relaxed) != 0) {
      out->push_back(rec);
    } else {
      admit_log_[kept++] = rec;
    }
  }
  admit_log_.resize(kept);
}

bool VersionStore::TryCountEscalation(TxnId txn) {
  if (escalated_[txn].exchange(1, std::memory_order_relaxed) != 0) {
    return false;
  }
  snapshot_escalations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace relser
