#include "storage/txn.h"

#include <chrono>

namespace stagedb::storage {

// ------------------------------------------------------------ LockManager ---

// Both acquire paths re-look-up the TableLock after every wait: ReleaseAll
// erases entries that become fully unlocked, so a reference held across
// cv_.wait_until would dangle.

Status LockManager::AcquireShared(TxnId txn, int32_t table_id) {
  MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros_);
  while (true) {
    TableLock& l = locks_[table_id];
    if (l.shared.count(txn) || l.exclusive == txn) return Status::OK();
    if (CanGrantShared(l, txn)) {
      l.shared.insert(txn);
      return Status::OK();
    }
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      return Status::Aborted("lock timeout (possible deadlock)");
    }
  }
}

Status LockManager::AcquireExclusive(TxnId txn, int32_t table_id) {
  MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros_);
  while (true) {
    TableLock& l = locks_[table_id];
    if (l.exclusive == txn) return Status::OK();
    if (CanGrantExclusive(l, txn)) {
      l.shared.erase(txn);  // upgrade
      l.exclusive = txn;
      return Status::OK();
    }
    // Register as a waiting writer while blocked so new readers queue
    // behind us; ReleaseAll keeps entries with waiting writers alive, so
    // the re-lookup after the wait always finds this entry.
    ++l.waiting_writers;
    const auto wait = cv_.WaitUntil(mu_, deadline);
    --locks_[table_id].waiting_writers;
    if (wait == std::cv_status::timeout) {
      cv_.NotifyAll();  // readers held back by us may now be grantable
      return Status::Aborted("lock timeout (possible deadlock)");
    }
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  MutexLock lock(mu_);
  for (auto it = locks_.begin(); it != locks_.end();) {
    TableLock& l = it->second;
    l.shared.erase(txn);
    if (l.exclusive == txn) l.exclusive = -1;
    if (l.shared.empty() && l.exclusive == -1 && l.waiting_writers == 0) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
  cv_.NotifyAll();
}

size_t LockManager::locked_tables() const {
  MutexLock lock(mu_);
  return locks_.size();
}

// ----------------------------------------------------- TransactionManager ---

TxnId TransactionManager::AllocateTxnId() {
  MutexLock lock(mu_);
  return next_txn_++;
}

Status TransactionManager::Recover(RecoveryApplier* applier,
                                   RecoveryStats* stats) {
  {
    // Idempotence guard: the Database ctor and explicit callers may both try
    // to recover; only the first pass replays.
    MutexLock lock(mu_);
    if (recovery_done_) return Status::OK();
    recovery_done_ = true;
  }
  std::set<TxnId> committed;
  for (TxnId id : wal_->CommittedTxns()) committed.insert(id);
  std::set<TxnId> begun;
  TxnId max_txn = 0;
  Ts max_ts = 0;
  RecoveryStats local;
  Status replay = wal_->Replay([&](const WalRecord& r) -> Status {
    if (r.txn_id > max_txn) max_txn = r.txn_id;
    switch (r.type) {
      case WalRecord::Type::kBegin:
        begun.insert(r.txn_id);
        return Status::OK();
      case WalRecord::Type::kCommit:
        // COMMIT records carry the MVCC commit timestamp; the
        // high-water mark is restored below so post-restart commits (and the
        // begin=0 bootstrap versions installed by replay) order correctly.
        if (r.ts > max_ts) max_ts = r.ts;
        return Status::OK();
      case WalRecord::Type::kAbort:
        return Status::OK();
      case WalRecord::Type::kCreateTable:
      case WalRecord::Type::kCreateIndex:
      case WalRecord::Type::kDropTable:
        // DDL is auto-committed at append time; always replayed so the
        // schema exists before the row records that reference it.
        ++local.ddl_records;
        ++local.applied_records;
        return applier->ApplyDdl(r);
      case WalRecord::Type::kInsert:
      case WalRecord::Type::kDelete:
      case WalRecord::Type::kUpdate:
        break;
    }
    if (committed.count(r.txn_id) == 0) return Status::OK();  // loser
    ++local.applied_records;
    switch (r.type) {
      case WalRecord::Type::kInsert:
        return applier->ApplyInsert(r.table_id, r.after);
      case WalRecord::Type::kDelete:
        return applier->ApplyDelete(r.table_id, r.before);
      default:
        return applier->ApplyUpdate(r.table_id, r.before, r.after);
    }
  });
  STAGEDB_RETURN_IF_ERROR(replay);
  for (TxnId id : begun) {
    if (committed.count(id)) {
      ++local.committed_txns;
    } else {
      ++local.loser_txns;
    }
  }
  {
    // New transactions must not reuse ids that appear in the log.
    MutexLock lock(mu_);
    if (max_txn + 1 > next_txn_) next_txn_ = max_txn + 1;
  }
  if (max_ts > 0) RestoreTimestampHighWater(max_ts);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

// ------------------------------------------------- MVCC timestamp protocol --

Ts TransactionManager::BeginSnapshot() {
  MutexLock lock(mvcc_mu_);
  const Ts snap = last_committed_;
  active_snaps_.insert(snap);
  return snap;
}

void TransactionManager::ReleaseSnapshot(Ts snapshot) {
  MutexLock lock(mvcc_mu_);
  auto it = active_snaps_.find(snapshot);
  if (it != active_snaps_.end()) active_snaps_.erase(it);
}

Ts TransactionManager::last_committed() const {
  MutexLock lock(mvcc_mu_);
  return last_committed_;
}

Ts TransactionManager::AllocateCommitTs() {
  MutexLock lock(mvcc_mu_);
  const Ts cts = ++next_cts_;
  pending_cts_.insert(cts);
  return cts;
}

Status TransactionManager::FinalizeCommit(
    MvccTxn* txn, Ts cts,
    const std::function<HeapFile*(int32_t)>& heap_for) {
  MutexLock lock(mvcc_mu_);
  // Publish strictly oldest-first: a commit whose timestamp is not yet the
  // minimum pending one waits, so last_committed_ (and therefore every new
  // snapshot) always covers a prefix of the commit order.
  while (!pending_cts_.empty() && *pending_cts_.begin() != cts) {
    commit_cv_.Wait(mvcc_mu_);
  }
  Status status;
  int64_t committed_deletes = 0;
  for (const MvccWrite& w : txn->writes) {
    HeapFile* heap = heap_for(w.table_id);
    if (heap == nullptr) {
      if (status.ok()) status = Status::NotFound("finalize: unknown table");
      continue;
    }
    std::string record;
    Status s = heap->Get(w.rid, &record);
    if (s.ok() && record.size() < kVersionHeaderSize) {
      s = Status::Internal("finalize: record shorter than version header");
    }
    if (s.ok()) {
      VersionHeader h = DecodeVersionHeader(record);
      if (w.op == MvccWriteOp::kInsert && h.begin == -txn->id) h.begin = cts;
      if (w.op == MvccWriteOp::kMarkDelete && h.end == -txn->id) {
        h.end = cts;
        ++committed_deletes;
      }
      s = heap->OverwritePrefix(w.rid, EncodeVersionHeader(h));
    }
    if (!s.ok() && status.ok()) status = s;
  }
  pending_cts_.erase(cts);
  last_committed_ =
      pending_cts_.empty() ? next_cts_ : *pending_cts_.begin() - 1;
  commit_cv_.NotifyAll();
  if (committed_deletes > 0) {
    dead_versions_.fetch_add(committed_deletes, std::memory_order_relaxed);
  }
  return status;
}

Status TransactionManager::MarkDeleteVersion(MvccTxn* txn, int32_t table_id,
                                             HeapFile* heap, const Rid& rid) {
  MutexLock lock(mvcc_mu_);
  std::string record;
  STAGEDB_RETURN_IF_ERROR(heap->Get(rid, &record));
  if (record.size() < kVersionHeaderSize) {
    return Status::Internal("mark-delete: record shorter than version header");
  }
  VersionHeader h = DecodeVersionHeader(record);
  if (h.end != kMaxTs) {
    // Someone else deleted this version: either still uncommitted (end is a
    // -txn_id marker) or committed after our snapshot (any committed end we
    // can observe on a version we read as live is necessarily > snapshot).
    // First updater wins; we lose.
    return Status::Aborted("write-write conflict");
  }
  h.end = -txn->id;
  STAGEDB_RETURN_IF_ERROR(heap->OverwritePrefix(rid, EncodeVersionHeader(h)));
  MvccWrite w;
  w.table_id = table_id;
  w.rid = rid;
  w.op = MvccWriteOp::kMarkDelete;
  txn->writes.push_back(std::move(w));
  return Status::OK();
}

Ts TransactionManager::VacuumHorizon() const {
  MutexLock lock(mvcc_mu_);
  return active_snaps_.empty() ? last_committed_ : *active_snaps_.begin();
}

void TransactionManager::RestoreTimestampHighWater(Ts ts) {
  MutexLock lock(mvcc_mu_);
  if (ts > next_cts_) next_cts_ = ts;
  if (ts > last_committed_) last_committed_ = ts;
}

}  // namespace stagedb::storage
