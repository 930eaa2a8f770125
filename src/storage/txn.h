// Transaction support for the multi-version storage: transaction ids, the
// commit-timestamp authority that snapshots are built from, logical redo of
// the WAL at recovery, and a table-granularity shared/exclusive lock manager.
// Row undo is not here: a failed statement or ROLLBACK undoes its MvccTxn's
// write set through the catalog (Catalog::MvccAbort).
#ifndef STAGEDB_STORAGE_TXN_H_
#define STAGEDB_STORAGE_TXN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/heap_file.h"
#include "storage/mvcc.h"
#include "storage/wal.h"

namespace stagedb::storage {

/// Table-granularity shared/exclusive lock manager. Deadlocks are resolved by
/// timing out the waiter (the caller aborts its transaction), the same policy
/// family as SHORE's timeout-based detection. Database uses it as the DDL
/// barrier: DML holds its target table shared until its transaction ends, and
/// CREATE INDEX / DROP TABLE take it exclusive.
class LockManager {
 public:
  explicit LockManager(int64_t timeout_micros = 200000)
      : timeout_micros_(timeout_micros) {}

  Status AcquireShared(TxnId txn, int32_t table_id);
  Status AcquireExclusive(TxnId txn, int32_t table_id);
  void ReleaseAll(TxnId txn);

  /// Number of distinct tables currently locked (for tests/monitoring).
  size_t locked_tables() const;

 private:
  struct TableLock {
    std::set<TxnId> shared;
    TxnId exclusive = -1;  // -1 = none
    // Writers currently blocked in AcquireExclusive. New readers queue
    // behind them (writer preference): without this, a steady stream of
    // overlapping shared scans starves DML forever.
    int waiting_writers = 0;
  };

  bool CanGrantShared(const TableLock& l, TxnId txn) const REQUIRES(mu_) {
    return (l.exclusive == -1 || l.exclusive == txn) &&
           l.waiting_writers == 0;
  }
  bool CanGrantExclusive(const TableLock& l, TxnId txn) const REQUIRES(mu_) {
    const bool only_self_shared =
        l.shared.empty() ||
        (l.shared.size() == 1 && l.shared.count(txn) == 1);
    return (l.exclusive == -1 || l.exclusive == txn) && only_self_shared;
  }

  const int64_t timeout_micros_;
  mutable Mutex mu_;
  CondVar cv_;
  std::map<int32_t, TableLock> locks_ GUARDED_BY(mu_);
};

/// Receives replayed operations during recovery. Database supplies an
/// applier that routes through the catalog so indexes and statistics stay
/// consistent (and DDL records can rebuild the schema before row replay).
class RecoveryApplier {
 public:
  virtual ~RecoveryApplier() = default;
  /// Called for kCreateTable/kCreateIndex/kDropTable records, in lsn order.
  virtual Status ApplyDdl(const WalRecord& record) = 0;
  virtual Status ApplyInsert(int32_t table_id, const std::string& row) = 0;
  /// `before` identifies the victim row by image (rids are re-assigned).
  virtual Status ApplyDelete(int32_t table_id, const std::string& before) = 0;
  virtual Status ApplyUpdate(int32_t table_id, const std::string& before,
                             const std::string& after) = 0;
};

/// Counters describing one recovery pass (for logs/tests).
struct RecoveryStats {
  int64_t committed_txns = 0;  // txns whose effects were replayed
  int64_t loser_txns = 0;      // txns begun but never committed (skipped)
  int64_t applied_records = 0;
  int64_t ddl_records = 0;
};

/// Hands out transaction ids, is the catalog's commit-timestamp authority,
/// and replays the WAL at startup. Statements and explicit transactions are
/// MvccTxns; the WAL records they log are written by the SQL layer.
class TransactionManager {
 public:
  explicit TransactionManager(WriteAheadLog* wal) : wal_(wal) {}

  /// Hands out a fresh transaction id, disjoint from every id in the
  /// replayed log.
  TxnId AllocateTxnId();

  /// Logical redo: replays committed transactions' operations through
  /// `applier` (required), and fills `stats` when non-null. DDL records are
  /// always replayed; row records only for committed transactions; losers
  /// (begun, never committed) are skipped.
  ///
  /// Idempotent: a second call is a no-op returning OK, so "recover twice"
  /// equals "recover once" even if startup paths overlap.
  Status Recover(RecoveryApplier* applier, RecoveryStats* stats);

  // --- MVCC (snapshot isolation) -----------------------------------------
  //
  // The manager is the catalog's timestamp authority:
  // AllocateCommitTs hands out commit timestamps in commit order and marks
  // them pending; FinalizeCommit publishes them strictly oldest-first, so
  // last_committed() (the value snapshots are built from) never exposes a
  // suffix of a group-commit batch before its prefix.

  /// Registers a reader snapshot and returns its timestamp. The read of
  /// last_committed() and the registration are atomic, so the vacuum horizon
  /// can never advance past a snapshot that is about to start reading.
  Ts BeginSnapshot();
  /// Deregisters a snapshot returned by BeginSnapshot (exactly once).
  void ReleaseSnapshot(Ts snapshot);
  /// Largest published commit timestamp.
  Ts last_committed() const;

  /// Allocates the next commit timestamp and marks it pending.
  Ts AllocateCommitTs();
  /// Publishes `cts`: waits until it is the oldest pending commit, rewrites
  /// the transaction's uncommitted -txn_id markers to `cts` (resolving heap
  /// files through `heap_for`), then advances last_committed(). Returns the
  /// first rewrite error, but always unblocks later commits.
  Status FinalizeCommit(MvccTxn* txn, Ts cts,
                        const std::function<HeapFile*(int32_t)>& heap_for);

  /// First-updater-wins delete mark: atomically checks that the version at
  /// `rid` is live (end == kMaxTs) and stamps end = -txn->id, recording the
  /// write in txn->writes. Any other end value means another transaction
  /// deleted it first (committed-after-snapshot or still in flight), so the
  /// caller must abort: returns Aborted("write-write conflict").
  Status MarkDeleteVersion(MvccTxn* txn, int32_t table_id, HeapFile* heap,
                           const Rid& rid);

  /// Oldest live snapshot, or last_committed() when none: every version
  /// whose committed end <= horizon is invisible to all present and future
  /// readers and may be physically reclaimed.
  Ts VacuumHorizon() const;

  /// Recovery hook: raises the commit-timestamp high-water mark so commits
  /// after a restart continue above everything in the replayed log.
  void RestoreTimestampHighWater(Ts ts);

  /// Committed delete marks since the last ResetDeadVersions (vacuum's
  /// wake-up hint).
  int64_t dead_versions() const {
    return dead_versions_.load(std::memory_order_relaxed);
  }
  void ResetDeadVersions() {
    dead_versions_.store(0, std::memory_order_relaxed);
  }

 private:
  WriteAheadLog* wal_;
  Mutex mu_;
  TxnId next_txn_ GUARDED_BY(mu_) = 1;
  bool recovery_done_ GUARDED_BY(mu_) = false;

  // MVCC state. mvcc_mu_ is held across header check-and-stamp sequences
  // (MarkDeleteVersion, FinalizeCommit's rewrites), so two writers can never
  // both observe a version as live; page latches nest inside it.
  mutable Mutex mvcc_mu_;
  CondVar commit_cv_;
  Ts next_cts_ GUARDED_BY(mvcc_mu_) = 0;
  Ts last_committed_ GUARDED_BY(mvcc_mu_) = 0;
  std::set<Ts> pending_cts_ GUARDED_BY(mvcc_mu_);
  std::multiset<Ts> active_snaps_ GUARDED_BY(mvcc_mu_);
  std::atomic<int64_t> dead_versions_{0};
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_TXN_H_
