// The catalog: tables, indexes, schemas, and statistics. Table 1 of the paper
// classifies the catalog as "common" data touched by the majority of queries;
// the connect/parse/optimize stages all resolve names through it.
#ifndef STAGEDB_CATALOG_CATALOG_H_
#define STAGEDB_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/symbol_table.h"
#include "catalog/table_stats.h"
#include "catalog/tuple.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/mvcc.h"
#include "storage/txn.h"

namespace stagedb::catalog {

using TableId = int32_t;
using IndexId = int32_t;

/// A secondary index over one INTEGER column.
struct IndexInfo {
  IndexId id = -1;
  std::string name;
  TableId table_id = -1;
  size_t column = 0;
  std::unique_ptr<storage::BPlusTree> tree;
};

/// A table: schema + heap file + stats + indexes.
struct TableInfo {
  TableId id = -1;
  std::string name;
  Schema schema;
  std::unique_ptr<storage::HeapFile> heap;
  std::unique_ptr<TableStats> stats;
  std::vector<IndexInfo*> indexes;  // owned by the catalog
};

/// Thread-safe catalog over a buffer pool.
class Catalog {
 public:
  explicit Catalog(storage::BufferPool* pool) : pool_(pool) {}

  StatusOr<TableInfo*> CreateTable(const std::string& name,
                                   const Schema& schema);
  StatusOr<TableInfo*> GetTable(const std::string& name) const;
  StatusOr<TableInfo*> GetTableById(TableId id) const;
  Status DropTable(const std::string& name);

  /// Creates a B+-tree index on an INTEGER column and backfills it from the
  /// table's current contents.
  StatusOr<IndexInfo*> CreateIndex(const std::string& index_name,
                                   const std::string& table_name,
                                   const std::string& column_name);
  StatusOr<IndexInfo*> GetIndex(const std::string& name) const;
  /// The index on `table`.`column`, or nullptr.
  IndexInfo* FindIndexOn(TableId table, size_t column) const;

  /// Inserts a tuple through the catalog: updates heap, stats, and indexes.
  ///
  /// Every record carries a version header. With a writer `txn` the new
  /// version is installed uncommitted (begin = -txn->id) and unique-key
  /// conflicts against the index head follow first-updater-wins (Aborted on a
  /// concurrent writer's version, AlreadyExists on a genuinely live
  /// duplicate); with txn == nullptr (bootstrap/recovery) the version is
  /// installed committed-at-bootstrap (begin = 0).
  StatusOr<storage::Rid> InsertTuple(TableInfo* table, const Tuple& tuple,
                                     storage::MvccTxn* txn = nullptr);
  /// Deletes a tuple by rid, maintaining indexes and stats.
  ///
  /// With a writer `txn` this only *marks* the version deleted (end =
  /// -txn->id, first-updater-wins) and leaves index entries in place so
  /// older snapshots keep finding the chain; physical reclamation is
  /// MvccVacuum's job. With txn == nullptr the delete is physical (recovery
  /// replays a flat committed history).
  Status DeleteTuple(TableInfo* table, const storage::Rid& rid,
                     storage::MvccTxn* txn = nullptr);

  /// Sets the timestamp authority: the TransactionManager that hands out
  /// snapshots and commit timestamps. Writer transactions (a non-null `txn`
  /// above), MvccCommit and MvccVacuum need one. A catalog without one holds
  /// only bootstrap versions (begin = 0), which readers see at timestamp 0.
  void SetTimestampAuthority(storage::TransactionManager* txn_mgr) {
    mvcc_ = txn_mgr;
  }
  storage::TransactionManager* timestamp_authority() const { return mvcc_; }

  /// Publishes `txn`'s versions at commit timestamp `cts` (rewrites the
  /// -txn_id markers; see TransactionManager::FinalizeCommit for ordering).
  Status MvccCommit(storage::MvccTxn* txn, storage::Ts cts);
  /// Undoes `txn`'s write set in reverse: uncommitted inserts are physically
  /// removed (restoring any replaced index heads), delete marks are cleared.
  Status MvccAbort(storage::MvccTxn* txn);
  /// Reclaims versions invisible to every present and future snapshot
  /// (committed end <= TransactionManager::VacuumHorizon()). Returns the
  /// number of versions physically deleted.
  StatusOr<int64_t> MvccVacuum();

  std::vector<std::string> TableNames() const;
  SymbolTable* symbols() { return &symbols_; }
  storage::BufferPool* buffer_pool() { return pool_; }

  /// Catalog epoch: monotonically bumped by every DDL operation (CREATE
  /// TABLE/INDEX, DROP TABLE) and by explicit BumpVersion() calls (statistics
  /// refresh). Cached plans record the epoch they were planned under; an
  /// epoch mismatch marks them stale so they are replanned instead of
  /// executing against a dropped or altered table.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  /// Invalidates plans built against the current catalog state without a
  /// schema change (e.g. after a table-statistics refresh).
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  /// MVCC index maintenance: head check + entry swap for one key must be
  /// atomic against other inserters and against vacuum, which is exactly the
  /// sequence this mutex serializes. Page latches nest inside it; it is never
  /// taken while holding mu_ or the TransactionManager's mvcc lock.
  Status MvccInsertIndexes(TableInfo* table, const Tuple& tuple,
                           std::string_view payload, storage::MvccTxn* txn,
                           storage::Rid* out_rid)
      EXCLUDES(structural_mu_);

  storage::BufferPool* pool_;
  storage::TransactionManager* mvcc_ = nullptr;
  mutable Mutex structural_mu_;
  std::atomic<uint64_t> version_{1};
  mutable Mutex mu_;
  TableId next_table_id_ GUARDED_BY(mu_) = 0;
  IndexId next_index_id_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::unique_ptr<TableInfo>> tables_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<IndexInfo>> indexes_ GUARDED_BY(mu_);
  SymbolTable symbols_;  // self-locking
};

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_CATALOG_H_
