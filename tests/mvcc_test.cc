// MVCC snapshot isolation tests, at two levels:
//
//  * storage/catalog level — deterministic interleavings of MvccTxn objects
//    against the Catalog and TransactionManager (visibility, first-updater-
//    wins conflicts, commit-publish ordering, the vacuum horizon);
//  * SQL level — the Database facade in both execution modes, including the
//    vacuum stage, recovery of the commit-timestamp high-water mark, and the
//    DDL barrier that keeps CREATE INDEX / DROP TABLE off uncommitted writes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tuple.h"
#include "engine/vacuum_stage.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "server/database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/mvcc.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace stagedb {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::TableInfo;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using server::ConcurrencyMode;
using server::Database;
using server::DatabaseOptions;
using server::ExecutionMode;
using server::QueryResult;
using storage::MvccReadView;
using storage::MvccTxn;
using storage::Rid;
using storage::Ts;

// ------------------------------------------------- storage/catalog level ---

class MvccCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>(0);
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    wal_ = std::make_unique<storage::WriteAheadLog>();
    txn_mgr_ = std::make_unique<storage::TransactionManager>(wal_.get());
    catalog_->SetTimestampAuthority(txn_mgr_.get());
    auto table = catalog_->CreateTable(
        "t", Schema({{"id", TypeId::kInt64, ""}, {"v", TypeId::kInt64, ""}}));
    ASSERT_TRUE(table.ok());
    table_ = *table;
  }

  MvccTxn BeginTxn() {
    MvccTxn txn;
    txn.id = txn_mgr_->AllocateTxnId();
    txn.snapshot = txn_mgr_->BeginSnapshot();
    txn.registered = true;
    return txn;
  }

  /// Mirrors Database::FinishMvccTxn: publish or undo, then release.
  Status Finish(MvccTxn* txn, bool ok) {
    Status st;
    if (ok && !txn->writes.empty()) {
      st = catalog_->MvccCommit(txn, txn_mgr_->AllocateCommitTs());
    } else if (!ok) {
      st = catalog_->MvccAbort(txn);
    }
    if (txn->registered) {
      txn_mgr_->ReleaseSnapshot(txn->snapshot);
      txn->registered = false;
    }
    return st;
  }

  /// Rows of `t` visible under `view`, as (id, v) pairs in heap order.
  std::vector<std::pair<int64_t, int64_t>> VisibleRows(
      const MvccReadView& view) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    auto scan = table_->heap->Scan();
    while (scan.Next()) {
      const auto header = storage::DecodeVersionHeader(scan.record());
      if (!storage::VersionVisible(header, view)) continue;
      auto tuple =
          catalog::DecodeTuple(table_->schema, storage::RowPayload(scan.record()));
      EXPECT_TRUE(tuple.ok());
      rows.emplace_back((*tuple)[0].int_value(), (*tuple)[1].int_value());
    }
    EXPECT_TRUE(scan.status().ok());
    return rows;
  }

  /// A committed-state-only reader view at the current commit point.
  MvccReadView ReaderView() { return {txn_mgr_->last_committed(), 0}; }

  StatusOr<Rid> Insert(MvccTxn* txn, int64_t id, int64_t v) {
    return catalog_->InsertTuple(table_, Tuple{Value::Int(id), Value::Int(v)},
                                 txn);
  }

  /// Plans one UPDATE/DELETE and runs it inside `txn` through the volcano
  /// executor, as the Database facade runs a statement of an explicit
  /// transaction. `index_scan` selects the index-driven target search (the
  /// plan must then carry an index range) or the heap-scan oracle. Returns
  /// the affected-row count.
  StatusOr<int64_t> Dml(const std::string& sql, MvccTxn* txn,
                        bool index_scan = true) {
    auto stmt = parser::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    optimizer::PlannerOptions options;
    options.enable_index_scan = index_scan;
    optimizer::Planner planner(catalog_.get(), options);
    auto plan = planner.Plan(**stmt);
    if (!plan.ok()) return plan.status();
    EXPECT_EQ((*plan)->index != nullptr, index_scan) << sql;
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.mvcc = txn;
    auto rows = exec::ExecutePlan(plan->get(), &ctx);
    if (!rows.ok()) return rows.status();
    return (*rows)[0][0].int_value();
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::unique_ptr<storage::TransactionManager> txn_mgr_;
  TableInfo* table_ = nullptr;
};

TEST_F(MvccCatalogTest, ReadYourOwnUncommittedWrites) {
  MvccTxn writer = BeginTxn();
  ASSERT_TRUE(Insert(&writer, 1, 10).ok());
  // The writer sees its own uncommitted insert; nobody else does.
  EXPECT_EQ(VisibleRows(writer.View()).size(), 1u);
  EXPECT_TRUE(VisibleRows(ReaderView()).empty());
  MvccTxn other = BeginTxn();
  EXPECT_TRUE(VisibleRows(other.View()).empty());
  ASSERT_TRUE(Finish(&writer, true).ok());
  // Commit publishes it to new snapshots, but not to the pre-commit one.
  EXPECT_EQ(VisibleRows(ReaderView()).size(), 1u);
  EXPECT_TRUE(VisibleRows(other.View()).empty());
  ASSERT_TRUE(Finish(&other, true).ok());
}

TEST_F(MvccCatalogTest, AbortUndoesInsert) {
  MvccTxn writer = BeginTxn();
  ASSERT_TRUE(Insert(&writer, 1, 10).ok());
  ASSERT_TRUE(Finish(&writer, false).ok());
  EXPECT_TRUE(VisibleRows(ReaderView()).empty());
  // The heap slot itself is gone, not just invisible.
  auto scan = table_->heap->Scan();
  EXPECT_FALSE(scan.Next());
}

TEST_F(MvccCatalogTest, UpdateInstallsVersionOldSnapshotKeepsReading) {
  MvccTxn setup = BeginTxn();
  auto rid = Insert(&setup, 1, 10);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  // An analytics reader opens its snapshot before the update lands.
  MvccTxn reader = BeginTxn();

  MvccTxn updater = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *rid, &updater).ok());
  ASSERT_TRUE(Insert(&updater, 1, 20).ok());
  ASSERT_TRUE(Finish(&updater, true).ok());

  // The old snapshot still reads v=10; new snapshots read v=20. Never both.
  const auto old_rows = VisibleRows(reader.View());
  ASSERT_EQ(old_rows.size(), 1u);
  EXPECT_EQ(old_rows[0].second, 10);
  const auto new_rows = VisibleRows(ReaderView());
  ASSERT_EQ(new_rows.size(), 1u);
  EXPECT_EQ(new_rows[0].second, 20);
  ASSERT_TRUE(Finish(&reader, true).ok());
}

TEST_F(MvccCatalogTest, WriteWriteConflictAbortsSecondWriterThenRetryWins) {
  MvccTxn setup = BeginTxn();
  auto rid = Insert(&setup, 1, 10);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  MvccTxn first = BeginTxn();
  MvccTxn second = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *rid, &first).ok());
  // First-updater-wins: the second writer must abort, not wait.
  const Status conflict = catalog_->DeleteTuple(table_, *rid, &second);
  EXPECT_TRUE(conflict.IsAborted()) << conflict.ToString();
  ASSERT_TRUE(Finish(&second, false).ok());

  // The first writer aborts too: its mark is cleared, so a retry succeeds.
  ASSERT_TRUE(Finish(&first, false).ok());
  MvccTxn retry = BeginTxn();
  EXPECT_TRUE(catalog_->DeleteTuple(table_, *rid, &retry).ok());
  ASSERT_TRUE(Finish(&retry, true).ok());
  EXPECT_TRUE(VisibleRows(ReaderView()).empty());
}

TEST_F(MvccCatalogTest, CommitsPublishOldestFirst) {
  // Two overlapping commits: the younger timestamp must not become visible
  // before the older one — exactly the invariant that keeps a snapshot taken
  // mid-group-commit-window from seeing a batch suffix without its prefix.
  MvccTxn a = BeginTxn();
  MvccTxn b = BeginTxn();
  ASSERT_TRUE(Insert(&a, 1, 10).ok());
  ASSERT_TRUE(Insert(&b, 2, 20).ok());
  const Ts base = txn_mgr_->last_committed();
  const Ts cts_a = txn_mgr_->AllocateCommitTs();
  const Ts cts_b = txn_mgr_->AllocateCommitTs();
  ASSERT_LT(cts_a, cts_b);

  std::atomic<bool> b_done{false};
  std::thread committer([&] {
    EXPECT_TRUE(catalog_->MvccCommit(&b, cts_b).ok());
    b_done.store(true);
  });
  // B cannot publish while A is pending: last_committed stays at base and a
  // snapshot taken now sees neither row.
  for (int i = 0; i < 50 && !b_done.load(); ++i) {
    EXPECT_EQ(txn_mgr_->last_committed(), base);
    std::this_thread::yield();
  }
  EXPECT_FALSE(b_done.load());
  EXPECT_TRUE(VisibleRows(ReaderView()).empty());

  EXPECT_TRUE(catalog_->MvccCommit(&a, cts_a).ok());
  committer.join();
  EXPECT_EQ(txn_mgr_->last_committed(), cts_b);
  EXPECT_EQ(VisibleRows(ReaderView()).size(), 2u);
  txn_mgr_->ReleaseSnapshot(a.snapshot);
  txn_mgr_->ReleaseSnapshot(b.snapshot);
}

TEST_F(MvccCatalogTest, VacuumWaitsForOldestSnapshot) {
  MvccTxn setup = BeginTxn();
  auto rid = Insert(&setup, 1, 10);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  // A long-running reader pins the horizon...
  MvccTxn reader = BeginTxn();

  MvccTxn deleter = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *rid, &deleter).ok());
  ASSERT_TRUE(Finish(&deleter, true).ok());

  // ...so vacuum must not reclaim the version the reader can still see.
  auto reclaimed = catalog_->MvccVacuum();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 0);
  ASSERT_EQ(VisibleRows(reader.View()).size(), 1u);

  // Release the snapshot: the version is now invisible to every present and
  // future reader and gets physically reclaimed.
  ASSERT_TRUE(Finish(&reader, true).ok());
  reclaimed = catalog_->MvccVacuum();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 1);
  auto scan = table_->heap->Scan();
  EXPECT_FALSE(scan.Next());
}

TEST_F(MvccCatalogTest, VacuumRemovesIndexHeadOfDeadChain) {
  ASSERT_TRUE(catalog_->CreateIndex("t_id", "t", "id").ok());
  MvccTxn setup = BeginTxn();
  auto rid = Insert(&setup, 7, 70);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  MvccTxn deleter = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *rid, &deleter).ok());
  ASSERT_TRUE(Finish(&deleter, true).ok());

  auto reclaimed = catalog_->MvccVacuum();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 1);
  catalog::IndexInfo* index = catalog_->FindIndexOn(table_->id, 0);
  ASSERT_NE(index, nullptr);
  auto head = index->tree->Get(7);
  EXPECT_TRUE(head.status().IsNotFound());
}

// An update in flight when the index is built leaves two heads with one key:
// the old version carries the updater's delete mark, the new one is live.
// The live one owns the key, so the index reaches the row either way the
// updater ends.
TEST_F(MvccCatalogTest, IndexBackfillKeysLiveVersionOverInFlightDelete) {
  MvccTxn setup = BeginTxn();
  auto old_rid = Insert(&setup, 5, 50);
  ASSERT_TRUE(old_rid.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  MvccTxn updater = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *old_rid, &updater).ok());
  auto new_rid = Insert(&updater, 5, 51);
  ASSERT_TRUE(new_rid.ok());
  auto index = catalog_->CreateIndex("t_id", "t", "id");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto head = (*index)->tree->Get(5);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, *new_rid);
  ASSERT_TRUE(Finish(&updater, true).ok());

  // A second live row with the same key is a genuine duplicate.
  MvccTxn dup = BeginTxn();
  EXPECT_EQ(Insert(&dup, 5, 52).status().code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(Finish(&dup, false).ok());
}

TEST_F(MvccCatalogTest, IndexedUpdateOnStaleSnapshotAbortsThenRetryWins) {
  ASSERT_TRUE(catalog_->CreateIndex("t_id", "t", "id").ok());
  MvccTxn setup = BeginTxn();
  for (int64_t id = 1; id <= 8; ++id) ASSERT_TRUE(Insert(&setup, id, id).ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  // An explicit transaction whose snapshot predates the committed update.
  MvccTxn stale = BeginTxn();
  MvccTxn updater = BeginTxn();
  auto n = Dml("UPDATE t SET v = v + 10 WHERE id = 5", &updater);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  ASSERT_TRUE(Finish(&updater, true).ok());

  // The index walk finds the version the stale snapshot sees; marking it is
  // a lost update, so first-updater-wins aborts the statement.
  auto conflict = Dml("UPDATE t SET v = v + 100 WHERE id = 5", &stale);
  EXPECT_TRUE(conflict.status().IsAborted()) << conflict.status().ToString();
  ASSERT_TRUE(Finish(&stale, false).ok());

  MvccTxn retry = BeginTxn();
  n = Dml("UPDATE t SET v = v + 100 WHERE id = 5", &retry);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  ASSERT_TRUE(Finish(&retry, true).ok());
  int64_t v5 = -1;
  for (const auto& [id, v] : VisibleRows(ReaderView())) {
    if (id == 5) v5 = v;
  }
  EXPECT_EQ(v5, 115);
}

TEST_F(MvccCatalogTest, MultiIndexInconclusiveChainFallsBackToHeapScan) {
  // Index creation order matters: a new version's prev link comes from the
  // first index (t_id) whose head it replaces.
  ASSERT_TRUE(catalog_->CreateIndex("t_id", "t", "id").ok());
  ASSERT_TRUE(catalog_->CreateIndex("t_v", "t", "v").ok());
  MvccTxn setup = BeginTxn();
  auto r1 = Insert(&setup, 1, 10);
  auto r2 = Insert(&setup, 2, 20);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(Finish(&setup, true).ok());

  // Two statements of old transactions, both seeing (1,10) and (2,20).
  MvccTxn old_index = BeginTxn();
  MvccTxn old_heap = BeginTxn();

  // Delete both rows, then re-bind v = 20 to a different logical row (1,20):
  // t_v's head for 20 now chains back to (1,10), not to (2,20).
  MvccTxn deleter = BeginTxn();
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *r1, &deleter).ok());
  ASSERT_TRUE(catalog_->DeleteTuple(table_, *r2, &deleter).ok());
  ASSERT_TRUE(Finish(&deleter, true).ok());
  MvccTxn rebind = BeginTxn();
  auto r3 = Insert(&rebind, 1, 20);
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(Finish(&rebind, true).ok());
  catalog::IndexInfo* by_v = catalog_->FindIndexOn(table_->id, 1);
  ASSERT_NE(by_v, nullptr);
  auto head = by_v->tree->Get(20);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, *r3);
  std::string record;
  ASSERT_TRUE(table_->heap->Get(*r3, &record).ok());
  EXPECT_EQ(storage::DecodeVersionHeader(record).prev, *r1);

  // The old snapshots still see (2,20), which the t_v chain cannot reach.
  // The index-driven statement must find it anyway (and hit the conflict
  // with the committed delete), exactly as the heap scan does.
  const std::string sql = "UPDATE t SET id = id + 100 WHERE v = 20";
  auto via_index = Dml(sql, &old_index, true);
  auto via_heap = Dml(sql, &old_heap, false);
  EXPECT_TRUE(via_heap.status().IsAborted()) << via_heap.status().ToString();
  EXPECT_EQ(via_index.status().code(), via_heap.status().code())
      << via_index.status().ToString();
  ASSERT_TRUE(Finish(&old_index, false).ok());
  ASSERT_TRUE(Finish(&old_heap, false).ok());

  // Fresh snapshots: the chain for 20 ends at its live head; the one for 10
  // ends without a visible version. Both paths agree on the affected rows.
  for (const char* fresh_sql : {"UPDATE t SET id = id + 100 WHERE v = 20",
                                "DELETE FROM t WHERE v = 10",
                                "DELETE FROM t WHERE v >= 10"}) {
    SCOPED_TRACE(fresh_sql);
    MvccTxn a = BeginTxn();
    auto index_rows = Dml(fresh_sql, &a, true);
    ASSERT_TRUE(Finish(&a, false).ok());
    MvccTxn b = BeginTxn();
    auto heap_rows = Dml(fresh_sql, &b, false);
    ASSERT_TRUE(Finish(&b, false).ok());
    ASSERT_TRUE(index_rows.ok()) << index_rows.status().ToString();
    ASSERT_TRUE(heap_rows.ok()) << heap_rows.status().ToString();
    EXPECT_EQ(*index_rows, *heap_rows);
  }
}

// --------------------------------------------------------------- SQL level --

// ctest names each case after gtest's byte dump of this struct, so
// `concurrency` (never read) keeps the names the cases had when there was a
// second concurrency mode.
struct SqlModeParam {
  ExecutionMode mode;
  ConcurrencyMode concurrency;
};

/// Every row a heap scan of `t` returns is reached through the index on
/// `column` (a point IndexScan finds exactly that row), so the index and the
/// heap agree.
void ExpectIndexMatchesHeap(Database* db, const std::string& column) {
  auto heap = db->Execute("SELECT id, " + column + " FROM t");
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_FALSE(heap->rows.empty());
  for (const Tuple& row : heap->rows) {
    const std::string sql = "SELECT id FROM t WHERE " + column + " = " +
                            std::to_string(row[1].int_value());
    auto point = db->Execute(sql);
    ASSERT_TRUE(point.ok()) << sql << " -> " << point.status().ToString();
    EXPECT_NE(point->plan_text.find("IndexScan"), std::string::npos)
        << point->plan_text;
    ASSERT_EQ(point->rows.size(), 1u) << sql;
    EXPECT_EQ(point->rows[0][0].int_value(), row[0].int_value()) << sql;
  }
}

class MvccSqlTest : public ::testing::TestWithParam<SqlModeParam> {
 protected:
  void Open(DatabaseOptions options = {}) {
    options.mode = GetParam().mode;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  std::unique_ptr<Database> db_;
};

TEST_P(MvccSqlTest, CrudBattery) {
  Open();
  Exec("CREATE TABLE acct (id INTEGER, v INTEGER)");
  Exec("CREATE INDEX acct_id ON acct (id)");
  Exec("INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30), (4, 40)");
  QueryResult all = Exec("SELECT id, v FROM acct ORDER BY id");
  ASSERT_EQ(all.rows.size(), 4u);
  EXPECT_EQ(all.rows[2][1].int_value(), 30);

  QueryResult up = Exec("UPDATE acct SET v = v + 1 WHERE id = 2");
  EXPECT_EQ(up.rows[0][0].int_value(), 1);
  QueryResult point = Exec("SELECT v FROM acct WHERE id = 2");
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(point.rows[0][0].int_value(), 21);

  Exec("DELETE FROM acct WHERE id = 4");
  QueryResult agg = Exec("SELECT COUNT(*), SUM(v) FROM acct");
  EXPECT_EQ(agg.rows[0][0].int_value(), 3);
  EXPECT_EQ(agg.rows[0][1].int_value(), 10 + 21 + 30);

  // Index range scan walks version chains to the visible version.
  QueryResult range = Exec("SELECT id FROM acct WHERE id > 1 ORDER BY id");
  ASSERT_EQ(range.rows.size(), 2u);
  EXPECT_EQ(range.rows[0][0].int_value(), 2);
  EXPECT_EQ(range.rows[1][0].int_value(), 3);
}

TEST_P(MvccSqlTest, ExplicitTransactionCommitAndRollback) {
  Open();
  Exec("CREATE TABLE t (a INTEGER)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1), (2)");
  // Read-your-own-writes inside the transaction.
  EXPECT_EQ(Exec("SELECT a FROM t").rows.size(), 2u);
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT a FROM t").rows.size(), 0u);
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (3)");
  Exec("COMMIT");
  QueryResult r = Exec("SELECT a FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 3);
}

// A statement that fails midway leaves no trace, with default options too:
// the key-shifting UPDATE rewrites row 1 to id 2, then collides with row 2's
// live key, and must be undone as a whole — in the heap, the unique index,
// and the log replayed on reopen.
TEST_P(MvccSqlTest, FailedStatementLeavesNoTrace) {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  DatabaseOptions options;
  options.wal_path = ::testing::TempDir() + "/mvcc_" + name + ".wal";
  std::remove(options.wal_path.c_str());
  Open(options);
  Exec("CREATE TABLE t (id INTEGER, v INTEGER)");
  Exec("CREATE INDEX t_id ON t (id)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  auto failed = db_->Execute("UPDATE t SET id = id + 1");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAlreadyExists)
      << failed.status().ToString();

  const auto expect_untouched = [this](const char* when) {
    SCOPED_TRACE(when);
    QueryResult ids = Exec("SELECT id FROM t ORDER BY id");
    ASSERT_EQ(ids.rows.size(), 3u);
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(ids.rows[i][0].int_value(), i + 1);
    }
    QueryResult point = Exec("SELECT v FROM t WHERE id = 2");
    ASSERT_EQ(point.rows.size(), 1u);
    EXPECT_EQ(point.rows[0][0].int_value(), 20);
  };
  expect_untouched("after the failed statement");
  db_.reset();
  Open(options);
  expect_untouched("after reopening from the WAL");
  db_.reset();
  std::remove(options.wal_path.c_str());
}

// A unique index cannot be built over duplicate live keys. The failed
// CREATE INDEX leaves no index: the duplicates stay reachable by a point
// query and a third copy of the key still inserts.
TEST_P(MvccSqlTest, CreateIndexOverDuplicateLiveKeysFails) {
  Open();
  Exec("CREATE TABLE t (id INTEGER)");
  Exec("INSERT INTO t VALUES (1), (1)");
  auto created = db_->Execute("CREATE INDEX t_id ON t (id)");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kAlreadyExists)
      << created.status().ToString();
  EXPECT_TRUE(db_->catalog()->GetIndex("t_id").status().IsNotFound());
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id = 1").rows.size(), 2u);
  Exec("INSERT INTO t VALUES (1)");
  EXPECT_EQ(Exec("SELECT id FROM t WHERE id = 1").rows.size(), 3u);
  EXPECT_EQ(Exec("DELETE FROM t WHERE id = 1").rows[0][0].int_value(), 3);
  EXPECT_EQ(Exec("SELECT id FROM t").rows.size(), 0u);
}

// The DDL barrier inside a transaction. CREATE INDEX auto-commits and
// ROLLBACK cannot undo it, so it used to index the transaction's
// uncommitted version of row 1; after ROLLBACK the point query through the
// index found no row while a heap scan still saw both. DDL inside BEGIN now
// fails, and the index built after ROLLBACK agrees with the heap.
TEST_P(MvccSqlTest, DdlInsideTransactionFailsAndIndexMatchesHeap) {
  Open();
  Exec("CREATE TABLE t (id INTEGER, v INTEGER)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20)");
  Exec("BEGIN");
  Exec("UPDATE t SET v = 11 WHERE id = 1");
  for (const char* ddl : {"CREATE INDEX t_id ON t (id)", "DROP TABLE t"}) {
    auto refused = db_->Execute(ddl);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << ddl << " -> " << refused.status().ToString();
  }
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 2);
  Exec("CREATE INDEX t_id ON t (id)");
  ExpectIndexMatchesHeap(db_.get(), "id");
  QueryResult point = Exec("SELECT v FROM t WHERE id = 1");
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(point.rows[0][0].int_value(), 10);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MvccSqlTest,
    ::testing::Values(
        SqlModeParam{ExecutionMode::kVolcano, ConcurrencyMode::kSnapshot},
        SqlModeParam{ExecutionMode::kStaged, ConcurrencyMode::kSnapshot}),
    [](const ::testing::TestParamInfo<SqlModeParam>& info) {
      return std::string(info.param.mode == ExecutionMode::kStaged
                             ? "Staged"
                             : "Volcano") +
             "Snapshot";
    });

// The DDL barrier across threads: a standalone UPDATE submitted to the
// staged engine and not yet awaited holds its table against DDL. CREATE
// INDEX on another thread waits until Await finishes the statement — by
// committing it or by undoing it — and then indexes what it left behind.
// SubmitPrepared exists only in staged mode, so this case has no volcano
// variant.
TEST(MvccDdlBarrierTest, CreateIndexWaitsForUnawaitedUpdate) {
  DatabaseOptions options;
  options.mode = ExecutionMode::kStaged;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  for (const char* sql : {"CREATE TABLE t (id INTEGER, v INTEGER, w INTEGER)",
                          "CREATE INDEX t_id ON t (id)",
                          "INSERT INTO t VALUES (1, 10, 100), (2, 20, 200), "
                          "(3, 30, 300)"}) {
    ASSERT_TRUE(db->Execute(sql).ok()) << sql;
  }
  struct Case {
    const char* update;
    bool commits;
    const char* ddl;
    const char* column;
  };
  for (const Case& c : {
           Case{"UPDATE t SET v = v + 1 WHERE id = 1", true,
                "CREATE INDEX t_v ON t (v)", "v"},
           // Shifting every key collides with the next row's live key.
           Case{"UPDATE t SET id = id + 1", false,
                "CREATE INDEX t_w ON t (w)", "w"},
       }) {
    SCOPED_TRACE(c.update);
    auto stmt = db->Prepare(c.update);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto pending = db->SubmitPrepared(**stmt);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    std::atomic<bool> ddl_done{false};
    Status ddl_status;
    std::thread ddl([&] {
      ddl_status = db->Execute(c.ddl).status();
      ddl_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(ddl_done.load()) << "DDL ran beside an unfinished UPDATE";
    auto updated = (*pending)->Await();
    EXPECT_EQ(updated.ok(), c.commits) << updated.status().ToString();
    ddl.join();
    EXPECT_TRUE(ddl_status.ok()) << ddl_status.ToString();
    ExpectIndexMatchesHeap(db.get(), "id");
    ExpectIndexMatchesHeap(db.get(), c.column);
  }
  auto v1 = db->Execute("SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(v1->rows.size(), 1u);
  EXPECT_EQ(v1->rows[0][0].int_value(), 11);
}

TEST(MvccVacuumSqlTest, VacuumNowReclaimsDeadVersions) {
  DatabaseOptions options;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b INTEGER)").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO t VALUES (1,1), (2,2), (3,3), (4,4)").ok());
  // Each update marks one version dead; each delete marks one more.
  ASSERT_TRUE(db->Execute("UPDATE t SET b = b * 10").ok());
  ASSERT_TRUE(db->Execute("DELETE FROM t WHERE a > 2").ok());
  auto reclaimed = db->VacuumNow();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 4 + 2);
  // Reclamation is invisible to queries.
  auto rows = db->Execute("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[1][1].int_value(), 20);
}

TEST(MvccVacuumSqlTest, VacuumStageWakesOnCommittedDeletes) {
  DatabaseOptions options;
  options.mode = ExecutionMode::kStaged;
  options.vacuum_dead_threshold = 1;
  options.vacuum_window_us = 0;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(db->Execute("DELETE FROM t").ok());
  ASSERT_NE(db->vacuum_stage(), nullptr);
  for (int i = 0; i < 2000 && db->vacuum_stage()->versions_reclaimed() < 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(db->vacuum_stage()->versions_reclaimed(), 3);
  EXPECT_TRUE(db->vacuum_stage()->last_error().ok());
  EXPECT_GE(db->vacuum_stage()->passes(), 1);
}

TEST(MvccRecoveryTest, RecoveryRestoresRowsAndTimestampHighWater) {
  const std::string wal_path =
      ::testing::TempDir() + "/mvcc_recovery_test.wal";
  std::remove(wal_path.c_str());
  DatabaseOptions options;
  options.wal_path = wal_path;
  Ts high_water = 0;
  {
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok());
    auto db = std::move(*db_or);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b INTEGER)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1,1), (2,2), (3,3)").ok());
    ASSERT_TRUE(db->Execute("UPDATE t SET b = b + 100 WHERE a = 2").ok());
    ASSERT_TRUE(db->Execute("DELETE FROM t WHERE a = 3").ok());
    high_water = db->txn_manager()->last_committed();
    ASSERT_GT(high_water, 0);
  }
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  auto rows = db->Execute("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[1][1].int_value(), 102);
  // The commit-timestamp high-water mark survived: new commits order after
  // everything in the replayed history.
  EXPECT_GE(db->txn_manager()->last_committed(), high_water);
  ASSERT_TRUE(db->Execute("UPDATE t SET b = 0 WHERE a = 1").ok());
  EXPECT_GT(db->txn_manager()->last_committed(), high_water);
  std::remove(wal_path.c_str());
}

// TSan-targeted: concurrent analytics scans must observe every UPDATE
// atomically (both rows of a pair or neither) while the vacuum stage races
// them, and in snapshot mode the writer must never wait for the readers.
TEST(MvccConcurrencyTest, ScannersNeverSeeTornUpdatesWhileVacuumRaces) {
  DatabaseOptions options;
  options.mode = ExecutionMode::kStaged;
  options.vacuum_dead_threshold = 1;  // vacuum constantly
  options.vacuum_window_us = 0;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(*db_or);
  ASSERT_TRUE(db->Execute("CREATE TABLE pair (id INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO pair VALUES (1, 0), (2, 0)").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = db->Execute("SELECT v FROM pair ORDER BY id");
      if (!r.ok() || r->rows.size() != 2 ||
          r->rows[0][0].int_value() != r->rows[1][0].int_value()) {
        anomalies.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto r = db->Execute("UPDATE pair SET v = v + 1");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(anomalies.load(), 0);
  auto final_rows = db->Execute("SELECT v FROM pair");
  ASSERT_TRUE(final_rows.ok());
  ASSERT_EQ(final_rows->rows.size(), 2u);
  EXPECT_EQ(final_rows->rows[0][0].int_value(), 200);
  EXPECT_EQ(final_rows->rows[1][0].int_value(), 200);
  EXPECT_TRUE(db->vacuum_stage()->last_error().ok());
}

}  // namespace
}  // namespace stagedb
