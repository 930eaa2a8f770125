// End-to-end SQL tests through the Database facade (volcano mode). The staged
// engine is differential-tested against these same behaviours in
// engine_test.cc.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "server/database.h"
#include "server/server.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace stagedb::server {
namespace {

using catalog::Value;

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }

  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  Status ExecError(const std::string& sql) {
    auto r = db_->Execute(sql);
    return r.ok() ? Status::OK() : r.status();
  }

  void LoadFixture() {
    Exec("CREATE TABLE emp (id INTEGER, dept INTEGER, name VARCHAR(32), "
         "salary DOUBLE)");
    Exec("CREATE TABLE dept (id INTEGER, dname VARCHAR(32))");
    Exec("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')");
    Exec("INSERT INTO emp VALUES "
         "(1, 1, 'ada', 120.0), (2, 1, 'alan', 110.0), (3, 2, 'grace', 90.0), "
         "(4, 2, 'edsger', 95.0), (5, 1, 'barbara', 130.0)");
  }

  /// `big`: 1,000 rows of ~110 bytes, 18 heap pages.
  void LoadBigTable() {
    Exec("CREATE TABLE big (a INTEGER, pad VARCHAR(128))");
    for (int batch = 0; batch < 10; ++batch) {
      std::string sql = "INSERT INTO big VALUES ";
      for (int i = 0; i < 100; ++i) {
        if (i) sql += ", ";
        sql += "(" + std::to_string(batch * 100 + i) + ", '" +
               std::string(100, 'p') + "')";
      }
      Exec(sql);
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, CreateInsertSelectStar) {
  Exec("CREATE TABLE t (a INTEGER, b VARCHAR(8))");
  QueryResult ins = Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  EXPECT_EQ(ins.rows[0][0].int_value(), 2);  // affected count
  QueryResult sel = Exec("SELECT * FROM t");
  ASSERT_EQ(sel.rows.size(), 2u);
  EXPECT_EQ(sel.schema.num_columns(), 2u);
  EXPECT_EQ(sel.rows[0][1].varchar_value(), "x");
}

TEST_F(SqlTest, WhereFiltering) {
  LoadFixture();
  QueryResult r = Exec("SELECT name FROM emp WHERE salary > 100 AND dept = 1");
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlTest, ExpressionsInSelectList) {
  LoadFixture();
  QueryResult r = Exec("SELECT id * 10 + dept AS code FROM emp WHERE id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 32);
  EXPECT_EQ(r.schema.column(0).name, "code");
}

TEST_F(SqlTest, JoinTwoTables) {
  LoadFixture();
  QueryResult r = Exec(
      "SELECT emp.name, dept.dname FROM emp JOIN dept ON emp.dept = dept.id "
      "WHERE dept.dname = 'eng' ORDER BY emp.name");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].varchar_value(), "ada");
  EXPECT_EQ(r.rows[0][1].varchar_value(), "eng");
}

TEST_F(SqlTest, ThreeWayJoin) {
  LoadFixture();
  Exec("CREATE TABLE bonus (emp_id INTEGER, amount DOUBLE)");
  Exec("INSERT INTO bonus VALUES (1, 10.0), (3, 20.0)");
  QueryResult r = Exec(
      "SELECT emp.name, dept.dname, bonus.amount FROM emp "
      "JOIN dept ON emp.dept = dept.id "
      "JOIN bonus ON bonus.emp_id = emp.id ORDER BY emp.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].varchar_value(), "ada");
  EXPECT_DOUBLE_EQ(r.rows[1][2].double_value(), 20.0);
}

TEST_F(SqlTest, GroupByWithAggregates) {
  LoadFixture();
  QueryResult r = Exec(
      "SELECT dept, COUNT(*), AVG(salary), MAX(salary) FROM emp "
      "GROUP BY dept ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1);
  EXPECT_EQ(r.rows[0][1].int_value(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][2].double_value(), 120.0);
  EXPECT_DOUBLE_EQ(r.rows[1][3].double_value(), 95.0);
}

TEST_F(SqlTest, GlobalAggregateOverEmptyTable) {
  Exec("CREATE TABLE t (a INTEGER)");
  QueryResult r = Exec("SELECT COUNT(*), SUM(a), MIN(a) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(SqlTest, HavingFiltersGroups) {
  LoadFixture();
  QueryResult r = Exec(
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1);
}

TEST_F(SqlTest, OrderByMultipleKeysAndLimit) {
  LoadFixture();
  QueryResult r =
      Exec("SELECT name, salary FROM emp ORDER BY dept ASC, salary DESC "
           "LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].varchar_value(), "barbara");  // dept 1 top salary
  EXPECT_EQ(r.rows[1][0].varchar_value(), "ada");
  EXPECT_EQ(r.rows[2][0].varchar_value(), "alan");
}

TEST_F(SqlTest, AggregatesWithNulls) {
  Exec("CREATE TABLE t (a INTEGER)");
  Exec("INSERT INTO t VALUES (1), (NULL), (3)");
  QueryResult r = Exec("SELECT COUNT(*), COUNT(a), SUM(a), AVG(a) FROM t");
  EXPECT_EQ(r.rows[0][0].int_value(), 3);
  EXPECT_EQ(r.rows[0][1].int_value(), 2);  // NULLs skipped
  EXPECT_EQ(r.rows[0][2].int_value(), 4);
  EXPECT_DOUBLE_EQ(r.rows[0][3].double_value(), 2.0);
}

TEST_F(SqlTest, NullComparisonsNeverMatch) {
  Exec("CREATE TABLE t (a INTEGER)");
  Exec("INSERT INTO t VALUES (1), (NULL)");
  EXPECT_EQ(Exec("SELECT * FROM t WHERE a = 1").rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT * FROM t WHERE a <> 1").rows.size(), 0u);
}

TEST_F(SqlTest, DeleteWithPredicate) {
  LoadFixture();
  QueryResult del = Exec("DELETE FROM emp WHERE dept = 2");
  EXPECT_EQ(del.rows[0][0].int_value(), 2);
  EXPECT_EQ(Exec("SELECT * FROM emp").rows.size(), 3u);
}

TEST_F(SqlTest, UpdateComputedValues) {
  LoadFixture();
  QueryResult upd = Exec("UPDATE emp SET salary = salary * 2 WHERE dept = 1");
  EXPECT_EQ(upd.rows[0][0].int_value(), 3);
  QueryResult r = Exec("SELECT MIN(salary) FROM emp WHERE dept = 1");
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_value(), 220.0);
}

TEST_F(SqlTest, IndexScanEndToEnd) {
  LoadFixture();
  Exec("CREATE INDEX emp_id ON emp (id)");
  QueryResult r = Exec("SELECT name FROM emp WHERE id >= 2 AND id <= 4");
  ASSERT_EQ(r.rows.size(), 3u);
  auto explain = db_->Explain("SELECT name FROM emp WHERE id >= 2 AND id <= 4");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("IndexScan"), std::string::npos);
}

TEST_F(SqlTest, TransactionRollbackUndoesMutations) {
  LoadFixture();
  Exec("BEGIN");
  Exec("INSERT INTO emp VALUES (6, 3, 'ghost', 50.0)");
  Exec("DELETE FROM emp WHERE id = 1");
  Exec("UPDATE emp SET salary = 0 WHERE id = 2");
  Exec("ROLLBACK");
  QueryResult r = Exec("SELECT COUNT(*) FROM emp");
  EXPECT_EQ(r.rows[0][0].int_value(), 5);
  EXPECT_EQ(Exec("SELECT * FROM emp WHERE name = 'ghost'").rows.size(), 0u);
  EXPECT_EQ(Exec("SELECT * FROM emp WHERE id = 1").rows.size(), 1u);
  QueryResult sal = Exec("SELECT salary FROM emp WHERE id = 2");
  EXPECT_DOUBLE_EQ(sal.rows[0][0].double_value(), 110.0);
}

TEST_F(SqlTest, TransactionCommitKeepsMutations) {
  LoadFixture();
  Exec("BEGIN");
  Exec("INSERT INTO emp VALUES (6, 3, 'kept', 50.0)");
  Exec("COMMIT");
  EXPECT_EQ(Exec("SELECT * FROM emp WHERE name = 'kept'").rows.size(), 1u);
}

TEST_F(SqlTest, TransactionStateErrors) {
  EXPECT_FALSE(ExecError("COMMIT").ok());
  EXPECT_FALSE(ExecError("ROLLBACK").ok());
  Exec("BEGIN");
  EXPECT_FALSE(ExecError("BEGIN").ok());
  Exec("COMMIT");
}

TEST_F(SqlTest, DdlErrors) {
  Exec("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(ExecError("CREATE TABLE t (a INTEGER)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ExecError("DROP TABLE nosuch").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecError("SELECT * FROM nosuch").code(), StatusCode::kNotFound);
  EXPECT_FALSE(ExecError("SELECT syntax error here").ok());
}

TEST_F(SqlTest, DropTableRemovesData) {
  Exec("CREATE TABLE t (a INTEGER)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("DROP TABLE t");
  Exec("CREATE TABLE t (a INTEGER)");
  EXPECT_EQ(Exec("SELECT * FROM t").rows.size(), 0u);
}

TEST_F(SqlTest, SelfJoinWithAliases) {
  LoadFixture();
  QueryResult r = Exec(
      "SELECT e1.name, e2.name FROM emp e1 JOIN emp e2 "
      "ON e1.dept = e2.dept WHERE e1.id < e2.id ORDER BY e1.name, e2.name");
  // dept 1 has 3 employees -> 3 pairs; dept 2 has 2 -> 1 pair.
  ASSERT_EQ(r.rows.size(), 4u);
}

TEST_F(SqlTest, LargeScanAcrossManyPages) {
  LoadBigTable();
  QueryResult r = Exec("SELECT COUNT(*), MIN(a), MAX(a) FROM big");
  EXPECT_EQ(r.rows[0][0].int_value(), 1000);
  EXPECT_EQ(r.rows[0][1].int_value(), 0);
  EXPECT_EQ(r.rows[0][2].int_value(), 999);
}

// The Volcano SeqScan reads a page at a time: a full-table aggregate costs
// one buffer-pool fetch per heap page, not one per row.
TEST_F(SqlTest, FullScanFetchesEachPageOnce) {
  LoadBigTable();
  auto table = db_->catalog()->GetTable("big");
  ASSERT_TRUE(table.ok());
  int64_t pages = 0;
  storage::PageRecords records;
  for (storage::PageId id = (*table)->heap->first_page();
       id != storage::kInvalidPageId; ++pages) {
    ASSERT_TRUE((*table)->heap->ReadPage(id, &records).ok());
    id = records.next_page();
  }
  ASSERT_GT(pages, 4);
  storage::BufferPool* pool = db_->buffer_pool();
  const int64_t before = pool->hits() + pool->misses();
  QueryResult r = Exec("SELECT COUNT(*) FROM big");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1000);
  EXPECT_LE(pool->hits() + pool->misses() - before, pages + 2);
}

TEST_F(SqlTest, StatsCountersAdvance) {
  Exec("CREATE TABLE t (a INTEGER)");
  const int64_t before = db_->statements_executed();
  Exec("INSERT INTO t VALUES (1)");
  Exec("SELECT * FROM t");
  EXPECT_EQ(db_->statements_executed(), before + 2);
  // Every entry point counts a statement once. Preparing runs nothing.
  auto prepared = db_->Prepare("SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(db_->statements_executed(), before + 2);
  ASSERT_TRUE(db_->ExecutePrepared(**prepared).ok());
  EXPECT_EQ(db_->statements_executed(), before + 3);
  // The staged server submits a query from its execute stage and runs DDL
  // at its optimize stage.
  StagedServer server(db_.get());
  ASSERT_TRUE(server.Submit("SELECT COUNT(*) FROM t")->Await().ok());
  EXPECT_EQ(db_->statements_executed(), before + 4);
  ASSERT_TRUE(server.Submit("CREATE TABLE u (x INTEGER)")->Await().ok());
  EXPECT_EQ(db_->statements_executed(), before + 5);
  // A statement that does not parse never runs.
  EXPECT_FALSE(server.Submit("SELEKT broken")->Await().ok());
  EXPECT_FALSE(db_->Execute("SELEKT broken").ok());
  EXPECT_EQ(db_->statements_executed(), before + 5);
}

}  // namespace
}  // namespace stagedb::server
