// Direct tests of the volcano operator kernels on hand-built plans: edge
// cases that SQL-level tests reach only indirectly.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/disk_manager.h"

namespace stagedb::exec {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::PhysicalPlan;
using optimizer::Planner;
using optimizer::PlannerOptions;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
  }

  void Sql(const std::string& ddl_or_dml) {
    auto stmt = parser::ParseStatement(ddl_or_dml);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    if ((*stmt)->kind == parser::Statement::Kind::kCreateTable) {
      const auto& ct = static_cast<const parser::CreateTableStmt&>(**stmt);
      std::vector<catalog::Column> cols;
      for (const auto& def : ct.columns) {
        cols.push_back({def.name, def.type, ""});
      }
      ASSERT_TRUE(catalog_->CreateTable(ct.table, Schema(cols)).ok());
      return;
    }
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ASSERT_TRUE(ExecutePlan(plan->get(), &ctx).ok());
  }

  StatusOr<std::vector<Tuple>> Query(const std::string& sql,
                                     PlannerOptions opts = {}) {
    auto stmt = parser::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    Planner planner(catalog_.get(), opts);
    auto plan = planner.Plan(**stmt);
    if (!plan.ok()) return plan.status();
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    return ExecutePlan(plan->get(), &ctx);
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(ExecTest, LimitZeroProducesNothing) {
  Sql("CREATE TABLE t (a INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3)");
  auto rows = Query("SELECT a FROM t LIMIT 0");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(ExecTest, LimitLargerThanInputReturnsAll) {
  Sql("CREATE TABLE t (a INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2)");
  auto rows = Query("SELECT a FROM t LIMIT 99");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(ExecTest, JoinsWithEmptySides) {
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k INTEGER)");
  Sql("INSERT INTO l VALUES (1), (2)");
  for (auto algo :
       {PlannerOptions::JoinAlgo::kHash, PlannerOptions::JoinAlgo::kMerge,
        PlannerOptions::JoinAlgo::kNestedLoop}) {
    PlannerOptions opts;
    opts.join_algorithm = algo;
    auto rows = Query("SELECT * FROM l JOIN r ON l.k = r.k", opts);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
}

TEST_F(ExecTest, JoinDuplicateKeyGroupsCrossProduct) {
  Sql("CREATE TABLE l (k INTEGER, tag INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, tag INTEGER)");
  Sql("INSERT INTO l VALUES (7, 1), (7, 2), (8, 3)");
  Sql("INSERT INTO r VALUES (7, 10), (7, 20), (7, 30), (8, 40)");
  // 2x3 for key 7 plus 1x1 for key 8 = 7 rows, for every algorithm.
  for (auto algo :
       {PlannerOptions::JoinAlgo::kHash, PlannerOptions::JoinAlgo::kMerge,
        PlannerOptions::JoinAlgo::kNestedLoop}) {
    PlannerOptions opts;
    opts.join_algorithm = algo;
    auto rows = Query("SELECT * FROM l JOIN r ON l.k = r.k", opts);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 7u) << "algo " << static_cast<int>(algo);
  }
}

TEST_F(ExecTest, JoinNullKeysNeverMatch) {
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k INTEGER)");
  Sql("INSERT INTO l VALUES (NULL), (1)");
  Sql("INSERT INTO r VALUES (NULL), (1)");
  for (auto algo :
       {PlannerOptions::JoinAlgo::kHash, PlannerOptions::JoinAlgo::kMerge}) {
    PlannerOptions opts;
    opts.join_algorithm = algo;
    auto rows = Query("SELECT * FROM l JOIN r ON l.k = r.k", opts);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 1u);  // only 1 = 1; NULL = NULL is not a match
  }
}

TEST_F(ExecTest, JoinResidualPredicateApplied) {
  Sql("CREATE TABLE l (k INTEGER, v INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, v INTEGER)");
  Sql("INSERT INTO l VALUES (1, 10), (1, 20)");
  Sql("INSERT INTO r VALUES (1, 15), (1, 25)");
  auto rows =
      Query("SELECT * FROM l JOIN r ON l.k = r.k WHERE l.v < r.v");
  ASSERT_TRUE(rows.ok());
  // (10,15),(10,25),(20,25) pass; (20,15) filtered.
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(ExecTest, SortIsStableOnEqualKeys) {
  Sql("CREATE TABLE t (k INTEGER, seq INTEGER)");
  Sql("INSERT INTO t VALUES (1, 1), (0, 2), (1, 3), (0, 4), (1, 5)");
  auto rows = Query("SELECT k, seq FROM t ORDER BY k");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  // Equal keys keep insertion order (stable sort over the scan order).
  EXPECT_EQ((*rows)[0][1].int_value(), 2);
  EXPECT_EQ((*rows)[1][1].int_value(), 4);
  EXPECT_EQ((*rows)[2][1].int_value(), 1);
  EXPECT_EQ((*rows)[3][1].int_value(), 3);
  EXPECT_EQ((*rows)[4][1].int_value(), 5);
}

TEST_F(ExecTest, SortNullsFirst) {
  Sql("CREATE TABLE t (k INTEGER)");
  Sql("INSERT INTO t VALUES (2), (NULL), (1)");
  auto rows = Query("SELECT k FROM t ORDER BY k");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE((*rows)[0][0].is_null());
  EXPECT_EQ((*rows)[1][0].int_value(), 1);
}

TEST_F(ExecTest, GroupByNullFormsItsOwnGroup) {
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  Sql("INSERT INTO t VALUES (NULL, 1), (NULL, 2), (1, 3)");
  auto rows = Query("SELECT g, COUNT(*) FROM t GROUP BY g");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  int64_t null_count = 0;
  for (const auto& row : *rows) {
    if (row[0].is_null()) null_count = row[1].int_value();
  }
  EXPECT_EQ(null_count, 2);
}

TEST_F(ExecTest, MinMaxOnVarcharColumn) {
  Sql("CREATE TABLE t (s VARCHAR(8))");
  Sql("INSERT INTO t VALUES ('pear'), ('apple'), ('zuc')");
  auto rows = Query("SELECT MIN(s), MAX(s) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].varchar_value(), "apple");
  EXPECT_EQ((*rows)[0][1].varchar_value(), "zuc");
}

TEST_F(ExecTest, AvgOfIntegersIsDouble) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2)");
  auto rows = Query("SELECT AVG(v) FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ((*rows)[0][0].double_value(), 1.5);
}

TEST_F(ExecTest, UpdateIntLiteralIntoDoubleColumnWidens) {
  Sql("CREATE TABLE t (v DOUBLE)");
  Sql("INSERT INTO t VALUES (1.5)");
  Sql("UPDATE t SET v = 3");
  auto rows = Query("SELECT v FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0].type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ((*rows)[0][0].double_value(), 3.0);
}

TEST_F(ExecTest, DeleteEverythingThenReinsert) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3)");
  Sql("DELETE FROM t");
  auto empty = Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)[0][0].int_value(), 0);
  Sql("INSERT INTO t VALUES (9)");
  auto one = Query("SELECT v FROM t");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)[0][0].int_value(), 9);
}

TEST_F(ExecTest, OperatorTraceCountsTuples) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3), (4)");
  auto stmt = parser::ParseStatement("SELECT v FROM t WHERE v >= 3");
  ASSERT_TRUE(stmt.ok());
  Planner planner(catalog_.get());
  auto plan = planner.Plan(**stmt);
  ASSERT_TRUE(plan.ok());
  OperatorTrace trace;
  ExecContext ctx;
  ctx.catalog = catalog_.get();
  ctx.trace = &trace;
  ASSERT_TRUE(ExecutePlan(plan->get(), &ctx).ok());
  // The WHERE is the scan's own predicate: it reads all 4 rows and emits
  // the 2 that qualify, with no separate filter operator.
  int64_t scan_read = -1, scan_out = -1;
  for (const auto& e : trace.entries()) {
    EXPECT_NE(e.kind, optimizer::PlanKind::kFilter);
    if (e.kind == optimizer::PlanKind::kSeqScan) {
      scan_read = e.rows_read;
      scan_out = e.tuples_out;
    }
  }
  EXPECT_EQ(scan_read, 4);
  EXPECT_EQ(scan_out, 2);
}

TEST_F(ExecTest, ErrorInPredicateSurfacesCleanly) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (0), (1)");
  auto rows = Query("SELECT * FROM t WHERE 1 / v > 0");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, ProjectionArithmeticOnNullYieldsNull) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (NULL)");
  auto rows = Query("SELECT v + 1 FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE((*rows)[0][0].is_null());
}

}  // namespace
}  // namespace stagedb::exec
