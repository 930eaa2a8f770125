// The operator oracle: edge cases of every relational operator, checked
// against hand-computed answers on each engine — the volcano iterators, the
// staged engine, and the staged engine at max_dop=4 with 4-tuple pages
// (partitioned hash joins, the partial/merge aggregate split, packets that
// park mid-morsel). Both engines drive the same exec/operators.h kernels, so
// an engine-vs-engine differential cannot see an operator bug; these
// expectations can.
#include <algorithm>

#include <gtest/gtest.h>

#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "scan_row_reader_test_peer.h"
#include "storage/disk_manager.h"
#include "workload/wisconsin.h"

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

enum class Engine { kVolcano, kStaged, kStagedParallel };
constexpr Engine kEngines[] = {Engine::kVolcano, Engine::kStaged,
                               Engine::kStagedParallel};
constexpr PlannerOptions::JoinAlgo kJoinAlgos[] = {
    PlannerOptions::JoinAlgo::kHash, PlannerOptions::JoinAlgo::kMerge,
    PlannerOptions::JoinAlgo::kNestedLoop};

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kVolcano:
      return "volcano";
    case Engine::kStaged:
      return "staged";
    case Engine::kStagedParallel:
      return "staged max_dop=4";
  }
  return "?";
}

bool HasPartialAggregate(const PhysicalPlan& plan) {
  if (plan.kind == optimizer::PlanKind::kHashAggregate &&
      plan.agg_mode == optimizer::AggMode::kPartial) {
    return true;
  }
  for (const auto& child : plan.children) {
    if (HasPartialAggregate(*child)) return true;
  }
  return false;
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    staged_ = std::make_unique<engine::StagedEngine>(catalog_.get());
    engine::StagedEngineOptions opts;
    opts.max_dop = 4;
    opts.tuples_per_page = 4;
    opts.stage_pools["join"] = {4, -1};
    opts.stage_pools["aggr"] = {4, -1};
    parallel_ = std::make_unique<engine::StagedEngine>(catalog_.get(), opts);
  }

  void TearDown() override {
    parallel_.reset();
    staged_.reset();
  }

  /// DDL, or DML through the volcano engine.
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

  /// Plans `sql` for engine `e`: the parallel engine's planner splits every
  /// hash join and aggregate whose input it estimates at two rows or more.
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanFor(Engine e,
                                                  const std::string& sql,
                                                  PlannerOptions opts = {}) {
    auto stmt = parser::ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    if (e == Engine::kStagedParallel) {
      opts.max_dop = 4;
      opts.parallel_min_rows = 1;
    }
    Planner planner(catalog_.get(), opts);
    return planner.Plan(**stmt);
  }

  StatusOr<std::vector<Tuple>> Query(Engine e, const std::string& sql,
                                     PlannerOptions opts = {},
                                     OperatorTrace* trace = nullptr) {
    auto plan = PlanFor(e, sql, opts);
    if (!plan.ok()) return plan.status();
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.trace = trace;
    switch (e) {
      case Engine::kVolcano:
        return ExecutePlan(plan->get(), &ctx);
      case Engine::kStaged:
        return staged_->Execute(plan->get(), &ctx);
      case Engine::kStagedParallel:
        return parallel_->Execute(plan->get(), &ctx);
    }
    return Status::Internal("unknown engine");
  }

  /// The rows of `sql` on `e`, one string per row, sorted unless `ordered`.
  /// A failed query yields its status text as the only entry.
  std::vector<std::string> Rows(Engine e, const std::string& sql,
                                PlannerOptions opts = {},
                                bool ordered = false) {
    auto rows = Query(e, sql, opts);
    if (!rows.ok()) return {rows.status().ToString()};
    std::vector<std::string> out;
    for (const Tuple& t : *rows) out.push_back(catalog::TupleToString(t));
    if (!ordered) std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<engine::StagedEngine> staged_;
  std::unique_ptr<engine::StagedEngine> parallel_;
};

using Strings = std::vector<std::string>;

TEST_F(ExecTest, LimitZeroProducesNothing) {
  Sql("CREATE TABLE t (a INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT a FROM t LIMIT 0");
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
}

TEST_F(ExecTest, LimitLargerThanInputReturnsAll) {
  Sql("CREATE TABLE t (a INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT a FROM t LIMIT 99");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 2u);
  }
}

TEST_F(ExecTest, LimitEndsMidMorsel) {
  // Ten rows cross three 4-tuple pages on the parallel engine; a LIMIT of 6
  // stops halfway through the second.
  Sql("CREATE TABLE t (a INTEGER)");
  Sql("INSERT INTO t VALUES (10), (9), (8), (7), (6), (5), (4), (3), (2), "
      "(1)");
  Sql("CREATE TABLE u (a INTEGER)");
  Sql("INSERT INTO u VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), "
      "(10)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT a FROM t LIMIT 6", {}, /*ordered=*/true),
              (Strings{"(10)", "(9)", "(8)", "(7)", "(6)", "(5)"}));
    EXPECT_EQ(Rows(e, "SELECT a FROM t ORDER BY a LIMIT 6", {}, true),
              (Strings{"(1)", "(2)", "(3)", "(4)", "(5)", "(6)"}));
    auto joined = Query(e, "SELECT t.a FROM t JOIN u ON t.a = u.a LIMIT 6");
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined->size(), 6u);
  }
}

TEST_F(ExecTest, JoinsWithEmptySides) {
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k INTEGER)");
  Sql("INSERT INTO l VALUES (1), (2)");
  for (Engine e : kEngines) {
    for (auto algo : kJoinAlgos) {
      SCOPED_TRACE(std::string(EngineName(e)) + " algo " +
                   std::to_string(static_cast<int>(algo)));
      PlannerOptions opts;
      opts.join_algorithm = algo;
      auto rows = Query(e, "SELECT * FROM l JOIN r ON l.k = r.k", opts);
      ASSERT_TRUE(rows.ok());
      EXPECT_TRUE(rows->empty());
      rows = Query(e, "SELECT * FROM r JOIN l ON l.k = r.k", opts);
      ASSERT_TRUE(rows.ok());
      EXPECT_TRUE(rows->empty());
    }
  }
}

TEST_F(ExecTest, JoinDuplicateKeyGroupsCrossProduct) {
  Sql("CREATE TABLE l (k INTEGER, tag INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, tag INTEGER)");
  Sql("INSERT INTO l VALUES (7, 1), (7, 2), (8, 3)");
  Sql("INSERT INTO r VALUES (7, 10), (7, 20), (7, 30), (8, 40)");
  // 2x3 for key 7 plus 1x1 for key 8 = 7 rows, for every algorithm.
  for (Engine e : kEngines) {
    for (auto algo : kJoinAlgos) {
      SCOPED_TRACE(std::string(EngineName(e)) + " algo " +
                   std::to_string(static_cast<int>(algo)));
      PlannerOptions opts;
      opts.join_algorithm = algo;
      EXPECT_EQ(Rows(e, "SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k",
                     opts),
                (Strings{"(1, 10)", "(1, 20)", "(1, 30)", "(2, 10)",
                         "(2, 20)", "(2, 30)", "(3, 40)"}));
    }
  }
}

TEST_F(ExecTest, JoinNullKeysNeverMatch) {
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k INTEGER)");
  Sql("INSERT INTO l VALUES (NULL), (1)");
  Sql("INSERT INTO r VALUES (NULL), (1)");
  for (Engine e : kEngines) {
    for (auto algo : kJoinAlgos) {
      SCOPED_TRACE(std::string(EngineName(e)) + " algo " +
                   std::to_string(static_cast<int>(algo)));
      PlannerOptions opts;
      opts.join_algorithm = algo;
      // Only 1 = 1; NULL = NULL is not a match.
      EXPECT_EQ(Rows(e, "SELECT * FROM l JOIN r ON l.k = r.k", opts),
                (Strings{"(1, 1)"}));
    }
  }
}

TEST_F(ExecTest, JoinResidualPredicateApplied) {
  Sql("CREATE TABLE l (k INTEGER, v INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, v INTEGER)");
  Sql("INSERT INTO l VALUES (1, 10), (1, 20)");
  Sql("INSERT INTO r VALUES (1, 15), (1, 25)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows =
        Query(e, "SELECT * FROM l JOIN r ON l.k = r.k WHERE l.v < r.v");
    ASSERT_TRUE(rows.ok());
    // (10,15),(10,25),(20,25) pass; (20,15) filtered.
    EXPECT_EQ(rows->size(), 3u);
  }
}

TEST_F(ExecTest, JoinResidualUnderEveryAlgorithm) {
  // Residual conjuncts ride on the join node next to its keys; rows with a
  // matching key but a failing residual must drop, including a whole key
  // group (k = 3) and the last row of a group (20, 15).
  Sql("CREATE TABLE l (k INTEGER, v INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, v INTEGER)");
  Sql("INSERT INTO l VALUES (1, 10), (1, 20), (2, 5), (3, 9), (NULL, 0)");
  Sql("INSERT INTO r VALUES (1, 15), (1, 25), (2, 6), (3, 1), (NULL, 99)");
  for (Engine e : kEngines) {
    for (auto algo : kJoinAlgos) {
      SCOPED_TRACE(std::string(EngineName(e)) + " algo " +
                   std::to_string(static_cast<int>(algo)));
      PlannerOptions opts;
      opts.join_algorithm = algo;
      EXPECT_EQ(Rows(e,
                     "SELECT l.v, r.v FROM l JOIN r ON l.k = r.k AND "
                     "l.v < r.v",
                     opts),
                (Strings{"(10, 15)", "(10, 25)", "(20, 25)", "(5, 6)"}));
    }
  }
}

TEST_F(ExecTest, SortIsStableOnEqualKeys) {
  Sql("CREATE TABLE t (k INTEGER, seq INTEGER)");
  Sql("INSERT INTO t VALUES (1, 1), (0, 2), (1, 3), (0, 4), (1, 5)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT k, seq FROM t ORDER BY k");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 5u);
    // Equal keys keep insertion order (stable sort over the scan order).
    EXPECT_EQ((*rows)[0][1].int_value(), 2);
    EXPECT_EQ((*rows)[1][1].int_value(), 4);
    EXPECT_EQ((*rows)[2][1].int_value(), 1);
    EXPECT_EQ((*rows)[3][1].int_value(), 3);
    EXPECT_EQ((*rows)[4][1].int_value(), 5);
  }
}

TEST_F(ExecTest, SortNullsFirst) {
  Sql("CREATE TABLE t (k INTEGER)");
  Sql("INSERT INTO t VALUES (2), (NULL), (1)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT k FROM t ORDER BY k", {}, /*ordered=*/true),
              (Strings{"(NULL)", "(1)", "(2)"}));
    EXPECT_EQ(Rows(e, "SELECT k FROM t ORDER BY k DESC", {}, true),
              (Strings{"(2)", "(1)", "(NULL)"}));
  }
}

TEST_F(ExecTest, GroupByNullFormsItsOwnGroup) {
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  Sql("INSERT INTO t VALUES (NULL, 1), (NULL, 2), (1, 3)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"),
              (Strings{"(1, 1, 3)", "(NULL, 2, 3)"}));
  }
}

TEST_F(ExecTest, MinMaxOnVarcharColumn) {
  Sql("CREATE TABLE t (s VARCHAR(8))");
  Sql("INSERT INTO t VALUES ('pear'), ('apple'), ('zuc')");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT MIN(s), MAX(s) FROM t");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0].varchar_value(), "apple");
    EXPECT_EQ((*rows)[0][1].varchar_value(), "zuc");
  }
}

TEST_F(ExecTest, AvgOfIntegersIsDouble) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT AVG(v) FROM t");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0].type(), TypeId::kDouble);
    EXPECT_DOUBLE_EQ((*rows)[0][0].double_value(), 1.5);
  }
}

TEST_F(ExecTest, AggregatesOverAllNullInputAreNull) {
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  Sql("INSERT INTO t VALUES (1, NULL), (1, NULL), (2, NULL)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e,
                   "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v), "
                   "COUNT(*) FROM t"),
              (Strings{"(NULL, NULL, NULL, NULL, 0, 3)"}));
    EXPECT_EQ(Rows(e,
                   "SELECT g, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v) "
                   "FROM t GROUP BY g"),
              (Strings{"(1, NULL, NULL, NULL, NULL, 0)",
                       "(2, NULL, NULL, NULL, NULL, 0)"}));
  }
}

TEST_F(ExecTest, AggregatesOverEmptyInputAreNull) {
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e,
                   "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v), "
                   "COUNT(*) FROM t"),
              (Strings{"(NULL, NULL, NULL, NULL, 0, 0)"}));
    // Grouped aggregation over nothing has no groups.
    EXPECT_EQ(Rows(e, "SELECT g, COUNT(*) FROM t GROUP BY g"), Strings{});
  }
}

TEST_F(ExecTest, GlobalAggregateOverEmptyInputYieldsOneRow) {
  Sql("CREATE TABLE empty_t (v INTEGER)");
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)");
  // Every row filtered out: the parallel plan still splits the aggregate
  // (its estimate is from the table), so the partial packets see nothing
  // and the merge packet must supply the one empty-input row.
  const std::string filtered =
      "SELECT COUNT(*), SUM(v), MIN(v) FROM t WHERE v > 100";
  auto split = PlanFor(Engine::kStagedParallel, filtered);
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(HasPartialAggregate(**split));
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT COUNT(*), SUM(v), MAX(v) FROM empty_t"),
              (Strings{"(0, NULL, NULL)"}));
    EXPECT_EQ(Rows(e, filtered), (Strings{"(0, NULL, NULL)"}));
  }
}

TEST_F(ExecTest, IntegerSumIsExact) {
  // 2^53 + 1 is not a double; a SUM that went through one would round it.
  Sql("CREATE TABLE one (v INTEGER)");
  Sql("INSERT INTO one VALUES (9007199254740993)");
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  Sql("INSERT INTO t VALUES (1, 9007199254740993), (1, 2), (2, -5), "
      "(2, 9007199254740993)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT SUM(v) FROM one"),
              (Strings{"(9007199254740993)"}));
    EXPECT_EQ(Rows(e, "SELECT SUM(v) FROM t"),
              (Strings{"(18014398509481983)"}));
    EXPECT_EQ(Rows(e, "SELECT g, SUM(v) FROM t GROUP BY g"),
              (Strings{"(1, 9007199254740995)", "(2, 9007199254740988)"}));
  }
}

TEST_F(ExecTest, IntegerSumOverflowIsAnError) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (9223372036854775807), (1)");
  auto split = PlanFor(Engine::kStagedParallel, "SELECT SUM(v) FROM t");
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(HasPartialAggregate(**split));  // overflow lands in the merge
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT SUM(v) FROM t");
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rows.status().message().find("integer overflow"),
              std::string::npos)
        << rows.status().ToString();
  }
}

TEST_F(ExecTest, IntegerArithmeticOverflowIsAnError) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (9223372036854775807)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    for (const char* sql :
         {"SELECT v + 1 FROM t", "SELECT -v - 2 FROM t", "SELECT v * 2 FROM t",
          "SELECT v FROM t WHERE v + 1 > 0"}) {
      auto rows = Query(e, sql);
      ASSERT_FALSE(rows.ok()) << sql;
      EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_NE(rows.status().message().find("integer overflow"),
                std::string::npos)
          << sql << ": " << rows.status().ToString();
    }
    EXPECT_EQ(Rows(e, "SELECT v - 1, -v FROM t"),
              (Strings{"(9223372036854775806, -9223372036854775807)"}));
  }
}

TEST_F(ExecTest, UpdateIntLiteralIntoDoubleColumnWidens) {
  Sql("CREATE TABLE t (v DOUBLE)");
  Sql("INSERT INTO t VALUES (1.5)");
  Sql("UPDATE t SET v = 3");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT v FROM t");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ((*rows)[0][0].type(), TypeId::kDouble);
    EXPECT_DOUBLE_EQ((*rows)[0][0].double_value(), 3.0);
  }
}

TEST_F(ExecTest, DeleteEverythingThenReinsert) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    Sql("DELETE FROM t");
    auto empty = Query(e, "SELECT COUNT(*) FROM t");
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ((*empty)[0][0].int_value(), 0);
    Sql("INSERT INTO t VALUES (9)");
    auto one = Query(e, "SELECT v FROM t");
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one->size(), 1u);
    EXPECT_EQ((*one)[0][0].int_value(), 9);
  }
}

TEST_F(ExecTest, OperatorTraceCountsTuples) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (1), (2), (3), (4)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    OperatorTrace trace;
    ASSERT_TRUE(Query(e, "SELECT v FROM t WHERE v >= 3", {}, &trace).ok());
    // The WHERE is the scan's own predicate: it reads all 4 rows and emits
    // the 2 that qualify, with no separate filter operator.
    int64_t scan_read = -1, scan_out = -1;
    for (const auto& entry : trace.entries()) {
      EXPECT_NE(entry.kind, optimizer::PlanKind::kFilter);
      if (entry.kind == optimizer::PlanKind::kSeqScan) {
        scan_read = entry.rows_read;
        scan_out = entry.tuples_out;
      }
    }
    EXPECT_EQ(scan_read, 4);
    EXPECT_EQ(scan_out, 2);
  }
}

TEST_F(ExecTest, ErrorInPredicateSurfacesCleanly) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (0), (1)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    auto rows = Query(e, "SELECT * FROM t WHERE 1 / v > 0");
    EXPECT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ExecTest, ProjectionArithmeticOnNullYieldsNull) {
  Sql("CREATE TABLE t (v INTEGER)");
  Sql("INSERT INTO t VALUES (NULL)");
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    EXPECT_EQ(Rows(e, "SELECT v + 1, v FROM t"), (Strings{"(NULL, NULL)"}));
  }
}

TEST_F(ExecTest, SelectiveScanDecodesOnlyQualifyingRows) {
  // A 1% unique2 range over 6,000 Wisconsin rows: the scan's predicate runs
  // on the encoded records, so only the 60 rows that qualify become Values.
  ASSERT_TRUE(workload::CreateWisconsinTable(catalog_.get(), "w", 6000).ok());
  const auto decoded_by = [](const auto& run) {
    const int64_t before = ScanRowReaderTestPeer::RowsDecoded();
    run();
    return ScanRowReaderTestPeer::RowsDecoded() - before;
  };
  const std::string select =
      "SELECT unique1, stringu1 FROM w WHERE unique2 >= 1200 AND "
      "unique2 < 1260";
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    const auto run = [&] {
      auto rows = Query(e, select);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows->size(), 60u);
    };
    EXPECT_EQ(decoded_by(run), 60);
    // The interpreter decodes every visible row's predicate column first.
    ScanRowReaderTestPeer::InterpretPredicates interpret;
    EXPECT_EQ(decoded_by(run), 6000);
  }
  // A DML target search reads through the same reader.
  int64_t lo = 2000;
  for (Engine e : kEngines) {
    SCOPED_TRACE(EngineName(e));
    const std::string range = "unique2 >= " + std::to_string(lo) +
                              " AND unique2 < " + std::to_string(lo + 60);
    EXPECT_EQ(decoded_by([&] {
                auto done = Query(e, "UPDATE w SET ten = ten + 1 WHERE " +
                                         range);
                ASSERT_TRUE(done.ok()) << done.status().ToString();
              }),
              60);
    EXPECT_EQ(Rows(e, "SELECT COUNT(*) FROM w WHERE " + range),
              (Strings{"(60)"}));
    lo += 1000;
  }
}

}  // namespace
}  // namespace stagedb::exec
