// The flat join and aggregation table (exec::FlatRowTable under JoinTable
// and HashAggregator): chains walk in arrival order, keys match as
// Value::Compare says, keys that share their low bits still spread over the
// buckets, and groups come out in first-seen order. The kernel cases drive
// JoinTable directly with hand-made rows and compare in order; the SQL cases
// run on the volcano and the single-partition staged engines, whose output
// order is the kernel's.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "exec/operators.h"
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
using optimizer::PlanKind;
using optimizer::Planner;
using optimizer::PlannerOptions;
using Strings = std::vector<std::string>;

class FlatTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 256);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    staged_ = std::make_unique<engine::StagedEngine>(catalog_.get());
  }

  void TearDown() override { staged_.reset(); }

  /// DDL, or DML through the volcano engine.
  void Sql(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
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
    auto plan = Plan(sql);
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    ASSERT_TRUE(ExecutePlan(plan.get(), &ctx).ok());
  }

  std::unique_ptr<PhysicalPlan> Plan(
      const std::string& sql,
      PlannerOptions::JoinAlgo algo = PlannerOptions::JoinAlgo::kHash) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    PlannerOptions opts;
    opts.join_algorithm = algo;
    Planner planner(catalog_.get(), opts);
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  static const PhysicalPlan* Find(const PhysicalPlan& plan, PlanKind kind) {
    if (plan.kind == kind) return &plan;
    for (const auto& child : plan.children) {
      if (const PhysicalPlan* found = Find(*child, kind)) return found;
    }
    return nullptr;
  }

  /// The rows of `sql`, in output order, on the volcano engine (`staged`
  /// false) or the staged engine.
  Strings Rows(bool staged, const std::string& sql,
               PlannerOptions::JoinAlgo algo = PlannerOptions::JoinAlgo::kHash) {
    auto plan = Plan(sql, algo);
    ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto rows = staged ? staged_->Execute(plan.get(), &ctx)
                       : ExecutePlan(plan.get(), &ctx);
    if (!rows.ok()) return {rows.status().ToString()};
    Strings out;
    for (const Tuple& t : *rows) out.push_back(catalog::TupleToString(t));
    return out;
  }

  /// Every joined row of `table` for each probe row, in emission order.
  static Strings JoinAll(JoinTable* table, const std::vector<Tuple>& probes) {
    Strings out;
    Tuple joined;
    for (const Tuple& probe : probes) {
      EXPECT_TRUE(table->Probe(probe).ok());
      while (true) {
        auto match = table->NextMatch(&joined);
        EXPECT_TRUE(match.ok());
        if (!match.ok() || !*match) break;
        out.push_back(catalog::TupleToString(joined));
      }
    }
    return out;
  }

  storage::MemDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<engine::StagedEngine> staged_;
};

Tuple Ints(std::initializer_list<int64_t> values) {
  Tuple t;
  for (int64_t v : values) t.push_back(Value::Int(v));
  return t;
}

TEST_F(FlatTableTest, DuplicateKeysJoinInArrivalOrder) {
  Sql("CREATE TABLE l (k INTEGER, tag INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, tag INTEGER)");
  auto plan = Plan("SELECT * FROM l JOIN r ON l.k = r.k");
  const PhysicalPlan* join = Find(*plan, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  // Key 7's rows arrive between other keys' rows; a chain may also hold
  // other keys that share its bucket.
  JoinTable table(*join);
  for (const Tuple& row : {Ints({7, 10}), Ints({8, 40}), Ints({7, 20}),
                           Ints({9, 50}), Ints({7, 30}), Ints({8, 60})}) {
    ASSERT_TRUE(table.Build(row).ok());
  }
  EXPECT_EQ(JoinAll(&table, {Ints({7, 1}), Ints({8, 2}), Ints({7, 3})}),
            (Strings{"(7, 1, 7, 10)", "(7, 1, 7, 20)", "(7, 1, 7, 30)",
                     "(8, 2, 8, 40)", "(8, 2, 8, 60)", "(7, 3, 7, 10)",
                     "(7, 3, 7, 20)", "(7, 3, 7, 30)"}));

  // The same through both engines, whose single-partition join emits in
  // probe order, then build arrival order.
  Sql("INSERT INTO l VALUES (7, 1), (8, 2), (7, 3)");
  Sql("INSERT INTO r VALUES (7, 10), (8, 40), (7, 20), (9, 50), (7, 30), "
      "(8, 60)");
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged, "SELECT l.tag, r.tag FROM l JOIN r ON l.k = r.k"),
              (Strings{"(1, 10)", "(1, 20)", "(1, 30)", "(2, 40)", "(2, 60)",
                       "(3, 10)", "(3, 20)", "(3, 30)"}));
  }
}

TEST_F(FlatTableTest, IntKeyMeetsIntegralDoubleKeyOnly) {
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k DOUBLE)");
  auto plan = Plan("SELECT * FROM l JOIN r ON l.k = r.k");
  const PhysicalPlan* join = Find(*plan, PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  JoinTable table(*join);
  for (double d : {3.0, 3.5, 4.25, -2.0}) {
    ASSERT_TRUE(table.Build({Value::Double(d)}).ok());
  }
  ASSERT_TRUE(table.Build({Value::Null()}).ok());  // dropped: never matches
  EXPECT_EQ(JoinAll(&table, {Ints({3}), Ints({4}), Ints({-2}),
                             Tuple{Value::Null()}}),
            (Strings{"(3, 3)", "(-2, -2)"}));

  Sql("INSERT INTO l VALUES (3), (4), (-2), (NULL)");
  Sql("INSERT INTO r VALUES (3.0), (3.5), (4.25), (-2.0), (NULL)");
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged, "SELECT l.k, r.k FROM l JOIN r ON l.k = r.k"),
              (Strings{"(3, 3)", "(-2, -2)"}));
  }
}

TEST_F(FlatTableTest, MultiColumnVarcharKeys) {
  Sql("CREATE TABLE l (a INTEGER, s VARCHAR(32), tag INTEGER)");
  Sql("CREATE TABLE r (s VARCHAR(32), a INTEGER, tag INTEGER)");
  Sql("INSERT INTO l VALUES (1, 'pear', 1), (1, 'apple', 2), (2, 'pear', 3), "
      "(1, 'pear', 4), (2, 'a much longer varchar key', 5)");
  Sql("INSERT INTO r VALUES ('pear', 1, 10), ('pear', 2, 20), "
      "('apple', 2, 30), ('pear', 1, 40), ('a much longer varchar key', 2, "
      "50), ('apple', 1, 60)");
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged,
                   "SELECT l.tag, r.tag FROM l JOIN r ON l.a = r.a AND "
                   "l.s = r.s"),
              (Strings{"(1, 10)", "(1, 40)", "(2, 60)", "(3, 20)", "(4, 10)",
                       "(4, 40)", "(5, 50)"}));
  }
}

TEST_F(FlatTableTest, KeysSharingLowBitsSpreadOverBuckets) {
  // Value::Hash of an int64 is the integer, so keys that are multiples of
  // 2^16 fold to hashes whose low 16 bits agree; the table's mix must still
  // spread them.
  constexpr int64_t kKeys = 4096;
  FlatRowTable rows;
  const std::vector<size_t> key_col = {0};
  for (int64_t i = 0; i < kKeys; ++i) {
    const Tuple row = Ints({i << 16});
    rows.Append(row.data(), row.size(), HashColumns(row, key_col));
  }
  rows.Rethread(rows.size());
  ASSERT_EQ(rows.num_buckets(), static_cast<size_t>(kKeys));
  size_t longest = 0;
  for (int64_t i = 0; i < kKeys; ++i) {
    const Tuple row = Ints({i << 16});
    size_t chain = 0;
    for (uint32_t r = rows.Head(HashColumns(row, key_col));
         r != FlatRowTable::kEnd; r = rows.Next(r)) {
      ++chain;
    }
    longest = std::max(longest, chain);
  }
  // Uniform hashing of 4,096 keys into 4,096 buckets gives a longest chain
  // of about 7; one bucket would hold them all.
  EXPECT_LE(longest, 16u);

  // And the join over such keys finds each key's one partner.
  Sql("CREATE TABLE l (k INTEGER)");
  Sql("CREATE TABLE r (k INTEGER, v INTEGER)");
  std::string lv, rv;
  for (int64_t i = 0; i < 512; ++i) {
    lv += (i ? ", (" : "(") + std::to_string(i << 16) + ")";
    rv += (i ? ", (" : "(") + std::to_string(i << 16) + ", " +
          std::to_string(i) + ")";
  }
  Sql("INSERT INTO l VALUES " + lv);
  Sql("INSERT INTO r VALUES " + rv);
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged,
                   "SELECT COUNT(*), SUM(r.v), SUM(l.k - r.k) FROM l JOIN r "
                   "ON l.k = r.k"),
              (Strings{"(512, 130816, 0)"}));
  }
}

TEST_F(FlatTableTest, ZeroKeyNestedLoopJoinKeepsInputOrder) {
  Sql("CREATE TABLE l (a INTEGER)");
  Sql("CREATE TABLE r (b INTEGER)");
  auto plan = Plan("SELECT * FROM l JOIN r ON l.a < r.b",
                   PlannerOptions::JoinAlgo::kNestedLoop);
  const PhysicalPlan* join = Find(*plan, PlanKind::kNestedLoopJoin);
  ASSERT_NE(join, nullptr);
  ASSERT_TRUE(join->right_keys.empty());
  JoinTable table(*join);
  for (int64_t b : {5, 1, 9, 3}) ASSERT_TRUE(table.Build(Ints({b})).ok());
  EXPECT_EQ(JoinAll(&table, {Ints({2}), Ints({0})}),
            (Strings{"(2, 5)", "(2, 9)", "(2, 3)", "(0, 5)", "(0, 1)",
                     "(0, 9)", "(0, 3)"}));

  Sql("INSERT INTO l VALUES (2), (0)");
  Sql("INSERT INTO r VALUES (5), (1), (9), (3)");
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged, "SELECT l.a, r.b FROM l JOIN r ON l.a < r.b",
                   PlannerOptions::JoinAlgo::kNestedLoop),
              (Strings{"(2, 5)", "(2, 9)", "(2, 3)", "(0, 5)", "(0, 1)",
                       "(0, 9)", "(0, 3)"}));
  }
}

TEST_F(FlatTableTest, GroupsComeOutInFirstSeenOrder) {
  // 101 groups first seen in a scrambled order, enough to regrow the
  // aggregator's bucket array several times.
  Sql("CREATE TABLE t (g INTEGER, v INTEGER)");
  std::string values;
  Strings expected;
  std::vector<int64_t> count(101, 0), sum(101, 0), first_seen;
  for (int64_t i = 0; i < 404; ++i) {
    const int64_t g = (i * 37) % 101;
    if (count[g]++ == 0) first_seen.push_back(g);
    sum[g] += i;
    values += (i ? ", (" : "(") + std::to_string(g) + ", " +
              std::to_string(i) + ")";
  }
  for (int64_t g : first_seen) {
    expected.push_back("(" + std::to_string(g) + ", " +
                       std::to_string(count[g]) + ", " +
                       std::to_string(sum[g]) + ")");
  }
  Sql("INSERT INTO t VALUES " + values);
  for (bool staged : {false, true}) {
    SCOPED_TRACE(staged ? "staged" : "volcano");
    EXPECT_EQ(Rows(staged, "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g"),
              expected);
  }
}

}  // namespace
}  // namespace stagedb::exec
