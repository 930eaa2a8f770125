// Tests for the binder / planner: pushdown, access paths, join ordering and
// algorithm selection, aggregate binding.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "optimizer/bound_expr.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/disk_manager.h"

namespace stagedb::optimizer {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::TypeId;
using catalog::Value;
using parser::ParseStatement;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    auto t1 = catalog_->CreateTable(
        "t1", Schema({{"a", TypeId::kInt64, ""},
                      {"b", TypeId::kInt64, ""},
                      {"s", TypeId::kVarchar, ""}}));
    auto t2 = catalog_->CreateTable(
        "t2", Schema({{"a", TypeId::kInt64, ""},
                      {"c", TypeId::kDouble, ""}}));
    ASSERT_TRUE(t1.ok() && t2.ok());
    // t1 big (1000 rows), t2 small (10 rows) to exercise join ordering.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(catalog_
                      ->InsertTuple(*t1, {Value::Int(i), Value::Int(i % 10),
                                          Value::Varchar("x")})
                      .ok());
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(*t2, {Value::Int(i), Value::Double(i * 1.5)})
              .ok());
    }
  }

  std::unique_ptr<PhysicalPlan> Plan(const std::string& sql,
                                     PlannerOptions opts = {}) {
    auto stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get(), opts);
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for " << sql;
    if (!plan.ok()) return nullptr;
    return std::move(*plan);
  }

  Status PlanError(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    if (!stmt.ok()) return stmt.status();
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    return plan.ok() ? Status::OK() : plan.status();
  }

  const PhysicalPlan* FindNode(const PhysicalPlan* root, PlanKind kind) {
    if (root->kind == kind) return root;
    for (const auto& child : root->children) {
      const PhysicalPlan* found = FindNode(child.get(), kind);
      if (found != nullptr) return found;
    }
    return nullptr;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(PlannerTest, SimpleSelectIsProjectOverScan) {
  auto plan = Plan("SELECT a FROM t1");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PlanKind::kProject);
  ASSERT_EQ(plan->children.size(), 1u);
  EXPECT_EQ(plan->children[0]->kind, PlanKind::kSeqScan);
  EXPECT_EQ(plan->schema.num_columns(), 1u);
  EXPECT_EQ(plan->schema.column(0).name, "a");
}

TEST_F(PlannerTest, PredicatePushdownBelowJoin) {
  auto plan =
      Plan("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a WHERE t1.b = 3");
  ASSERT_NE(plan, nullptr);
  const PhysicalPlan* join = FindNode(plan.get(), PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  // The filter on t1.b sits below the join, above t1's scan.
  const PhysicalPlan* filter = FindNode(join, PlanKind::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->children[0]->kind, PlanKind::kSeqScan);
  EXPECT_EQ(filter->children[0]->table->name, "t1");
}

TEST_F(PlannerTest, EquiJoinUsesHashJoinWithKeys) {
  auto plan = Plan("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a");
  const PhysicalPlan* join = FindNode(plan.get(), PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->left_keys.size(), 1u);
  ASSERT_EQ(join->right_keys.size(), 1u);
  // Output schema is the concatenation of both sides.
  EXPECT_EQ(join->schema.num_columns(), 5u);
}

TEST_F(PlannerTest, JoinReorderPutsSmallTableFirst) {
  auto plan = Plan("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a");
  const PhysicalPlan* join = FindNode(plan.get(), PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  // Greedy ordering starts from the smaller relation (t2, 10 rows).
  const PhysicalPlan* left = join->children[0].get();
  while (!left->children.empty()) left = left->children[0].get();
  EXPECT_EQ(left->table->name, "t2");
}

TEST_F(PlannerTest, NonEquiJoinFallsBackToNestedLoop) {
  auto plan = Plan("SELECT * FROM t1 JOIN t2 ON t1.a < t2.a");
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kHashJoin), nullptr);
  const PhysicalPlan* nlj = FindNode(plan.get(), PlanKind::kNestedLoopJoin);
  ASSERT_NE(nlj, nullptr);
  EXPECT_NE(nlj->predicate, nullptr);
}

TEST_F(PlannerTest, ForcedJoinAlgorithms) {
  PlannerOptions merge;
  merge.join_algorithm = PlannerOptions::JoinAlgo::kMerge;
  auto plan = Plan("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a", merge);
  EXPECT_NE(FindNode(plan.get(), PlanKind::kMergeJoin), nullptr);

  PlannerOptions nl;
  nl.join_algorithm = PlannerOptions::JoinAlgo::kNestedLoop;
  plan = Plan("SELECT * FROM t1 JOIN t2 ON t1.a = t2.a", nl);
  EXPECT_NE(FindNode(plan.get(), PlanKind::kNestedLoopJoin), nullptr);
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kHashJoin), nullptr);
}

TEST_F(PlannerTest, IndexScanChosenForRangeOnIndexedColumn) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a", "t1", "a").ok());
  auto plan = Plan("SELECT a FROM t1 WHERE a >= 10 AND a < 20");
  const PhysicalPlan* iscan = FindNode(plan.get(), PlanKind::kIndexScan);
  ASSERT_NE(iscan, nullptr);
  EXPECT_EQ(iscan->index_lo, 10);
  EXPECT_EQ(iscan->index_hi, 19);
  // No residual filter needed: both conjuncts were absorbed.
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kFilter), nullptr);
}

TEST_F(PlannerTest, IndexScanDisabledByOption) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a2", "t1", "a").ok());
  PlannerOptions opts;
  opts.enable_index_scan = false;
  auto plan = Plan("SELECT a FROM t1 WHERE a = 5", opts);
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kIndexScan), nullptr);
  EXPECT_NE(FindNode(plan.get(), PlanKind::kFilter), nullptr);
}

TEST_F(PlannerTest, EqualityUsesPointRange) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a3", "t1", "a").ok());
  auto plan = Plan("SELECT a FROM t1 WHERE a = 42");
  const PhysicalPlan* iscan = FindNode(plan.get(), PlanKind::kIndexScan);
  ASSERT_NE(iscan, nullptr);
  EXPECT_EQ(iscan->index_lo, 42);
  EXPECT_EQ(iscan->index_hi, 42);
}

TEST_F(PlannerTest, AggregatePlanShape) {
  auto plan = Plan("SELECT b, COUNT(*), SUM(a) FROM t1 GROUP BY b");
  ASSERT_EQ(plan->kind, PlanKind::kProject);
  const PhysicalPlan* agg = FindNode(plan.get(), PlanKind::kHashAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->exprs.size(), 1u);       // group key
  EXPECT_EQ(agg->aggregates.size(), 2u);  // COUNT, SUM
  EXPECT_EQ(agg->schema.num_columns(), 3u);
}

TEST_F(PlannerTest, DuplicateAggregatesShareOneSlot) {
  auto plan = Plan("SELECT SUM(a), SUM(a) + 1 FROM t1");
  const PhysicalPlan* agg = FindNode(plan.get(), PlanKind::kHashAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->aggregates.size(), 1u);
}

TEST_F(PlannerTest, HavingBecomesFilterAboveAggregate) {
  auto plan =
      Plan("SELECT b, COUNT(*) FROM t1 GROUP BY b HAVING COUNT(*) > 50");
  const PhysicalPlan* filter = FindNode(plan.get(), PlanKind::kFilter);
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->children.size(), 1u);
  EXPECT_EQ(filter->children[0]->kind, PlanKind::kHashAggregate);
}

TEST_F(PlannerTest, OrderByAndLimitOnTop) {
  auto plan = Plan("SELECT a FROM t1 ORDER BY a DESC LIMIT 5");
  ASSERT_EQ(plan->kind, PlanKind::kLimit);
  EXPECT_EQ(plan->limit, 5);
  ASSERT_EQ(plan->children[0]->kind, PlanKind::kSort);
  ASSERT_EQ(plan->children[0]->sort_keys.size(), 1u);
  EXPECT_TRUE(plan->children[0]->sort_keys[0].descending);
}

TEST_F(PlannerTest, BindErrors) {
  EXPECT_EQ(PlanError("SELECT nosuch FROM t1").code(), StatusCode::kNotFound);
  EXPECT_EQ(PlanError("SELECT a FROM nosuch").code(), StatusCode::kNotFound);
  // Ambiguous column across joined tables.
  EXPECT_EQ(PlanError("SELECT * FROM t1 JOIN t2 ON a = a").code(),
            StatusCode::kInvalidArgument);
  // Non-grouped column outside aggregate.
  EXPECT_EQ(PlanError("SELECT a, COUNT(*) FROM t1 GROUP BY b").code(),
            StatusCode::kInvalidArgument);
  // SELECT * with GROUP BY.
  EXPECT_EQ(PlanError("SELECT * FROM t1 GROUP BY b").code(),
            StatusCode::kInvalidArgument);
  // With GROUP BY, ORDER BY must resolve against the output.
  EXPECT_EQ(
      PlanError("SELECT b, COUNT(*) FROM t1 GROUP BY b ORDER BY a").code(),
      StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, InsertLiteralTypeChecking) {
  EXPECT_TRUE(PlanError("INSERT INTO t2 VALUES (1, 2)").ok());  // int widens
  EXPECT_EQ(PlanError("INSERT INTO t2 VALUES ('x', 1.0)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanError("INSERT INTO t2 VALUES (1)").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, UpdateBindsAssignments) {
  auto plan = Plan("UPDATE t1 SET b = b + 1 WHERE a = 3");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, PlanKind::kUpdate);
  ASSERT_EQ(plan->update_columns.size(), 1u);
  EXPECT_EQ(plan->update_columns[0], 1u);
  EXPECT_NE(plan->predicate, nullptr);
}

TEST_F(PlannerTest, DmlFindsTargetsThroughIndexRange) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a4", "t1", "a").ok());
  for (const char* sql : {"UPDATE t1 SET b = b + 1 WHERE a = 3",
                          "DELETE FROM t1 WHERE a = 3"}) {
    SCOPED_TRACE(sql);
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(plan->index, nullptr);
    EXPECT_EQ(plan->index_lo, 3);
    EXPECT_EQ(plan->index_hi, 3);
    // The full WHERE stays on the node: every candidate is rechecked.
    EXPECT_NE(plan->predicate, nullptr);
    EXPECT_NE(plan->ToString().find("[3..3]"), std::string::npos);

    PlannerOptions no_index;
    no_index.enable_index_scan = false;
    auto heap = Plan(sql, no_index);
    ASSERT_NE(heap, nullptr);
    EXPECT_EQ(heap->index, nullptr);
  }
  // A prepared template carries the parameterized bound for instantiation.
  const std::vector<TypeId> param_types = {TypeId::kInt64};
  for (const char* sql : {"UPDATE t1 SET b = 7 WHERE a = ?",
                          "DELETE FROM t1 WHERE a = ?"}) {
    SCOPED_TRACE(sql);
    auto stmt = ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt, &param_types);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE((*plan)->index, nullptr);
    EXPECT_EQ((*plan)->index_lo_param, 0);
    EXPECT_EQ((*plan)->index_hi_param, 0);
    EXPECT_TRUE((*plan)->IsTemplate());
  }
}

TEST_F(PlannerTest, EstimatesDecreaseWithSelectivePredicates) {
  auto scan = Plan("SELECT * FROM t1");
  auto filtered = Plan("SELECT * FROM t1 WHERE b = 3");
  EXPECT_LT(FindNode(filtered.get(), PlanKind::kFilter)->estimated_rows,
            scan->children[0]->estimated_rows);
}

// ----------------------------------------------------------- BoundExpr ----

TEST(BoundExprTest, EvalArithmetic) {
  auto e = BoundExpr::Binary(
      parser::BinaryOp::kAdd, BoundExpr::Literal(Value::Int(2)),
      BoundExpr::Binary(parser::BinaryOp::kMul,
                        BoundExpr::Literal(Value::Int(3)),
                        BoundExpr::Literal(Value::Int(4))));
  auto v = Eval(*e, {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 14);
}

TEST(BoundExprTest, DivisionByZeroIsError) {
  auto e = BoundExpr::Binary(parser::BinaryOp::kDiv,
                             BoundExpr::Literal(Value::Int(1)),
                             BoundExpr::Literal(Value::Int(0)));
  EXPECT_FALSE(Eval(*e, {}).ok());
}

TEST(BoundExprTest, NullPropagation) {
  auto e = BoundExpr::Binary(parser::BinaryOp::kEq,
                             BoundExpr::Literal(Value::Null()),
                             BoundExpr::Literal(Value::Int(1)));
  auto v = Eval(*e, {});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  // And a NULL predicate counts as false.
  auto p = EvalPredicate(*e, {});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(*p);
}

TEST(BoundExprTest, ThreeValuedAndOr) {
  using parser::BinaryOp;
  auto false_and_null = BoundExpr::Binary(
      BinaryOp::kAnd, BoundExpr::Literal(Value::Bool(false)),
      BoundExpr::Literal(Value::Null()));
  EXPECT_FALSE(Eval(*false_and_null, {})->is_null());
  EXPECT_FALSE(Eval(*false_and_null, {})->bool_value());

  auto true_or_null = BoundExpr::Binary(
      BinaryOp::kOr, BoundExpr::Literal(Value::Bool(true)),
      BoundExpr::Literal(Value::Null()));
  EXPECT_TRUE(Eval(*true_or_null, {})->bool_value());

  auto true_and_null = BoundExpr::Binary(
      BinaryOp::kAnd, BoundExpr::Literal(Value::Bool(true)),
      BoundExpr::Literal(Value::Null()));
  EXPECT_TRUE(Eval(*true_and_null, {})->is_null());
}

TEST(BoundExprTest, ColumnEvalAndMixedTypes) {
  auto e = BoundExpr::Binary(parser::BinaryOp::kMul,
                             BoundExpr::Column(0, TypeId::kInt64),
                             BoundExpr::Column(1, TypeId::kDouble));
  auto v = Eval(*e, {Value::Int(4), Value::Double(2.5)});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 10.0);
  EXPECT_EQ(e->type, TypeId::kDouble);
}

}  // namespace
}  // namespace stagedb::optimizer
