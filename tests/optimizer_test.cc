// Tests for the binder / planner: pushdown, access paths, join ordering and
// algorithm selection, aggregate binding.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "optimizer/bound_expr.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "planner_test_peer.h"
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

  /// `sql` planned without the narrowing pass: whole-row scans.
  std::unique_ptr<PhysicalPlan> WholeRowPlan(const std::string& sql,
                                             PlannerOptions opts = {}) {
    auto stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get(), opts);
    auto plan = PlannerTestPeer::PlanWholeRows(&planner, **stmt);
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
  // The predicate on t1.b sits below the join, on t1's scan itself.
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kFilter), nullptr);
  const PhysicalPlan* t1_scan = nullptr;
  for (const auto& child : join->children) {
    if (child->kind == PlanKind::kSeqScan && child->table->name == "t1") {
      t1_scan = child.get();
    }
  }
  ASSERT_NE(t1_scan, nullptr);
  ASSERT_NE(t1_scan->predicate, nullptr);
  EXPECT_NE(t1_scan->ToString().find("SeqScan t1 pred="), std::string::npos);
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
  EXPECT_EQ(FindNode(plan.get(), PlanKind::kFilter), nullptr);
  const PhysicalPlan* scan = FindNode(plan.get(), PlanKind::kSeqScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(scan->predicate, nullptr);
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
  const PhysicalPlan* filtered_scan =
      FindNode(filtered.get(), PlanKind::kSeqScan);
  ASSERT_NE(filtered_scan, nullptr);
  ASSERT_NE(filtered_scan->predicate, nullptr);
  EXPECT_LT(filtered_scan->estimated_rows,
            FindNode(scan.get(), PlanKind::kSeqScan)->estimated_rows);
}

// ----------------------------------------------------------- BoundExpr ----

// ------------------------------------------------------------- read sets --

/// The scan of `table` in `plan` (the first one found).
const PhysicalPlan* ScanOf(const PhysicalPlan* plan, const std::string& table) {
  const bool scan =
      plan->kind == PlanKind::kSeqScan || plan->kind == PlanKind::kIndexScan;
  if (scan && plan->table->name == table) {
    return plan;
  }
  for (const auto& child : plan->children) {
    if (const PhysicalPlan* found = ScanOf(child.get(), table)) return found;
  }
  return nullptr;
}

/// A read set over `width` columns naming `columns`.
catalog::ColumnSet Reads(size_t width, std::vector<size_t> columns) {
  catalog::ColumnSet set(width, false);
  for (size_t c : columns) set[c] = true;
  return set;
}

TEST_F(PlannerTest, ScanReadSetNamesOnlyTheColumnsAbove) {
  struct Case {
    const char* sql;
    catalog::ColumnSet reads;  // of t1 (a, b, s)
  };
  const std::vector<Case> cases = {
      {"SELECT COUNT(*) FROM t1", Reads(3, {})},
      {"SELECT s FROM t1 WHERE b = 3", Reads(3, {1, 2})},
      {"SELECT a FROM t1 ORDER BY b", Reads(3, {0, 1})},
      {"SELECT b, SUM(a) FROM t1 GROUP BY b HAVING COUNT(*) > 1",
       Reads(3, {0, 1})},
      {"SELECT a FROM t1 WHERE a > 5 LIMIT 3", Reads(3, {0})},
      {"SELECT * FROM t1 WHERE b = 3", {}},  // every column
      {"SELECT a, b, s FROM t1", {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    auto plan = Plan(c.sql);
    ASSERT_NE(plan, nullptr);
    const PhysicalPlan* scan = ScanOf(plan.get(), "t1");
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->read_set, c.reads);
    // A plan-cache hit pays a Clone(): the copy keeps the read set.
    EXPECT_EQ(ScanOf(plan->Clone().get(), "t1")->read_set, c.reads);
  }
  // EXPLAIN names the decoded columns, or none, and omits a full read.
  EXPECT_NE(Plan("SELECT COUNT(*) FROM t1")->ToString().find(
                "SeqScan t1 reads=none"),
            std::string::npos);
  EXPECT_NE(Plan("SELECT s FROM t1 WHERE b = 3")->ToString().find(
                "SeqScan t1 pred=(#0 = 3) reads=#1,#2"),
            std::string::npos);
  EXPECT_EQ(Plan("SELECT * FROM t1")->ToString().find("reads="),
            std::string::npos);
}

TEST_F(PlannerTest, JoinSplitsReadSetsAtTheLeftWidth) {
  // Residual only (nested loop): t1.b < t2.a. Declaration order puts t1
  // (width 3) on the left, so t2.a is joined column #3, t2's #0.
  PlannerOptions in_order;
  in_order.enable_join_reorder = false;
  auto nlj = Plan("SELECT COUNT(*) FROM t1 JOIN t2 ON t1.b < t2.a", in_order);
  ASSERT_NE(nlj, nullptr);
  ASSERT_NE(FindNode(nlj.get(), PlanKind::kNestedLoopJoin), nullptr);
  EXPECT_EQ(ScanOf(nlj.get(), "t1")->read_set, Reads(3, {1}));
  EXPECT_EQ(ScanOf(nlj.get(), "t2")->read_set, Reads(2, {0}));
  // Reordered, t2 (width 2) is on the left and t1.b is joined column #3.
  auto reordered = Plan("SELECT COUNT(*) FROM t1 JOIN t2 ON t1.b < t2.a");
  ASSERT_NE(reordered, nullptr);
  EXPECT_EQ(ScanOf(reordered.get(), "t1")->read_set, Reads(3, {1}));
  EXPECT_EQ(ScanOf(reordered.get(), "t2")->read_set, Reads(2, {0}));

  // Hash join: keys, residual and the select list each reach their side.
  auto hash = Plan(
      "SELECT t2.c FROM t1 JOIN t2 ON t1.b = t2.a AND t1.a > 2 WHERE "
      "t1.a + t2.c > 1");
  ASSERT_NE(hash, nullptr);
  const PhysicalPlan* join = FindNode(hash.get(), PlanKind::kHashJoin);
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->predicate, nullptr);
  EXPECT_EQ(ScanOf(hash.get(), "t1")->read_set, Reads(3, {0, 1}));
  EXPECT_TRUE(ScanOf(hash.get(), "t2")->read_set.empty());  // a and c
}

TEST_F(PlannerTest, ParallelPlansKeepReadSets) {
  PlannerOptions parallel;
  parallel.max_dop = 4;
  parallel.parallel_min_rows = 64;
  auto plan = Plan("SELECT b, SUM(a) FROM t1 GROUP BY b", parallel);
  ASSERT_NE(plan, nullptr);
  const PhysicalPlan* merge = FindNode(plan.get(), PlanKind::kHashAggregate);
  ASSERT_NE(merge, nullptr);
  ASSERT_EQ(merge->agg_mode, AggMode::kMerge);
  ASSERT_EQ(merge->children[0]->agg_mode, AggMode::kPartial);
  EXPECT_GT(merge->children[0]->dop, 1);
  // The partial reads the group key and the SUM argument, not s.
  EXPECT_EQ(ScanOf(plan.get(), "t1")->read_set, Reads(3, {0, 1}));

  auto count = Plan("SELECT COUNT(*) FROM t1", parallel);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(ScanOf(count.get(), "t1")->read_set, Reads(3, {}));

  auto join = Plan("SELECT t1.s FROM t1 JOIN t2 ON t1.a = t2.a", parallel);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(ScanOf(join.get(), "t1")->read_set, Reads(3, {0, 2}));
  EXPECT_EQ(ScanOf(join.get(), "t2")->read_set, Reads(2, {0}));
}

TEST_F(PlannerTest, MutationPlansCarryNoReadSet) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a5", "t1", "a").ok());
  for (const char* sql : {"INSERT INTO t1 VALUES (5000, 1, 'y')",
                          "UPDATE t1 SET b = b + 1 WHERE a = 3",
                          "UPDATE t1 SET s = 'z' WHERE b < 2",
                          "DELETE FROM t1 WHERE a = 3",
                          "DELETE FROM t1 WHERE b = 4"}) {
    SCOPED_TRACE(sql);
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr);
    std::vector<const PhysicalPlan*> nodes = {plan.get()};
    while (!nodes.empty()) {
      const PhysicalPlan* node = nodes.back();
      nodes.pop_back();
      EXPECT_TRUE(node->read_set.empty()) << PlanKindName(node->kind);
      for (const auto& child : node->children) nodes.push_back(child.get());
    }
    EXPECT_EQ(plan->ToString().find("reads="), std::string::npos);
  }
}

// ------------------------------------------------------- narrowed rows --

/// The qualified column names of a node's output schema.
std::vector<std::string> ColumnNames(const PhysicalPlan& node) {
  std::vector<std::string> names;
  for (const catalog::Column& c : node.schema.columns()) {
    names.push_back(c.QualifiedName());
  }
  return names;
}

TEST_F(PlannerTest, CountStarScansEmitZeroWidthRows) {
  for (const int dop : {1, 4}) {
    SCOPED_TRACE(dop);
    PlannerOptions opts;
    opts.max_dop = dop;
    opts.parallel_min_rows = 64;
    auto plan = Plan("SELECT COUNT(*) FROM t1", opts);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(ScanOf(plan.get(), "t1")->schema.num_columns(), 0u);
    EXPECT_EQ(plan->schema.num_columns(), 1u);  // the result keeps its shape
  }
  // Over a join, each side emits only its key.
  auto join = Plan("SELECT COUNT(*) FROM t1 JOIN t2 ON t1.b = t2.a");
  ASSERT_NE(join, nullptr);
  const PhysicalPlan* hash = FindNode(join.get(), PlanKind::kHashJoin);
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->schema.num_columns(), 2u);
  EXPECT_EQ(hash->left_keys, std::vector<size_t>{0});
  EXPECT_EQ(hash->right_keys, std::vector<size_t>{0});
}

TEST_F(PlannerTest, ScansEmitTheirReadSetInTableOrder) {
  auto plan = Plan("SELECT s FROM t1 WHERE b = 3");
  ASSERT_NE(plan, nullptr);
  const PhysicalPlan* scan = ScanOf(plan.get(), "t1");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(ColumnNames(*scan), (std::vector<std::string>{"t1.b", "t1.s"}));
  EXPECT_EQ(scan->predicate->ToString(), "(#0 = 3)");
  ASSERT_EQ(plan->kind, PlanKind::kProject);
  EXPECT_EQ(plan->exprs[0]->ToString(), "#1");
  // Without the pass, the same plan reads whole rows in table numbering.
  auto whole = WholeRowPlan("SELECT s FROM t1 WHERE b = 3");
  ASSERT_NE(whole, nullptr);
  EXPECT_EQ(ScanOf(whole.get(), "t1")->schema.num_columns(), 3u);
  EXPECT_EQ(ScanOf(whole.get(), "t1")->predicate->ToString(), "(#1 = 3)");
  EXPECT_EQ(whole->exprs[0]->ToString(), "#2");
}

TEST_F(PlannerTest, JoinRemapsKeysAndResidualAtTheNarrowedLeftWidth) {
  // t1 (a, b, s) is on the left and narrows to (b): t2's columns start at
  // #1 of the joined row, not at #3.
  const std::string sql =
      "SELECT t2.c FROM t1 JOIN t2 ON t1.b = t2.a WHERE t1.b + t2.c > 4";
  PlannerOptions in_order;
  in_order.enable_join_reorder = false;
  for (const auto algo : {PlannerOptions::JoinAlgo::kHash,
                          PlannerOptions::JoinAlgo::kMerge,
                          PlannerOptions::JoinAlgo::kNestedLoop}) {
    in_order.join_algorithm = algo;
    auto plan = Plan(sql, in_order);
    ASSERT_NE(plan, nullptr);
    const PhysicalPlan* join = plan->children[0].get();
    SCOPED_TRACE(PlanKindName(join->kind));
    EXPECT_EQ(ColumnNames(*join),
              (std::vector<std::string>{"t1.b", "t2.a", "t2.c"}));
    EXPECT_EQ(ColumnNames(*join->children[0]),
              std::vector<std::string>{"t1.b"});
    if (join->kind == PlanKind::kNestedLoopJoin) {
      EXPECT_EQ(join->predicate->ToString(),
                "((#0 = #1) AND ((#0 + #2) > 4))");
    } else {
      EXPECT_EQ(join->left_keys, std::vector<size_t>{0});
      EXPECT_EQ(join->right_keys, std::vector<size_t>{0});
      EXPECT_EQ(join->predicate->ToString(), "((#0 + #2) > 4)");
    }
    EXPECT_EQ(plan->exprs[0]->ToString(), "#2");

    auto whole = WholeRowPlan(sql, in_order);
    ASSERT_NE(whole, nullptr);
    const PhysicalPlan* whole_join = whole->children[0].get();
    EXPECT_EQ(whole_join->schema.num_columns(), 5u);
    if (join->kind != PlanKind::kNestedLoopJoin) {
      EXPECT_EQ(whole_join->left_keys, std::vector<size_t>{1});
      EXPECT_EQ(whole_join->predicate->ToString(), "((#1 + #4) > 4)");
    }
    EXPECT_EQ(whole->exprs[0]->ToString(), "#4");
  }
}

TEST_F(PlannerTest, SortBelowProjectAndHavingAreRemapped) {
  // ORDER BY an unselected column sorts below the projection, on the
  // scan's narrowed (b, s) rows.
  auto ordered = Plan("SELECT s FROM t1 ORDER BY b DESC");
  ASSERT_NE(ordered, nullptr);
  ASSERT_EQ(ordered->kind, PlanKind::kProject);
  const PhysicalPlan* sort = ordered->children[0].get();
  ASSERT_EQ(sort->kind, PlanKind::kSort);
  EXPECT_EQ(ColumnNames(*sort), (std::vector<std::string>{"t1.b", "t1.s"}));
  EXPECT_EQ(sort->sort_keys[0].expr->ToString(), "#0");
  EXPECT_EQ(ordered->exprs[0]->ToString(), "#1");

  // GROUP BY and aggregate arguments index the narrowed rows; the HAVING
  // filter above the aggregate sees its unchanged output.
  const std::string having =
      "SELECT s, MAX(b) FROM t1 GROUP BY s HAVING MIN(b) > 1";
  auto plan = Plan(having);
  auto whole = WholeRowPlan(having);
  ASSERT_TRUE(plan && whole);
  const PhysicalPlan* agg = FindNode(plan.get(), PlanKind::kHashAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->exprs[0]->ToString(), "#1");
  EXPECT_EQ(agg->aggregates[0].arg->ToString(), "#0");
  EXPECT_EQ(agg->aggregates[1].arg->ToString(), "#0");
  const PhysicalPlan* filter = FindNode(plan.get(), PlanKind::kFilter);
  const PhysicalPlan* whole_filter = FindNode(whole.get(), PlanKind::kFilter);
  ASSERT_TRUE(filter && whole_filter);
  EXPECT_EQ(filter->predicate->ToString(),
            whole_filter->predicate->ToString());
  EXPECT_EQ(filter->schema.num_columns(), whole_filter->schema.num_columns());
  EXPECT_EQ(ColumnNames(*plan), ColumnNames(*whole));
}

TEST_F(PlannerTest, SelectStarAndMutationPlansAreNotNarrowed) {
  ASSERT_TRUE(catalog_->CreateIndex("t1_a6", "t1", "a").ok());
  for (const char* sql : {"SELECT * FROM t1 WHERE b = 3",
                          "SELECT * FROM t1 JOIN t2 ON t1.a = t2.a",
                          "SELECT * FROM t1 WHERE a = 7",
                          "INSERT INTO t1 VALUES (5000, 1, 'y')",
                          "UPDATE t1 SET b = b + 1 WHERE a = 3",
                          "UPDATE t1 SET s = 'z' WHERE b < 2",
                          "DELETE FROM t1 WHERE a = 3",
                          "DELETE FROM t1 WHERE b = 4"}) {
    SCOPED_TRACE(sql);
    auto plan = Plan(sql);
    auto whole = WholeRowPlan(sql);
    ASSERT_TRUE(plan && whole);
    EXPECT_EQ(plan->ToString(), whole->ToString());
    if (const PhysicalPlan* scan = ScanOf(plan.get(), "t1")) {
      EXPECT_EQ(scan->schema.num_columns(), 3u);
    }
  }
}

TEST_F(PlannerTest, IndexScanReadsItsKeyColumn) {
  // SELECT v FROM t WHERE id = 5: the range consumes the only conjunct, and
  // the scan still reads the key, which the index walk rechecks.
  ASSERT_TRUE(catalog_->CreateIndex("t1_a7", "t1", "a").ok());
  auto plan = Plan("SELECT s FROM t1 WHERE a = 5");
  ASSERT_NE(plan, nullptr);
  const PhysicalPlan* scan = ScanOf(plan.get(), "t1");
  ASSERT_EQ(scan->kind, PlanKind::kIndexScan);
  EXPECT_EQ(scan->predicate, nullptr);
  EXPECT_EQ(scan->read_set, Reads(3, {0, 2}));
  EXPECT_EQ(ColumnNames(*scan), (std::vector<std::string>{"t1.a", "t1.s"}));
  EXPECT_EQ(plan->exprs[0]->ToString(), "#1");
  auto count = Plan("SELECT COUNT(*) FROM t1 WHERE a >= 5 AND a < 9");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(ScanOf(count.get(), "t1")->read_set, Reads(3, {0}));
}

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
