// Physical query plans: the output of the optimize stage and the input of
// both execution engines (volcano baseline and staged).
#ifndef STAGEDB_OPTIMIZER_PLAN_H_
#define STAGEDB_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "optimizer/bound_expr.h"
#include "parser/ast.h"

namespace stagedb::optimizer {

/// Which operator implements a plan node. These map 1:1 onto the execution
/// engine stages of the paper's Figure 3 (fscan, iscan, sort, join with three
/// algorithms, aggregate) plus the mutation operators.
enum class PlanKind {
  kSeqScan,
  kIndexScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kSort,
  kHashAggregate,
  kLimit,
  kValues,
  kInsert,
  kDelete,
  kUpdate,
};

const char* PlanKindName(PlanKind kind);

struct AggSpec;

/// Column types of the mergeable partial state one aggregate contributes to
/// a kPartial kHashAggregate output row: COUNT carries its count, SUM its
/// running sum in the result type (NULL when no non-NULL input), MIN/MAX the
/// partition extremum, and AVG both the sum and the non-NULL count (the
/// merge node re-divides). exec/operators.h's append/merge helpers
/// emit/consume exactly these columns in this order.
std::vector<catalog::TypeId> PartialStateTypes(const AggSpec& spec);

/// Aggregate function instance inside a kHashAggregate node.
struct AggSpec {
  parser::AggFunc func = parser::AggFunc::kCount;
  std::unique_ptr<BoundExpr> arg;  // null for COUNT(*)
  catalog::TypeId result_type = catalog::TypeId::kInt64;
};

/// Sort key over the input schema.
struct SortKey {
  std::unique_ptr<BoundExpr> expr;
  bool descending = false;
};

/// Role of a kHashAggregate node in a parallel (partitioned) aggregation.
/// kComplete is the classic single-packet aggregation; a dop>1 rewrite
/// splits it into N kPartial packets (each aggregating its hash partition of
/// the input into mergeable per-group states) under one kMerge packet that
/// combines the states and finalizes (§4.3 intra-operator parallelism).
enum class AggMode { kComplete, kPartial, kMerge };

/// A physical plan node. A tagged struct keeps the plan walkable by both
/// engines without a visitor hierarchy.
struct PhysicalPlan {
  PlanKind kind = PlanKind::kSeqScan;
  catalog::Schema schema;  // output schema
  std::vector<std::unique_ptr<PhysicalPlan>> children;

  /// Degree of parallelism: how many partition packets the staged engine
  /// instantiates for this node (kHashJoin and kPartial kHashAggregate
  /// only; the engine additionally clamps to its own max_dop). 1 = the
  /// classic one-packet-per-operator shape, byte-compatible with pre-DOP
  /// plans.
  int dop = 1;
  AggMode agg_mode = AggMode::kComplete;

  // Scans and mutations.
  catalog::TableInfo* table = nullptr;
  catalog::IndexInfo* index = nullptr;
  // Inclusive key range over `index`: the access path of a kIndexScan, or
  // of a kDelete/kUpdate that finds its targets through the index (null
  // `index` = heap scan).
  int64_t index_lo = INT64_MIN;
  int64_t index_hi = INT64_MAX;
  // Parameterized index bounds (plan templates): when >= 0, the bound is
  // `params[index_*_param] + index_*_adjust` tightened against the static
  // index_lo/index_hi by frontend::InstantiatePlan (the adjust turns the
  // strict comparisons `col > ?` / `col < ?` into inclusive bounds).
  int index_lo_param = -1;
  int index_hi_param = -1;
  int index_lo_adjust = 0;
  int index_hi_adjust = 0;

  // kFilter / scan and join residual predicates / kDelete / kUpdate
  // condition. A scan evaluates its predicate on every visible row it reads
  // and emits only the rows that qualify.
  std::unique_ptr<BoundExpr> predicate;

  /// kSeqScan / kIndexScan of a SELECT: the table columns the plan above
  /// reads (always including an index scan's key column), one flag per
  /// table column, stamped by the planner's last pass (NarrowRows). A scan
  /// decodes only these and emits them in table order: its `schema`, its
  /// predicate and every column reference above it index that narrowed row.
  /// Empty = every column (DML targets, SELECT *).
  catalog::ColumnSet read_set;

  // kProject expressions; kHashAggregate group-by; kUpdate SET values
  // (parallel to update_columns).
  std::vector<std::unique_ptr<BoundExpr>> exprs;
  std::vector<size_t> update_columns;

  // Equi-join keys (column indices into left/right child schemas).
  std::vector<size_t> left_keys;
  std::vector<size_t> right_keys;

  // kSort.
  std::vector<SortKey> sort_keys;

  // kHashAggregate.
  std::vector<AggSpec> aggregates;

  // kLimit.
  int64_t limit = -1;

  // kValues literal rows (INSERT source).
  std::vector<catalog::Tuple> rows;
  // kValues rows of a parameterized INSERT template: kept unevaluated until
  // frontend::InstantiatePlan substitutes the parameters and folds them into
  // `rows` (the execution engines only ever see `rows`).
  std::vector<std::vector<std::unique_ptr<BoundExpr>>> row_exprs;

  // Cost-model annotations.
  double estimated_rows = 0.0;
  double estimated_cost = 0.0;

  /// Deep copy (children, expressions, rows; table/index pointers shared).
  /// Much cheaper than replanning — this is what a plan-cache hit pays.
  std::unique_ptr<PhysicalPlan> Clone() const;

  /// True if any expression anywhere in the tree contains a kParam
  /// placeholder or a parameterized index bound / VALUES row (i.e. the plan
  /// is a template that must be instantiated before execution).
  bool IsTemplate() const;

  /// EXPLAIN-style tree rendering. `reads=#i,...` names table columns;
  /// every other `#i` indexes the node's input row, which above a narrowed
  /// scan is the narrowed row.
  std::string ToString(int indent = 0) const;
};

}  // namespace stagedb::optimizer

#endif  // STAGEDB_OPTIMIZER_PLAN_H_
