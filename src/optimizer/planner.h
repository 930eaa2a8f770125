// The optimize stage: binds a parsed statement against the catalog and
// produces a costed physical plan (predicate pushdown, access-path selection,
// greedy join ordering, join-algorithm choice, narrowed scan rows).
#ifndef STAGEDB_OPTIMIZER_PLANNER_H_
#define STAGEDB_OPTIMIZER_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/plan.h"
#include "parser/ast.h"

namespace stagedb::optimizer {

/// Planner knobs. The join-algorithm override exists because the paper's join
/// stage hosts all three algorithms (nested-loop, sort-merge, hash) and the
/// ablation benches compare them.
struct PlannerOptions {
  enum class JoinAlgo { kAuto, kHash, kMerge, kNestedLoop };
  JoinAlgo join_algorithm = JoinAlgo::kAuto;
  bool enable_index_scan = true;
  bool enable_predicate_pushdown = true;
  bool enable_join_reorder = true;
  /// Maximum degree of intra-operator parallelism (§4.3) the planner may
  /// assign to a node. 1 (the default) disables the parallelization pass
  /// entirely. Values > 1 only help on a staged engine whose own max_dop
  /// allows the fan-out (the volcano engine runs every node on the calling
  /// thread).
  int max_dop = 1;
  /// DOP heuristic: a node gets one partition packet per this many estimated
  /// input rows (clamped to [1, max_dop]), so small inputs never pay the
  /// fan-out/fan-in overhead (docs/DESIGN.md §7).
  double parallel_min_rows = 512.0;
};

/// Stateless per-statement planner over a catalog.
class Planner {
 public:
  explicit Planner(catalog::Catalog* catalog, PlannerOptions options = {})
      : catalog_(catalog), options_(options) {}

  /// Plans one statement. When the statement contains '?' parameter
  /// placeholders, `param_types` (indexed by parameter ordinal) supplies the
  /// types the statement was normalized with — the frontend plan cache passes
  /// the types of the literals it extracted — and the result is a plan
  /// *template* that frontend::InstantiatePlan must bind before execution.
  /// Unknown/absent types bind as kNull and are checked at instantiation.
  StatusOr<std::unique_ptr<PhysicalPlan>> Plan(
      const parser::Statement& stmt,
      const std::vector<catalog::TypeId>* param_types = nullptr);

 private:
  struct Relation {
    catalog::TableInfo* table = nullptr;
    std::string name;  // effective (aliased) name
    catalog::Schema schema;
  };

  struct AggContext;

  StatusOr<std::unique_ptr<PhysicalPlan>> PlanSelect(
      const parser::SelectStmt& stmt);
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanInsert(
      const parser::InsertStmt& stmt);
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanDelete(
      const parser::DeleteStmt& stmt);
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanUpdate(
      const parser::UpdateStmt& stmt);

  /// Builds the access node for one relation given its local predicates:
  /// consumes usable predicates for an index range when possible and ANDs
  /// the rest into the scan's own predicate.
  StatusOr<std::unique_ptr<PhysicalPlan>> PlanBaseRelation(
      const Relation& rel, std::vector<const parser::Expr*> local_conjuncts);

  /// Gives a DELETE/UPDATE node the index range PlanBaseRelation picks for
  /// the same WHERE on its table (static or parameterized bounds). The node
  /// keeps its full predicate, which the executor rechecks on every
  /// candidate; without a usable range the node keeps index == nullptr and
  /// heap-scans.
  Status ChooseDmlAccessPath(const parser::Expr* where, PhysicalPlan* node);

  /// Binds a parser expression against a schema (optionally in aggregate
  /// context).
  StatusOr<std::unique_ptr<BoundExpr>> Bind(const parser::Expr& expr,
                                            const catalog::Schema& schema,
                                            AggContext* agg = nullptr) const;

  /// The normalized type of parameter `index` (kNull when unknown).
  catalog::TypeId ParamType(size_t index) const;

  /// Post-pass over a SELECT plan (max_dop > 1 only): tags hash joins with a
  /// degree of parallelism and rewrites aggregations into a merge node over
  /// a partitioned partial node, so the staged engine can fan each one out
  /// across its stage's worker pool (§4.3 intra-operator parallelism).
  void Parallelize(std::unique_ptr<PhysicalPlan>* node_ptr) const;
  /// The DOP for a node with `input_rows` estimated input rows.
  int ChooseDop(double input_rows) const;

  friend class PlannerTestPeer;  // plans whole-row reference answers

  catalog::Catalog* catalog_;
  PlannerOptions options_;
  /// False only for a test's whole-row reference plans: SELECT plans then
  /// stop before the narrowing pass, and every scan emits whole rows.
  bool narrow_rows_ = true;
  const std::vector<catalog::TypeId>* param_types_ = nullptr;
};

/// Splits an expression on top-level ANDs.
void SplitConjuncts(const parser::Expr* expr,
                    std::vector<const parser::Expr*>* out);

}  // namespace stagedb::optimizer

#endif  // STAGEDB_OPTIMIZER_PLANNER_H_
