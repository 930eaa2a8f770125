// Test access to the planner's whole-row entry: plans a statement the way
// Planner::Plan does, except that a SELECT stops before the narrowing pass.
#ifndef STAGEDB_TESTS_PLANNER_TEST_PEER_H_
#define STAGEDB_TESTS_PLANNER_TEST_PEER_H_

#include <memory>

#include "common/status.h"
#include "optimizer/planner.h"
#include "parser/ast.h"

namespace stagedb::optimizer {

/// Every scan of a plan from PlanWholeRows reads and emits whole rows, and
/// every column reference keeps the binder's whole-row numbering: the
/// reference for what narrowing may not change.
class PlannerTestPeer {
 public:
  static StatusOr<std::unique_ptr<PhysicalPlan>> PlanWholeRows(
      Planner* planner, const parser::Statement& stmt) {
    planner->narrow_rows_ = false;
    auto plan = planner->Plan(stmt);
    planner->narrow_rows_ = true;
    return plan;
  }
};

}  // namespace stagedb::optimizer

#endif  // STAGEDB_TESTS_PLANNER_TEST_PEER_H_
