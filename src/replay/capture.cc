#include "replay/capture.h"

#include <cmath>

#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"

namespace stagedb::replay {

namespace {

int CountPlanNodes(const optimizer::PhysicalPlan& plan) {
  int n = 1;
  for (const auto& child : plan.children) n += CountPlanNodes(*child);
  return n;
}

simcache::ModuleId ModuleForKind(optimizer::PlanKind kind) {
  using optimizer::PlanKind;
  switch (kind) {
    case PlanKind::kSeqScan:
      return kFscan;
    case PlanKind::kIndexScan:
      return kIscan;
    case PlanKind::kSort:
      return kSort;
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
      return kJoin;
    case PlanKind::kHashAggregate:
      return kAggr;
    default:
      return kQual;
  }
}

// Per-tuple instruction-count multiplier relative to a plain scan: joins and
// sorts do substantially more work per tuple (hashing, comparisons) than
// decode-and-qualify operators.
double OpCostMultiplier(optimizer::PlanKind kind) {
  using optimizer::PlanKind;
  switch (kind) {
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
    case PlanKind::kSort:
      return 4.0;
    case PlanKind::kHashAggregate:
      return 2.0;
    default:
      return 1.0;
  }
}

}  // namespace

StatusOr<QueryTrace> CaptureQueryTrace(catalog::Catalog* catalog,
                                       const std::string& sql,
                                       const CaptureCostModel& cost,
                                       bool include_frontend) {
  QueryTrace trace;

  // Parse (real work: tokens + symbol interning).
  auto stmt = parser::ParseStatement(sql, catalog->symbols());
  if (!stmt.ok()) return stmt.status();

  // Optimize (real work: binding + costing + ordering).
  optimizer::Planner planner(catalog);
  auto plan = planner.Plan(**stmt);
  if (!plan.ok()) return plan.status();

  if (include_frontend) {
    trace.segments.push_back({kConnect, 500.0, 0});
    trace.segments.push_back(
        {kParse, cost.parse_micros_per_char * sql.size(), 0});
    trace.segments.push_back(
        {kOptimize, cost.optimize_micros_per_node * CountPlanNodes(**plan),
         0});
  }

  // Execute (real work: every operator's tuple counts).
  exec::OperatorTrace op_trace;
  exec::ExecContext ctx;
  ctx.catalog = catalog;
  ctx.trace = &op_trace;
  auto rows = exec::ExecutePlan(plan->get(), &ctx);
  if (!rows.ok()) return rows.status();

  // Operators registered bottom-up; emit segments in registration order
  // (leaf scans first — the production-line order of the plan).
  for (const exec::OperatorTraceEntry& entry : op_trace.entries()) {
    TraceSegment seg;
    seg.module = ModuleForKind(entry.kind);
    // A scan qualifies rows itself, so its work (decode, predicate, page
    // I/O) follows the rows it read, not the fewer rows it emitted.
    const bool is_scan = entry.kind == optimizer::PlanKind::kSeqScan ||
                         entry.kind == optimizer::PlanKind::kIndexScan;
    const int64_t tuples = std::max<int64_t>(
        is_scan ? entry.rows_read : entry.tuples_out, 1);
    seg.cpu_micros =
        cost.exec_micros_per_tuple * OpCostMultiplier(entry.kind) * tuples;
    if (cost.charge_scan_io && is_scan) {
      seg.io_count = static_cast<int>(
          (tuples + cost.rows_per_io_page - 1) / cost.rows_per_io_page);
      if (entry.kind == optimizer::PlanKind::kIndexScan) {
        seg.io_count += 2;  // index descent
      }
    }
    trace.segments.push_back(seg);
  }

  if (include_frontend) {
    trace.segments.push_back(
        {kSend, 200.0 + 5.0 * rows->size(), cost.log_ios});
    trace.segments.push_back({kDisconnect, 300.0, 0});
  } else if (cost.log_ios > 0) {
    trace.segments.push_back({kSend, 200.0, cost.log_ios});
  }
  return trace;
}

}  // namespace stagedb::replay
