#include "optimizer/plan.h"

#include "common/string_util.h"

namespace stagedb::optimizer {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
      return "SeqScan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kMergeJoin:
      return "MergeJoin";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kHashAggregate:
      return "HashAggregate";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kValues:
      return "Values";
    case PlanKind::kInsert:
      return "Insert";
    case PlanKind::kDelete:
      return "Delete";
    case PlanKind::kUpdate:
      return "Update";
  }
  return "?";
}

std::vector<catalog::TypeId> PartialStateTypes(const AggSpec& spec) {
  using catalog::TypeId;
  switch (spec.func) {
    case parser::AggFunc::kCount:
      return {TypeId::kInt64};
    case parser::AggFunc::kSum:
      return {TypeId::kDouble};
    case parser::AggFunc::kAvg:
      return {TypeId::kDouble, TypeId::kInt64};  // sum, non-NULL count
    case parser::AggFunc::kMin:
    case parser::AggFunc::kMax:
      return {spec.result_type};
  }
  return {TypeId::kNull};
}

std::unique_ptr<PhysicalPlan> PhysicalPlan::Clone() const {
  auto p = std::make_unique<PhysicalPlan>();
  p->kind = kind;
  p->schema = schema;
  p->dop = dop;
  p->agg_mode = agg_mode;
  p->batch_hint = batch_hint;
  p->table = table;
  p->index = index;
  p->index_lo = index_lo;
  p->index_hi = index_hi;
  p->index_lo_param = index_lo_param;
  p->index_hi_param = index_hi_param;
  p->index_lo_adjust = index_lo_adjust;
  p->index_hi_adjust = index_hi_adjust;
  if (predicate) p->predicate = predicate->Clone();
  p->exprs.reserve(exprs.size());
  for (const auto& e : exprs) p->exprs.push_back(e->Clone());
  p->update_columns = update_columns;
  p->left_keys = left_keys;
  p->right_keys = right_keys;
  p->sort_keys.reserve(sort_keys.size());
  for (const SortKey& k : sort_keys) {
    SortKey copy;
    copy.expr = k.expr->Clone();
    copy.descending = k.descending;
    p->sort_keys.push_back(std::move(copy));
  }
  p->aggregates.reserve(aggregates.size());
  for (const AggSpec& a : aggregates) {
    AggSpec copy;
    copy.func = a.func;
    if (a.arg) copy.arg = a.arg->Clone();
    copy.result_type = a.result_type;
    p->aggregates.push_back(std::move(copy));
  }
  p->limit = limit;
  p->rows = rows;
  p->row_exprs.reserve(row_exprs.size());
  for (const auto& row : row_exprs) {
    std::vector<std::unique_ptr<BoundExpr>> copy;
    copy.reserve(row.size());
    for (const auto& e : row) copy.push_back(e->Clone());
    p->row_exprs.push_back(std::move(copy));
  }
  p->estimated_rows = estimated_rows;
  p->estimated_cost = estimated_cost;
  p->children.reserve(children.size());
  for (const auto& child : children) p->children.push_back(child->Clone());
  return p;
}

bool PhysicalPlan::IsTemplate() const {
  if (index_lo_param >= 0 || index_hi_param >= 0) return true;
  if (!row_exprs.empty()) return true;
  if (predicate && predicate->ContainsParam()) return true;
  for (const auto& e : exprs) {
    if (e->ContainsParam()) return true;
  }
  for (const SortKey& k : sort_keys) {
    if (k.expr->ContainsParam()) return true;
  }
  for (const AggSpec& a : aggregates) {
    if (a.arg && a.arg->ContainsParam()) return true;
  }
  for (const auto& child : children) {
    if (child->IsTemplate()) return true;
  }
  return false;
}

std::string PhysicalPlan::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string line = pad + PlanKindName(kind);
  if (agg_mode == AggMode::kPartial) line += "[partial]";
  if (agg_mode == AggMode::kMerge) line += "[merge]";
  if (dop > 1) line += StrFormat(" dop=%d", dop);
  if (table != nullptr) line += " " + table->name;
  if (index != nullptr) {
    const auto bound = [](int64_t value, int param, int adjust) {
      if (param < 0) return StrFormat("%lld", static_cast<long long>(value));
      std::string s = StrFormat("?%d", param);
      if (adjust != 0) s += StrFormat("%+d", adjust);
      return s;
    };
    line += " [" + bound(index_lo, index_lo_param, index_lo_adjust) + ".." +
            bound(index_hi, index_hi_param, index_hi_adjust) + "]";
  }
  if (predicate) line += " pred=" + predicate->ToString();
  if (!left_keys.empty()) {
    line += " keys=";
    for (size_t i = 0; i < left_keys.size(); ++i) {
      if (i) line += ",";
      line += StrFormat("#%zu=#%zu", left_keys[i], right_keys[i]);
    }
  }
  if (kind == PlanKind::kLimit) {
    line += StrFormat(" %lld", static_cast<long long>(limit));
  }
  line += StrFormat("  (rows~%.0f cost~%.0f)", estimated_rows,
                    estimated_cost);
  line += "\n";
  for (const auto& child : children) line += child->ToString(indent + 1);
  return line;
}

}  // namespace stagedb::optimizer
