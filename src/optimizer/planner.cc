#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace stagedb::optimizer {

using catalog::Schema;
using catalog::TypeId;
using catalog::Value;
using parser::AggFunc;
using parser::BinaryOp;
using parser::Expr;

namespace {
constexpr double kTuplesPerPage = 50.0;
constexpr double kCpuPerTuple = 0.01;

/// Renumbers `keys` through `map`.
void RemapKeys(std::vector<size_t>* keys, const catalog::SlotMap& map) {
  for (size_t& k : *keys) k = map[k];
}

/// The narrowing pass over a finished SELECT plan. `needed` flags the
/// columns of `node`'s output that its parent reads. On the way down, a node
/// passes its children those plus the columns it reads itself, and a scan
/// keeps the union (plus an index scan's key column) as its read set and
/// emits only those columns, in table order. On the way up, each node
/// rewrites its column references for its children's narrowed rows and
/// returns where each of its own output columns went (kSkipColumn: dropped).
/// Filter, Sort, Limit and joins pass narrowed rows through; Project and
/// HashAggregate outputs keep their layout. A kMerge aggregate reads every
/// partial-state column, and a node kind this pass does not know asks its
/// children for every column.
catalog::SlotMap NarrowRows(PhysicalPlan* node, catalog::ColumnSet needed) {
  const auto all_of = [](const PhysicalPlan& n) {
    return catalog::ColumnSet(n.schema.num_columns(), true);
  };
  const auto none_of = [](const PhysicalPlan& n) {
    return catalog::ColumnSet(n.schema.num_columns(), false);
  };
  const auto remap = [](const catalog::SlotMap& map, BoundExpr* e) {
    if (e != nullptr) e->RemapColumns(map);
  };
  if (node->predicate) node->predicate->MarkColumns(&needed);
  switch (node->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan: {
      if (node->index != nullptr) needed[node->index->column] = true;
      catalog::SlotMap map(needed.size(), catalog::kSkipColumn);
      std::vector<catalog::Column> columns;
      for (size_t i = 0; i < needed.size(); ++i) {
        if (!needed[i]) continue;
        map[i] = columns.size();
        columns.push_back(node->schema.column(i));
      }
      if (columns.size() == needed.size()) {
        needed.clear();  // every column: the scan decodes whole rows
      } else {
        node->schema = Schema(std::move(columns));
      }
      node->read_set = std::move(needed);
      remap(map, node->predicate.get());
      return map;
    }
    case PlanKind::kFilter:
    case PlanKind::kLimit:
    case PlanKind::kSort: {
      for (const SortKey& key : node->sort_keys) key.expr->MarkColumns(&needed);
      PhysicalPlan* input = node->children[0].get();
      catalog::SlotMap map = NarrowRows(input, std::move(needed));
      remap(map, node->predicate.get());
      for (SortKey& key : node->sort_keys) remap(map, key.expr.get());
      node->schema = input->schema;
      return map;
    }
    case PlanKind::kProject: {
      PhysicalPlan* input = node->children[0].get();
      catalog::ColumnSet child = none_of(*input);
      for (const auto& e : node->exprs) e->MarkColumns(&child);
      const catalog::SlotMap map = NarrowRows(input, std::move(child));
      for (auto& e : node->exprs) remap(map, e.get());
      return catalog::IdentitySlots(node->schema.num_columns());
    }
    case PlanKind::kHashAggregate: {
      PhysicalPlan* input = node->children[0].get();
      catalog::ColumnSet child = all_of(*input);
      if (node->agg_mode != AggMode::kMerge) {
        child = none_of(*input);
        for (const auto& e : node->exprs) e->MarkColumns(&child);
        for (const AggSpec& a : node->aggregates) {
          if (a.arg) a.arg->MarkColumns(&child);
        }
      }
      const catalog::SlotMap map = NarrowRows(input, std::move(child));
      for (auto& e : node->exprs) remap(map, e.get());
      for (AggSpec& a : node->aggregates) remap(map, a.arg.get());
      return catalog::IdentitySlots(node->schema.num_columns());
    }
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin: {
      // The residual was marked above over the joined row; split it and the
      // parent's columns at the left input's width. On the way back up,
      // right-side columns move to the narrowed left width.
      PhysicalPlan* left = node->children[0].get();
      PhysicalPlan* right = node->children[1].get();
      const size_t left_width = left->schema.num_columns();
      for (size_t k : node->left_keys) needed[k] = true;
      for (size_t k : node->right_keys) needed[left_width + k] = true;
      catalog::SlotMap map = NarrowRows(
          left, catalog::ColumnSet(needed.begin(),
                                   needed.begin() + left_width));
      const catalog::SlotMap right_map = NarrowRows(
          right,
          catalog::ColumnSet(needed.begin() + left_width, needed.end()));
      RemapKeys(&node->left_keys, map);
      RemapKeys(&node->right_keys, right_map);
      const size_t narrowed_left = left->schema.num_columns();
      for (size_t slot : right_map) {
        map.push_back(slot == catalog::kSkipColumn ? slot
                                                   : narrowed_left + slot);
      }
      remap(map, node->predicate.get());
      node->schema = Schema::Concat(left->schema, right->schema);
      return map;
    }
    default:
      for (auto& child : node->children) {
        NarrowRows(child.get(), all_of(*child));
      }
      return catalog::IdentitySlots(node->schema.num_columns());
  }
}
}  // namespace

void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary &&
      expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(expr->left.get(), out);
    SplitConjuncts(expr->right.get(), out);
    return;
  }
  out->push_back(expr);
}

namespace {

/// Collects every column reference in an expression.
void CollectColumnRefs(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kColumnRef) out->push_back(&expr);
  if (expr.left) CollectColumnRefs(*expr.left, out);
  if (expr.right) CollectColumnRefs(*expr.right, out);
}

/// Collects aggregate calls in an expression.
void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kAggregate) {
    out->push_back(&expr);
    return;  // no nested aggregates
  }
  if (expr.left) CollectAggregates(*expr.left, out);
  if (expr.right) CollectAggregates(*expr.right, out);
}

std::string ColumnRefName(const Expr& ref) {
  return ref.table.empty() ? ref.column : ref.table + "." + ref.column;
}

/// Default output column name for a select item.
std::string OutputName(const parser::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == Expr::Kind::kColumnRef) return item.expr->column;
  return item.expr->ToString();
}

double DefaultSelectivity(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return 0.05;
    case BinaryOp::kNeq:
      return 0.9;
    default:
      return 1.0 / 3.0;
  }
}

}  // namespace

// Aggregate-planning context: maps group-by expression text to group column
// positions and aggregate signatures to slots in the aggregate output.
struct Planner::AggContext {
  bool active = false;
  std::vector<std::string> group_text;     // ToString of each group-by expr
  std::vector<TypeId> group_types;
  std::vector<std::string> agg_text;       // signature of each aggregate
  std::vector<AggSpec>* specs = nullptr;   // owned by the agg plan node
  const Schema* input = nullptr;           // schema below the aggregation
  const Planner* planner = nullptr;
};

StatusOr<std::unique_ptr<BoundExpr>> Planner::Bind(const Expr& expr,
                                                   const Schema& schema,
                                                   AggContext* agg) const {
  // In aggregate context, a subtree matching a group-by expression binds to
  // the corresponding group column of the aggregate output.
  if (agg != nullptr && agg->active) {
    const std::string text = expr.ToString();
    for (size_t i = 0; i < agg->group_text.size(); ++i) {
      if (agg->group_text[i] == text) {
        return BoundExpr::Column(i, agg->group_types[i]);
      }
    }
    if (expr.kind == Expr::Kind::kAggregate) {
      for (size_t i = 0; i < agg->agg_text.size(); ++i) {
        if (agg->agg_text[i] == text) {
          return BoundExpr::AggRef(agg->group_text.size() + i,
                                   (*agg->specs)[i].result_type);
        }
      }
      // Register a new aggregate slot.
      AggSpec spec;
      spec.func = expr.agg_func;
      if (expr.left) {
        auto arg = Bind(*expr.left, *agg->input, nullptr);
        if (!arg.ok()) return arg.status();
        spec.arg = std::move(*arg);
      }
      switch (spec.func) {
        case AggFunc::kCount:
          spec.result_type = TypeId::kInt64;
          break;
        case AggFunc::kAvg:
          spec.result_type = TypeId::kDouble;
          break;
        default:
          spec.result_type = spec.arg ? spec.arg->type : TypeId::kInt64;
          break;
      }
      agg->agg_text.push_back(text);
      agg->specs->push_back(std::move(spec));
      return BoundExpr::AggRef(
          agg->group_text.size() + agg->agg_text.size() - 1,
          agg->specs->back().result_type);
    }
  }

  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return BoundExpr::Literal(expr.literal);
    case Expr::Kind::kParam:
      return BoundExpr::Param(expr.param_index, ParamType(expr.param_index));
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' is only valid in COUNT(*)");
    case Expr::Kind::kColumnRef: {
      if (agg != nullptr && agg->active) {
        return Status::InvalidArgument(
            StrFormat("column '%s' must appear in GROUP BY or an aggregate",
                      ColumnRefName(expr).c_str()));
      }
      auto idx = schema.Find(ColumnRefName(expr));
      if (!idx.ok()) return idx.status();
      return BoundExpr::Column(*idx, schema.column(*idx).type);
    }
    case Expr::Kind::kUnary: {
      auto child = Bind(*expr.left, schema, agg);
      if (!child.ok()) return child;
      return BoundExpr::Unary(expr.unary_op, std::move(*child));
    }
    case Expr::Kind::kBinary: {
      auto l = Bind(*expr.left, schema, agg);
      if (!l.ok()) return l;
      auto r = Bind(*expr.right, schema, agg);
      if (!r.ok()) return r;
      return BoundExpr::Binary(expr.binary_op, std::move(*l), std::move(*r));
    }
    case Expr::Kind::kAggregate:
      return Status::InvalidArgument(
          "aggregate used outside GROUP BY / select list context");
  }
  return Status::Internal("unhandled expression kind in binder");
}

catalog::TypeId Planner::ParamType(size_t index) const {
  if (param_types_ != nullptr && index < param_types_->size()) {
    return (*param_types_)[index];
  }
  return TypeId::kNull;
}

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::Plan(
    const parser::Statement& stmt,
    const std::vector<catalog::TypeId>* param_types) {
  param_types_ = param_types;
  switch (stmt.kind) {
    case parser::Statement::Kind::kSelect:
      return PlanSelect(static_cast<const parser::SelectStmt&>(stmt));
    case parser::Statement::Kind::kInsert:
      return PlanInsert(static_cast<const parser::InsertStmt&>(stmt));
    case parser::Statement::Kind::kDelete:
      return PlanDelete(static_cast<const parser::DeleteStmt&>(stmt));
    case parser::Statement::Kind::kUpdate:
      return PlanUpdate(static_cast<const parser::UpdateStmt&>(stmt));
    default:
      return Status::NotSupported(
          "statement kind is handled outside the planner");
  }
}

// --------------------------------------------------------- base relations --

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::PlanBaseRelation(
    const Relation& rel, std::vector<const Expr*> local_conjuncts) {
  const catalog::TableStats& stats = *rel.table->stats;
  const double base_rows = std::max<double>(1.0, stats.row_count());

  // Try to carve an index range out of the conjuncts. A comparand may be a
  // literal (folded into the static lo/hi) or a '?' parameter of INTEGER
  // normalized type (recorded as a parameterized bound that
  // frontend::InstantiatePlan resolves; at most one parameter per side —
  // further parameterized conjuncts stay in the scan's residual predicate).
  catalog::IndexInfo* best_index = nullptr;
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  int lo_param = -1, hi_param = -1;
  int lo_adjust = 0, hi_adjust = 0;
  std::vector<const Expr*> remaining;
  if (options_.enable_index_scan) {
    for (const Expr* conjunct : local_conjuncts) {
      bool used = false;
      if (conjunct->kind == Expr::Kind::kBinary) {
        const Expr* col = nullptr;
        const Expr* lit = nullptr;
        BinaryOp op = conjunct->binary_op;
        const auto is_comparand = [](const Expr& e) {
          return e.kind == Expr::Kind::kLiteral ||
                 e.kind == Expr::Kind::kParam;
        };
        if (conjunct->left->kind == Expr::Kind::kColumnRef &&
            is_comparand(*conjunct->right)) {
          col = conjunct->left.get();
          lit = conjunct->right.get();
        } else if (conjunct->right->kind == Expr::Kind::kColumnRef &&
                   is_comparand(*conjunct->left)) {
          col = conjunct->right.get();
          lit = conjunct->left.get();
          // Mirror the comparison: lit OP col == col OP' lit.
          switch (op) {
            case BinaryOp::kLt:
              op = BinaryOp::kGt;
              break;
            case BinaryOp::kLe:
              op = BinaryOp::kGe;
              break;
            case BinaryOp::kGt:
              op = BinaryOp::kLt;
              break;
            case BinaryOp::kGe:
              op = BinaryOp::kLe;
              break;
            default:
              break;
          }
        }
        const bool is_param = lit != nullptr &&
                              lit->kind == Expr::Kind::kParam;
        // A parameter of unknown type (user-written '?') may still drive an
        // index range: indexes only exist on INTEGER columns here, so the
        // value is resolved as INTEGER at instantiation (a non-integer value
        // fails there with a clear type error, like any prepared-statement
        // parameter resolution).
        const bool int_comparand =
            lit != nullptr &&
            (is_param ? (ParamType(lit->param_index) == TypeId::kInt64 ||
                         ParamType(lit->param_index) == TypeId::kNull)
                      : lit->literal.type() == TypeId::kInt64);
        if (col != nullptr && int_comparand) {
          auto idx_or = rel.schema.Find(ColumnRefName(*col));
          if (idx_or.ok()) {
            catalog::IndexInfo* index =
                catalog_->FindIndexOn(rel.table->id, *idx_or);
            if (index != nullptr &&
                (best_index == nullptr || index == best_index)) {
              const int64_t v = is_param ? 0 : lit->literal.int_value();
              const int p =
                  is_param ? static_cast<int>(lit->param_index) : -1;
              const auto take_lo = [&](int adjust) {
                if (is_param) {
                  if (lo_param >= 0) return false;  // one parameter per side
                  lo_param = p;
                  lo_adjust = adjust;
                } else {
                  lo = std::max(lo, v + adjust);
                }
                return true;
              };
              const auto take_hi = [&](int adjust) {
                if (is_param) {
                  if (hi_param >= 0) return false;
                  hi_param = p;
                  hi_adjust = adjust;
                } else {
                  hi = std::min(hi, v + adjust);
                }
                return true;
              };
              switch (op) {
                case BinaryOp::kEq:
                  if (is_param && (lo_param >= 0 || hi_param >= 0)) break;
                  used = take_lo(0) && take_hi(0);
                  break;
                case BinaryOp::kLt:
                  used = take_hi(-1);
                  break;
                case BinaryOp::kLe:
                  used = take_hi(0);
                  break;
                case BinaryOp::kGt:
                  used = take_lo(1);
                  break;
                case BinaryOp::kGe:
                  used = take_lo(0);
                  break;
                default:
                  break;
              }
              if (used) best_index = index;
            }
          }
        }
      }
      if (!used) remaining.push_back(conjunct);
    }
  } else {
    remaining = local_conjuncts;
  }

  std::unique_ptr<PhysicalPlan> plan;
  if (best_index != nullptr) {
    plan = std::make_unique<PhysicalPlan>();
    plan->kind = PlanKind::kIndexScan;
    plan->table = rel.table;
    plan->index = best_index;
    plan->index_lo = lo;
    plan->index_hi = hi;
    plan->index_lo_param = lo_param;
    plan->index_hi_param = hi_param;
    plan->index_lo_adjust = lo_adjust;
    plan->index_hi_adjust = hi_adjust;
    plan->schema = rel.schema;
    double frac;
    if (lo_param >= 0 || hi_param >= 0) {
      // Parameterized bound: the value is unknown at plan time. Point lookup
      // (both bounds from the same '?') estimates like equality; open ranges
      // get the generic inequality guess.
      frac = (lo_param >= 0 && lo_param == hi_param)
                 ? stats.EqSelectivity(best_index->column)
                 : 1.0 / 3.0;
    } else {
      const double sel = stats.RangeSelectivity(
          best_index->column, Value::Int(lo == INT64_MIN ? 0 : lo),
          Value::Int(hi == INT64_MAX ? 0 : hi));
      frac = (lo == INT64_MIN && hi == INT64_MAX) ? 1.0
             : (lo == hi ? stats.EqSelectivity(best_index->column)
                         : std::max(sel, 1e-6));
    }
    plan->estimated_rows = std::max(1.0, base_rows * frac);
    plan->estimated_cost =
        std::log2(base_rows + 2) + plan->estimated_rows * kCpuPerTuple * 4;
  } else {
    plan = std::make_unique<PhysicalPlan>();
    plan->kind = PlanKind::kSeqScan;
    plan->table = rel.table;
    plan->schema = rel.schema;
    plan->estimated_rows = base_rows;
    plan->estimated_cost =
        base_rows / kTuplesPerPage + base_rows * kCpuPerTuple;
  }

  if (!remaining.empty()) {
    // AND the remaining conjuncts into the access node's own predicate: the
    // scan qualifies each row it reads, so only survivors leave the scan
    // stage (no separate filter hop).
    std::unique_ptr<BoundExpr> pred;
    double sel = 1.0;
    for (const Expr* conjunct : remaining) {
      auto bound = Bind(*conjunct, rel.schema, nullptr);
      if (!bound.ok()) return bound.status();
      sel *= conjunct->kind == Expr::Kind::kBinary
                 ? DefaultSelectivity(conjunct->binary_op)
                 : 0.5;
      pred = pred ? BoundExpr::Binary(BinaryOp::kAnd, std::move(pred),
                                      std::move(*bound))
                  : std::move(*bound);
    }
    plan->predicate = std::move(pred);
    plan->estimated_cost += plan->estimated_rows * kCpuPerTuple;
    plan->estimated_rows = std::max(1.0, plan->estimated_rows * sel);
  }
  return plan;
}

// ------------------------------------------------------------------ SELECT --

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::PlanSelect(
    const parser::SelectStmt& stmt) {
  // 1. Resolve relations.
  std::vector<Relation> relations;
  {
    auto add = [&](const parser::TableRef& ref) -> Status {
      auto table_or = catalog_->GetTable(ref.table);
      if (!table_or.ok()) return table_or.status();
      Relation rel;
      rel.table = *table_or;
      rel.name = ref.EffectiveName();
      rel.schema = rel.table->schema.Qualified(rel.name);
      for (const Relation& existing : relations) {
        if (existing.name == rel.name) {
          return Status::InvalidArgument(
              StrFormat("duplicate table name '%s'", rel.name.c_str()));
        }
      }
      relations.push_back(std::move(rel));
      return Status::OK();
    };
    STAGEDB_RETURN_IF_ERROR(add(stmt.from));
    for (const parser::JoinClause& join : stmt.joins) {
      STAGEDB_RETURN_IF_ERROR(add(join.table));
    }
  }

  // 2. Pool all conjuncts from WHERE and every ON clause (inner joins).
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  for (const parser::JoinClause& join : stmt.joins) {
    SplitConjuncts(join.on.get(), &conjuncts);
  }

  // 3. Compute, for every conjunct, the set of relations it references.
  struct ConjunctInfo {
    const Expr* expr;
    std::set<size_t> rels;
    bool consumed = false;
  };
  std::vector<ConjunctInfo> infos;
  for (const Expr* conjunct : conjuncts) {
    ConjunctInfo info;
    info.expr = conjunct;
    std::vector<const Expr*> refs;
    CollectColumnRefs(*conjunct, &refs);
    for (const Expr* ref : refs) {
      const std::string name = ColumnRefName(*ref);
      size_t owner = SIZE_MAX;
      for (size_t r = 0; r < relations.size(); ++r) {
        if (relations[r].schema.Find(name).ok()) {
          if (owner != SIZE_MAX) {
            return Status::InvalidArgument(
                StrFormat("ambiguous column '%s'", name.c_str()));
          }
          owner = r;
        }
      }
      if (owner == SIZE_MAX) {
        return Status::NotFound(StrFormat("column '%s'", name.c_str()));
      }
      info.rels.insert(owner);
    }
    infos.push_back(std::move(info));
  }

  // 4. Base plans with pushed-down single-relation predicates.
  std::vector<std::unique_ptr<PhysicalPlan>> base(relations.size());
  for (size_t r = 0; r < relations.size(); ++r) {
    std::vector<const Expr*> local;
    if (options_.enable_predicate_pushdown) {
      for (ConjunctInfo& info : infos) {
        if (!info.consumed && info.rels.size() == 1 &&
            *info.rels.begin() == r) {
          local.push_back(info.expr);
          info.consumed = true;
        }
      }
    }
    auto plan = PlanBaseRelation(relations[r], std::move(local));
    if (!plan.ok()) return plan.status();
    base[r] = std::move(*plan);
  }

  // 5. Greedy join ordering. `joined` maps relation -> column offset in the
  // current combined schema (SIZE_MAX when not yet joined).
  std::unique_ptr<PhysicalPlan> plan;
  std::vector<size_t> offset(relations.size(), SIZE_MAX);
  std::set<size_t> joined;
  {
    // Start with the cheapest base relation (or the FROM table in
    // declaration order when reordering is disabled).
    size_t first = 0;
    if (options_.enable_join_reorder) {
      for (size_t r = 1; r < relations.size(); ++r) {
        if (base[r]->estimated_rows < base[first]->estimated_rows) first = r;
      }
    }
    plan = std::move(base[first]);
    offset[first] = 0;
    joined.insert(first);
  }

  auto combined_find = [&](const std::string& name,
                           size_t* column) -> bool {
    for (size_t r : joined) {
      auto idx = relations[r].schema.Find(name);
      if (idx.ok()) {
        *column = offset[r] + *idx;
        return true;
      }
    }
    return false;
  };

  while (joined.size() < relations.size()) {
    // Choose the next relation: prefer ones connected by an equi predicate,
    // pick the candidate with minimal estimated result size.
    size_t best = SIZE_MAX;
    bool best_connected = false;
    double best_rows = 0;
    for (size_t r = 0; r < relations.size(); ++r) {
      if (joined.count(r)) continue;
      bool connected = false;
      for (const ConjunctInfo& info : infos) {
        if (info.consumed || !info.rels.count(r)) continue;
        bool others_joined = true;
        for (size_t o : info.rels) {
          if (o != r && !joined.count(o)) others_joined = false;
        }
        if (others_joined && info.rels.size() > 1) connected = true;
      }
      const double rows = base[r]->estimated_rows;
      const bool better =
          best == SIZE_MAX ||
          (connected && !best_connected) ||
          (connected == best_connected && rows < best_rows);
      if (better) {
        best = r;
        best_connected = connected;
        best_rows = rows;
      }
      if (!options_.enable_join_reorder) {
        // Keep declaration order: pick the first unjoined relation.
        best = r;
        break;
      }
    }

    const size_t r = best;
    const size_t left_width = plan->schema.num_columns();
    Schema combined = Schema::Concat(plan->schema, base[r]->schema);

    // Gather applicable conjuncts (all referenced relations now available).
    std::vector<const Expr*> applicable;
    for (ConjunctInfo& info : infos) {
      if (info.consumed) continue;
      bool all = true;
      for (size_t o : info.rels) {
        if (o != r && !joined.count(o)) all = false;
      }
      if (all && info.rels.count(r)) {
        applicable.push_back(info.expr);
        info.consumed = true;
      }
    }

    // Split equi-join keys from residual predicates.
    std::vector<size_t> left_keys, right_keys;
    std::vector<const Expr*> residual;
    for (const Expr* conjunct : applicable) {
      bool is_equi = false;
      if (conjunct->kind == Expr::Kind::kBinary &&
          conjunct->binary_op == BinaryOp::kEq &&
          conjunct->left->kind == Expr::Kind::kColumnRef &&
          conjunct->right->kind == Expr::Kind::kColumnRef) {
        const std::string lname = ColumnRefName(*conjunct->left);
        const std::string rname = ColumnRefName(*conjunct->right);
        auto lidx = relations[r].schema.Find(lname);
        auto ridx = relations[r].schema.Find(rname);
        size_t outer_col;
        if (lidx.ok() && !ridx.ok() && combined_find(rname, &outer_col)) {
          left_keys.push_back(outer_col);
          right_keys.push_back(*lidx);
          is_equi = true;
        } else if (ridx.ok() && !lidx.ok() &&
                   combined_find(lname, &outer_col)) {
          left_keys.push_back(outer_col);
          right_keys.push_back(*ridx);
          is_equi = true;
        }
      }
      if (!is_equi) residual.push_back(conjunct);
    }

    // Pick the join algorithm.
    PlanKind algo;
    switch (options_.join_algorithm) {
      case PlannerOptions::JoinAlgo::kHash:
        algo = left_keys.empty() ? PlanKind::kNestedLoopJoin
                                 : PlanKind::kHashJoin;
        break;
      case PlannerOptions::JoinAlgo::kMerge:
        algo = left_keys.empty() ? PlanKind::kNestedLoopJoin
                                 : PlanKind::kMergeJoin;
        break;
      case PlannerOptions::JoinAlgo::kNestedLoop:
        algo = PlanKind::kNestedLoopJoin;
        break;
      case PlannerOptions::JoinAlgo::kAuto:
      default:
        algo = left_keys.empty() ? PlanKind::kNestedLoopJoin
                                 : PlanKind::kHashJoin;
        break;
    }

    // A nested-loop join evaluates no hash/merge keys: fold any extracted
    // equi pairs back into its predicate so a forced NLJ stays an equi-join.
    std::unique_ptr<BoundExpr> key_pred;
    if (algo == PlanKind::kNestedLoopJoin && !left_keys.empty()) {
      for (size_t k = 0; k < left_keys.size(); ++k) {
        const size_t lc = left_keys[k];
        const size_t rc = left_width + right_keys[k];
        auto eq = BoundExpr::Binary(
            BinaryOp::kEq,
            BoundExpr::Column(lc, combined.column(lc).type),
            BoundExpr::Column(rc, combined.column(rc).type));
        key_pred = key_pred ? BoundExpr::Binary(BinaryOp::kAnd,
                                                std::move(key_pred),
                                                std::move(eq))
                            : std::move(eq);
      }
      left_keys.clear();
      right_keys.clear();
    }

    auto join = std::make_unique<PhysicalPlan>();
    join->kind = algo;
    join->schema = combined;
    const double lrows = plan->estimated_rows;
    const double rrows = base[r]->estimated_rows;
    if (!left_keys.empty()) {
      join->left_keys = left_keys;
      join->right_keys = right_keys;
      join->estimated_rows =
          std::max(1.0, lrows * rrows / std::max(lrows, rrows));
      join->estimated_cost = plan->estimated_cost + base[r]->estimated_cost +
                             (lrows + rrows) * kCpuPerTuple * 2;
      if (algo == PlanKind::kMergeJoin) {
        join->estimated_cost += (lrows * std::log2(lrows + 2) +
                                 rrows * std::log2(rrows + 2)) *
                                kCpuPerTuple;
      }
    } else {
      join->estimated_rows = std::max(1.0, lrows * rrows * 0.1);
      join->estimated_cost = plan->estimated_cost + base[r]->estimated_cost +
                             lrows * rrows * kCpuPerTuple;
    }
    // Residual predicates evaluated on the joined row.
    std::unique_ptr<BoundExpr> residual_pred = std::move(key_pred);
    if (residual_pred) {
      join->estimated_rows =
          std::max(1.0, lrows * rrows / std::max(lrows, rrows));
    }
    for (const Expr* conjunct : residual) {
      auto bound = Bind(*conjunct, combined, nullptr);
      if (!bound.ok()) return bound.status();
      residual_pred = residual_pred
                          ? BoundExpr::Binary(BinaryOp::kAnd,
                                              std::move(residual_pred),
                                              std::move(*bound))
                          : std::move(*bound);
      join->estimated_rows =
          std::max(1.0, join->estimated_rows / 3.0);
    }
    join->predicate = std::move(residual_pred);
    join->children.push_back(std::move(plan));
    join->children.push_back(std::move(base[r]));
    plan = std::move(join);

    offset[r] = left_width;
    joined.insert(r);
  }

  // 6. Any remaining conjuncts (e.g. pushdown disabled) become a filter here.
  {
    std::unique_ptr<BoundExpr> pred;
    for (ConjunctInfo& info : infos) {
      if (info.consumed) continue;
      auto bound = Bind(*info.expr, plan->schema, nullptr);
      if (!bound.ok()) return bound.status();
      pred = pred ? BoundExpr::Binary(BinaryOp::kAnd, std::move(pred),
                                      std::move(*bound))
                  : std::move(*bound);
      info.consumed = true;
    }
    if (pred) {
      auto filter = std::make_unique<PhysicalPlan>();
      filter->kind = PlanKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(pred);
      filter->estimated_rows = std::max(1.0, plan->estimated_rows / 3.0);
      filter->estimated_cost =
          plan->estimated_cost + plan->estimated_rows * kCpuPerTuple;
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  }

  // 7. Aggregation.
  bool needs_agg = !stmt.group_by.empty();
  for (const parser::SelectItem& item : stmt.items) {
    if (item.expr && item.expr->ContainsAggregate()) needs_agg = true;
  }
  if (stmt.having) needs_agg = true;

  AggContext agg;
  if (needs_agg) {
    auto agg_plan = std::make_unique<PhysicalPlan>();
    agg_plan->kind = PlanKind::kHashAggregate;
    agg.active = true;
    agg.specs = &agg_plan->aggregates;
    agg.input = &plan->schema;
    agg.planner = this;

    std::vector<catalog::Column> out_cols;
    for (const auto& group_expr : stmt.group_by) {
      auto bound = Bind(*group_expr, plan->schema, nullptr);
      if (!bound.ok()) return bound.status();
      agg.group_text.push_back(group_expr->ToString());
      agg.group_types.push_back((*bound)->type);
      out_cols.push_back(
          {group_expr->kind == Expr::Kind::kColumnRef ? group_expr->column
                                                      : group_expr->ToString(),
           (*bound)->type, ""});
      agg_plan->exprs.push_back(std::move(*bound));
    }
    // Bind select items and HAVING now so every aggregate gets a slot; the
    // bound results are re-derived below for the projection.
    for (const parser::SelectItem& item : stmt.items) {
      if (item.expr == nullptr) {
        return Status::InvalidArgument("SELECT * cannot be used with GROUP BY");
      }
      auto bound = Bind(*item.expr, plan->schema, &agg);
      if (!bound.ok()) return bound.status();
    }
    if (stmt.having) {
      auto bound = Bind(*stmt.having, plan->schema, &agg);
      if (!bound.ok()) return bound.status();
    }
    for (size_t i = 0; i < agg_plan->aggregates.size(); ++i) {
      out_cols.push_back(
          {agg.agg_text[i], agg_plan->aggregates[i].result_type, ""});
    }
    agg_plan->schema = Schema(std::move(out_cols));
    const double groups =
        stmt.group_by.empty()
            ? 1.0
            : std::max(1.0, std::min(plan->estimated_rows,
                                     plan->estimated_rows / 10.0));
    agg_plan->estimated_rows = groups;
    agg_plan->estimated_cost =
        plan->estimated_cost + plan->estimated_rows * kCpuPerTuple * 2;
    // Re-point the agg input schema reference (plan moves next).
    agg_plan->children.push_back(std::move(plan));
    agg.input = &agg_plan->children[0]->schema;
    plan = std::move(agg_plan);

    if (stmt.having) {
      auto having = Bind(*stmt.having, plan->children[0]->schema, &agg);
      if (!having.ok()) return having.status();
      auto filter = std::make_unique<PhysicalPlan>();
      filter->kind = PlanKind::kFilter;
      filter->schema = plan->schema;
      filter->predicate = std::move(*having);
      filter->estimated_rows = std::max(1.0, plan->estimated_rows / 3.0);
      filter->estimated_cost = plan->estimated_cost;
      filter->children.push_back(std::move(plan));
      plan = std::move(filter);
    }
  }

  // 8. Projection.
  {
    auto project = std::make_unique<PhysicalPlan>();
    project->kind = PlanKind::kProject;
    std::vector<catalog::Column> out_cols;
    const Schema& in_schema =
        needs_agg ? (agg.input != nullptr ? plan->schema : plan->schema)
                  : plan->schema;
    for (const parser::SelectItem& item : stmt.items) {
      if (item.expr == nullptr) {
        // SELECT *: every input column.
        for (size_t i = 0; i < in_schema.num_columns(); ++i) {
          project->exprs.push_back(
              BoundExpr::Column(i, in_schema.column(i).type));
          out_cols.push_back(in_schema.column(i));
        }
        continue;
      }
      StatusOr<std::unique_ptr<BoundExpr>> bound =
          needs_agg ? Bind(*item.expr, plan->schema, &agg)
                    : Bind(*item.expr, in_schema, nullptr);
      if (!bound.ok()) return bound.status();
      out_cols.push_back({OutputName(item), (*bound)->type, ""});
      project->exprs.push_back(std::move(*bound));
    }
    project->schema = Schema(std::move(out_cols));
    project->estimated_rows = plan->estimated_rows;
    project->estimated_cost =
        plan->estimated_cost + plan->estimated_rows * kCpuPerTuple;
    project->children.push_back(std::move(plan));
    plan = std::move(project);
  }

  // 9. ORDER BY. Keys referencing the projection output (alias, output column
  // name, or a textual select-item match) sort above the projection; in the
  // non-aggregated case, keys over dropped columns are legal too and the sort
  // is placed below the projection instead.
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> above_keys;
    bool all_above = true;
    for (const parser::OrderByItem& item : stmt.order_by) {
      SortKey key;
      key.descending = item.descending;
      bool bound_ok = false;
      if (item.expr->kind == Expr::Kind::kColumnRef) {
        auto idx = plan->schema.Find(ColumnRefName(*item.expr));
        if (idx.ok()) {
          key.expr = BoundExpr::Column(*idx, plan->schema.column(*idx).type);
          bound_ok = true;
        }
      }
      if (!bound_ok) {
        const std::string text = item.expr->ToString();
        for (size_t i = 0; i < stmt.items.size() && !bound_ok; ++i) {
          if (stmt.items[i].expr != nullptr &&
              stmt.items[i].expr->ToString() == text) {
            key.expr = BoundExpr::Column(i, plan->schema.column(i).type);
            bound_ok = true;
          }
        }
      }
      if (!bound_ok) {
        all_above = false;
        break;
      }
      above_keys.push_back(std::move(key));
    }

    auto sort = std::make_unique<PhysicalPlan>();
    sort->kind = PlanKind::kSort;
    if (all_above) {
      sort->schema = plan->schema;
      sort->sort_keys = std::move(above_keys);
      sort->estimated_rows = plan->estimated_rows;
      sort->estimated_cost =
          plan->estimated_cost +
          plan->estimated_rows * std::log2(plan->estimated_rows + 2) *
              kCpuPerTuple;
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
    } else {
      if (needs_agg) {
        return Status::InvalidArgument(
            "ORDER BY expression must appear in the select list when "
            "GROUP BY is used");
      }
      // Bind every key against the projection input and sort below it.
      PhysicalPlan* project = plan.get();
      const Schema& in_schema = project->children[0]->schema;
      for (const parser::OrderByItem& item : stmt.order_by) {
        SortKey key;
        key.descending = item.descending;
        auto bound = Bind(*item.expr, in_schema, nullptr);
        if (!bound.ok()) {
          return Status::InvalidArgument(StrFormat(
              "cannot resolve ORDER BY expression '%s' (%s)",
              item.expr->ToString().c_str(),
              bound.status().message().c_str()));
        }
        key.expr = std::move(*bound);
        sort->sort_keys.push_back(std::move(key));
      }
      sort->schema = in_schema;
      sort->estimated_rows = project->children[0]->estimated_rows;
      sort->estimated_cost =
          project->children[0]->estimated_cost +
          sort->estimated_rows * std::log2(sort->estimated_rows + 2) *
              kCpuPerTuple;
      sort->children.push_back(std::move(project->children[0]));
      project->children[0] = std::move(sort);
    }
  }

  // 10. LIMIT.
  if (stmt.limit >= 0) {
    auto limit = std::make_unique<PhysicalPlan>();
    limit->kind = PlanKind::kLimit;
    limit->schema = plan->schema;
    limit->limit = stmt.limit;
    limit->estimated_rows =
        std::min<double>(plan->estimated_rows, static_cast<double>(stmt.limit));
    limit->estimated_cost = plan->estimated_cost;
    limit->children.push_back(std::move(plan));
    plan = std::move(limit);
  }

  // 11. Intra-query parallelism (§4.3): tag hash joins with a DOP and split
  // aggregations into merge-over-partial shapes for the staged engine.
  if (options_.max_dop > 1) Parallelize(&plan);

  // 12. Narrow rows: each scan decodes and emits only the columns the plan
  // above reads, and every column reference above it is renumbered.
  if (narrow_rows_) {
    NarrowRows(plan.get(),
               catalog::ColumnSet(plan->schema.num_columns(), true));
  }
  return plan;
}

int Planner::ChooseDop(double input_rows) const {
  const double unit = std::max(1.0, options_.parallel_min_rows);
  const double by_rows = input_rows / unit;
  if (by_rows >= options_.max_dop) return options_.max_dop;
  return std::max(1, static_cast<int>(by_rows));
}

void Planner::Parallelize(std::unique_ptr<PhysicalPlan>* node_ptr) const {
  PhysicalPlan* node = node_ptr->get();
  for (auto& child : node->children) Parallelize(&child);

  if (node->kind == PlanKind::kHashJoin && !node->left_keys.empty()) {
    // The engine creates `dop` build/probe packets, each fed the hash
    // partition of both inputs that its share of the key space maps to.
    node->dop = ChooseDop(node->children[0]->estimated_rows +
                          node->children[1]->estimated_rows);
    return;
  }

  if (node->kind != PlanKind::kHashAggregate ||
      node->agg_mode != AggMode::kComplete) {
    return;
  }
  const int dop = ChooseDop(node->children[0]->estimated_rows);
  if (dop <= 1) return;

  // Rewrite: the node keeps its place (and output schema) as the merge
  // packet; a new partial node underneath takes the group-by expressions,
  // the aggregate specs, and the original input, and is partitioned on the
  // group keys (round-robin when there are none — the merge then combines
  // the partial states of the single global group).
  auto partial = std::make_unique<PhysicalPlan>();
  partial->kind = PlanKind::kHashAggregate;
  partial->agg_mode = AggMode::kPartial;
  partial->dop = dop;
  partial->children = std::move(node->children);
  partial->exprs = std::move(node->exprs);
  partial->aggregates = std::move(node->aggregates);
  partial->estimated_rows = node->estimated_rows;
  partial->estimated_cost = node->estimated_cost;

  const size_t num_groups =
      node->schema.num_columns() - partial->aggregates.size();
  std::vector<catalog::Column> cols;
  for (size_t i = 0; i < num_groups; ++i) {
    cols.push_back(node->schema.column(i));
  }
  for (size_t i = 0; i < partial->aggregates.size(); ++i) {
    const std::vector<catalog::TypeId> types =
        PartialStateTypes(partial->aggregates[i]);
    for (size_t j = 0; j < types.size(); ++j) {
      cols.push_back({StrFormat("partial%zu_%zu", i, j), types[j], ""});
    }
  }
  partial->schema = catalog::Schema(std::move(cols));

  // The merge node groups on the leading key columns of the partial rows
  // and needs only each aggregate's function and result type; the argument
  // expressions were already evaluated by the partials.
  node->agg_mode = AggMode::kMerge;
  node->exprs.clear();
  node->aggregates.clear();
  for (const AggSpec& a : partial->aggregates) {
    AggSpec copy;
    copy.func = a.func;
    copy.result_type = a.result_type;
    node->aggregates.push_back(std::move(copy));
  }
  node->children.clear();
  node->children.push_back(std::move(partial));
}

// ------------------------------------------------------------- mutations ---

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::PlanInsert(
    const parser::InsertStmt& stmt) {
  auto table_or = catalog_->GetTable(stmt.table);
  if (!table_or.ok()) return table_or.status();
  catalog::TableInfo* table = *table_or;
  const Schema& schema = table->schema;

  auto values = std::make_unique<PhysicalPlan>();
  values->kind = PlanKind::kValues;
  values->schema = schema;
  const Schema empty;
  // A parameterized INSERT keeps *every* row as unevaluated expressions
  // (preserving row order across mixed literal/parameter rows); evaluation —
  // including the numeric widening and type checks below — then happens in
  // frontend::InstantiatePlan once the parameter values are known.
  bool has_params = false;
  for (const auto& row : stmt.rows) {
    for (const auto& cell : row) {
      if (cell->ContainsParam()) has_params = true;
    }
  }
  for (const auto& row : stmt.rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("INSERT expects %zu values, got %zu",
                    schema.num_columns(), row.size()));
    }
    if (has_params) {
      std::vector<std::unique_ptr<BoundExpr>> cells;
      cells.reserve(row.size());
      for (const auto& cell : row) {
        auto bound = Bind(*cell, empty, nullptr);
        if (!bound.ok()) return bound.status();
        cells.push_back(std::move(*bound));
      }
      values->row_exprs.push_back(std::move(cells));
      continue;
    }
    catalog::Tuple tuple;
    for (size_t i = 0; i < row.size(); ++i) {
      auto bound = Bind(*row[i], empty, nullptr);
      if (!bound.ok()) return bound.status();
      auto v = Eval(**bound, {});
      if (!v.ok()) return v.status();
      // Numeric widening into DOUBLE columns.
      Value value = *v;
      if (schema.column(i).type == TypeId::kDouble &&
          value.type() == TypeId::kInt64) {
        value = Value::Double(static_cast<double>(value.int_value()));
      }
      if (!catalog::TypesCompatible(value.type(), schema.column(i).type)) {
        return Status::InvalidArgument(
            StrFormat("value %zu has wrong type for column '%s'", i + 1,
                      schema.column(i).name.c_str()));
      }
      tuple.push_back(std::move(value));
    }
    values->rows.push_back(std::move(tuple));
  }
  values->estimated_rows =
      static_cast<double>(values->rows.size() + values->row_exprs.size());

  auto insert = std::make_unique<PhysicalPlan>();
  insert->kind = PlanKind::kInsert;
  insert->table = table;
  insert->schema = Schema({{"count", TypeId::kInt64, ""}});
  insert->estimated_rows = 1;
  insert->children.push_back(std::move(values));
  return StatusOr<std::unique_ptr<PhysicalPlan>>(std::move(insert));
}

Status Planner::ChooseDmlAccessPath(const Expr* where, PhysicalPlan* node) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  Relation rel;
  rel.table = node->table;
  rel.schema = node->table->schema;  // the schema the DML predicate binds to
  auto scan = PlanBaseRelation(rel, std::move(conjuncts));
  if (!scan.ok()) return scan.status();
  const PhysicalPlan* access = scan->get();
  if (access->kind != PlanKind::kIndexScan) return Status::OK();
  node->index = access->index;
  node->index_lo = access->index_lo;
  node->index_hi = access->index_hi;
  node->index_lo_param = access->index_lo_param;
  node->index_hi_param = access->index_hi_param;
  node->index_lo_adjust = access->index_lo_adjust;
  node->index_hi_adjust = access->index_hi_adjust;
  return Status::OK();
}

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::PlanDelete(
    const parser::DeleteStmt& stmt) {
  auto table_or = catalog_->GetTable(stmt.table);
  if (!table_or.ok()) return table_or.status();
  auto del = std::make_unique<PhysicalPlan>();
  del->kind = PlanKind::kDelete;
  del->table = *table_or;
  del->schema = Schema({{"count", TypeId::kInt64, ""}});
  if (stmt.where) {
    auto bound = Bind(*stmt.where, (*table_or)->schema, nullptr);
    if (!bound.ok()) return bound.status();
    del->predicate = std::move(*bound);
    STAGEDB_RETURN_IF_ERROR(ChooseDmlAccessPath(stmt.where.get(), del.get()));
  }
  del->estimated_rows = 1;
  return StatusOr<std::unique_ptr<PhysicalPlan>>(std::move(del));
}

StatusOr<std::unique_ptr<PhysicalPlan>> Planner::PlanUpdate(
    const parser::UpdateStmt& stmt) {
  auto table_or = catalog_->GetTable(stmt.table);
  if (!table_or.ok()) return table_or.status();
  catalog::TableInfo* table = *table_or;
  auto update = std::make_unique<PhysicalPlan>();
  update->kind = PlanKind::kUpdate;
  update->table = table;
  update->schema = Schema({{"count", TypeId::kInt64, ""}});
  for (const auto& [col, expr] : stmt.assignments) {
    auto idx = table->schema.Find(col);
    if (!idx.ok()) return idx.status();
    auto bound = Bind(*expr, table->schema, nullptr);
    if (!bound.ok()) return bound.status();
    update->update_columns.push_back(*idx);
    update->exprs.push_back(std::move(*bound));
  }
  if (stmt.where) {
    auto bound = Bind(*stmt.where, table->schema, nullptr);
    if (!bound.ok()) return bound.status();
    update->predicate = std::move(*bound);
    STAGEDB_RETURN_IF_ERROR(
        ChooseDmlAccessPath(stmt.where.get(), update.get()));
  }
  update->estimated_rows = 1;
  return StatusOr<std::unique_ptr<PhysicalPlan>>(std::move(update));
}

}  // namespace stagedb::optimizer
