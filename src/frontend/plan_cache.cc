#include "frontend/plan_cache.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"
#include "optimizer/bound_expr.h"

namespace stagedb::frontend {

using catalog::TypeId;
using catalog::Value;
using optimizer::BoundExpr;
using optimizer::PhysicalPlan;

// ---------------------------------------------------------------- PlanCache --

PlanCache::PlanCache(size_t capacity, size_t shards)
    : capacity_(std::max<size_t>(1, capacity)),
      shard_capacity_(std::max<size_t>(
          1, capacity_ / std::max<size_t>(1, std::min(shards, capacity_)))) {
  const size_t n = std::max<size_t>(1, std::min(shards, capacity_));
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>()(key) % shards_.size()];
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(const std::string& key,
                                                    uint64_t epoch) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second->second->epoch != epoch) {
    // Planned under a different catalog epoch: the tables/indexes it binds
    // may no longer exist. Evict; the caller replans under the new epoch.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Touch: move to the MRU position.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CachedPlan> entry) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Replace in place (e.g. a replan after invalidation).
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    if (shard.lru.size() >= shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    shard.lru.emplace_front(key, std::move(entry));
    shard.index[key] = shard.lru.begin();
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.entries += shard->lru.size();
  }
  return stats;
}

// ---------------------------------------------------------- instantiation ---

namespace {

/// Replaces every kParam node in `expr` with the literal parameter value.
Status SubstituteParams(BoundExpr* expr, const std::vector<Value>& params) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == BoundExpr::Kind::kParam) {
    if (expr->column >= params.size()) {
      return Status::InvalidArgument(
          StrFormat("statement needs %zu parameter(s), got %zu",
                    expr->column + 1, params.size()));
    }
    const Value& v = params[expr->column];
    expr->kind = BoundExpr::Kind::kLiteral;
    expr->literal = v;
    expr->type = v.type();
    return Status::OK();
  }
  STAGEDB_RETURN_IF_ERROR(SubstituteParams(expr->left.get(), params));
  return SubstituteParams(expr->right.get(), params);
}

/// Resolves one parameterized index bound: params[param] + adjust, saturated
/// at the int64 range so `col > INT64_MAX` yields an empty range instead of
/// wrapping around.
StatusOr<int64_t> ResolveBound(const std::vector<Value>& params, int param,
                               int adjust) {
  if (static_cast<size_t>(param) >= params.size()) {
    return Status::InvalidArgument(
        StrFormat("statement needs %d parameter(s), got %zu", param + 1,
                  params.size()));
  }
  const Value& v = params[param];
  if (v.type() != TypeId::kInt64) {
    return Status::InvalidArgument(
        StrFormat("parameter ?%d drives an index range and must be INTEGER "
                  "(got %s)",
                  param, catalog::TypeName(v.type())));
  }
  int64_t bound;
  if (__builtin_add_overflow(v.int_value(), static_cast<int64_t>(adjust),
                             &bound)) {
    bound = adjust > 0 ? INT64_MAX : INT64_MIN;
  }
  return bound;
}

Status InstantiateNode(PhysicalPlan* plan, const std::vector<Value>& params) {
  const auto null_param = [&params](int param) {
    return param >= 0 && static_cast<size_t>(param) < params.size() &&
           params[param].is_null();
  };
  if (null_param(plan->index_lo_param) || null_param(plan->index_hi_param)) {
    // A comparison with NULL is never true: the range is empty, as the
    // predicate would find on a heap scan.
    plan->index_lo = INT64_MAX;
    plan->index_hi = INT64_MIN;
    plan->index_lo_param = plan->index_hi_param = -1;
    plan->index_lo_adjust = plan->index_hi_adjust = 0;
  }
  if (plan->index_lo_param >= 0) {
    auto bound = ResolveBound(params, plan->index_lo_param,
                              plan->index_lo_adjust);
    if (!bound.ok()) return bound.status();
    plan->index_lo = std::max(plan->index_lo, *bound);
    plan->index_lo_param = -1;
    plan->index_lo_adjust = 0;
  }
  if (plan->index_hi_param >= 0) {
    auto bound = ResolveBound(params, plan->index_hi_param,
                              plan->index_hi_adjust);
    if (!bound.ok()) return bound.status();
    plan->index_hi = std::min(plan->index_hi, *bound);
    plan->index_hi_param = -1;
    plan->index_hi_adjust = 0;
  }
  STAGEDB_RETURN_IF_ERROR(SubstituteParams(plan->predicate.get(), params));
  for (auto& e : plan->exprs) {
    STAGEDB_RETURN_IF_ERROR(SubstituteParams(e.get(), params));
  }
  for (auto& k : plan->sort_keys) {
    STAGEDB_RETURN_IF_ERROR(SubstituteParams(k.expr.get(), params));
  }
  for (auto& a : plan->aggregates) {
    STAGEDB_RETURN_IF_ERROR(SubstituteParams(a.arg.get(), params));
  }
  if (!plan->row_exprs.empty()) {
    // Fold parameterized VALUES rows, replicating the literal-INSERT path:
    // numeric widening into DOUBLE columns, then the compatibility check.
    const catalog::Schema& schema = plan->schema;
    for (auto& row : plan->row_exprs) {
      catalog::Tuple tuple;
      tuple.reserve(row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        STAGEDB_RETURN_IF_ERROR(SubstituteParams(row[i].get(), params));
        auto v = Eval(*row[i], {});
        if (!v.ok()) return v.status();
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
      plan->rows.push_back(std::move(tuple));
    }
    plan->row_exprs.clear();
  }
  for (auto& child : plan->children) {
    STAGEDB_RETURN_IF_ERROR(InstantiateNode(child.get(), params));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<PhysicalPlan>> InstantiatePlan(
    const PhysicalPlan& tmpl, const std::vector<Value>& params) {
  std::unique_ptr<PhysicalPlan> plan = tmpl.Clone();
  STAGEDB_RETURN_IF_ERROR(InstantiateNode(plan.get(), params));
  return plan;
}

}  // namespace stagedb::frontend
