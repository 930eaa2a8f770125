#include "exec/operators.h"

#include <algorithm>
#include <numeric>

#include "optimizer/bound_expr.h"

namespace stagedb::exec {

using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::AggMode;
using optimizer::AggSpec;
using optimizer::EvalPredicate;
using optimizer::PhysicalPlan;
using parser::AggFunc;

namespace {

/// Three-way comparison of row `a` on columns `ak` against row `b` on the
/// paired columns `bk`.
int CompareOn(const Tuple& a, const std::vector<size_t>& ak, const Tuple& b,
              const std::vector<size_t>& bk) {
  for (size_t i = 0; i < ak.size(); ++i) {
    const int c = a[ak[i]].Compare(b[bk[i]]);
    if (c != 0) return c;
  }
  return 0;
}

bool KeyHasNull(const Tuple& row, const std::vector<size_t>& keys) {
  for (size_t k : keys) {
    if (row[k].is_null()) return true;
  }
  return false;
}

/// Adds an integer SUM input to `*sum`, refusing to wrap.
Status AddToIntSum(int64_t* sum, const Value& v) {
  if (v.type() != TypeId::kInt64) {
    return Status::InvalidArgument("integer SUM over a non-integer value");
  }
  if (__builtin_add_overflow(*sum, v.int_value(), sum)) {
    return Status::InvalidArgument("integer overflow");
  }
  return Status::OK();
}

bool IsIntSum(const AggSpec& spec) {
  return spec.func == AggFunc::kSum && spec.result_type == TypeId::kInt64;
}

}  // namespace

// ---------------------------------------------------------- project, sort --

Status ProjectRow(const PhysicalPlan& node, const Tuple& in, Tuple* out) {
  out->clear();
  out->reserve(node.exprs.size());
  for (const auto& expr : node.exprs) {
    auto v = optimizer::Eval(*expr, in);
    if (!v.ok()) return v.status();
    out->push_back(std::move(*v));
  }
  return Status::OK();
}

Status SortRows(const std::vector<optimizer::SortKey>& keys,
                std::vector<Tuple>* rows) {
  // Evaluate every row's keys once, then sort an index permutation.
  std::vector<std::vector<Value>> values(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    values[i].reserve(keys.size());
    for (const auto& key : keys) {
      auto v = optimizer::Eval(*key.expr, (*rows)[i]);
      if (!v.ok()) return v.status();
      values[i].push_back(std::move(*v));
    }
  }
  std::vector<size_t> order(rows->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int c = values[a][k].Compare(values[b][k]);
      if (keys[k].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  std::vector<Tuple> sorted;
  sorted.reserve(rows->size());
  for (size_t i : order) sorted.push_back(std::move((*rows)[i]));
  *rows = std::move(sorted);
  return Status::OK();
}

// -------------------------------------------------------------- JoinTable --

Status JoinTable::LoadKey(const Tuple& row, const std::vector<size_t>& cols) {
  key_.values.clear();
  for (size_t c : cols) {
    if (c >= row.size()) return Status::Internal("join key out of range");
    key_.values.push_back(row[c]);
  }
  return Status::OK();
}

Status JoinTable::Build(Tuple row) {
  STAGEDB_RETURN_IF_ERROR(LoadKey(row, node_.right_keys));
  if (key_.HasNull()) return Status::OK();  // NULL keys never match
  buckets_[key_].push_back(std::move(row));
  return Status::OK();
}

Status JoinTable::Probe(Tuple row) {
  STAGEDB_RETURN_IF_ERROR(LoadKey(row, node_.left_keys));
  auto it = buckets_.find(key_);
  matches_ = it == buckets_.end() ? nullptr : &it->second;
  next_ = 0;
  probe_ = std::move(row);
  return Status::OK();
}

StatusOr<bool> JoinTable::NextMatch(Tuple* out) {
  while (matches_ != nullptr && next_ < matches_->size()) {
    Tuple joined = JoinRows(probe_, (*matches_)[next_++]);
    if (node_.predicate != nullptr) {
      auto pass = EvalPredicate(*node_.predicate, joined);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
    }
    *out = std::move(joined);
    return true;
  }
  return false;
}

// -------------------------------------------------------------- MergeJoin --

void MergeJoin::Sort() {
  const std::vector<size_t>* keys[2] = {&node_.left_keys, &node_.right_keys};
  for (int side = 0; side < 2; ++side) {
    const std::vector<size_t>& k = *keys[side];
    std::stable_sort(rows_[side].begin(), rows_[side].end(),
                     [&k](const Tuple& a, const Tuple& b) {
                       return CompareOn(a, k, b, k) < 0;
                     });
  }
}

StatusOr<bool> MergeJoin::Next(Tuple* out) {
  while (true) {
    if ((li_ >= lg_end_ || ri_ >= rg_end_) && !AdvanceGroups()) return false;
    // Emit the cross product of the current key groups, left-major.
    Tuple joined = JoinRows(rows_[0][li_], rows_[1][ri_]);
    if (++ri_ == rg_end_) {
      ri_ = rg_begin_;
      if (++li_ == lg_end_) ri_ = rg_end_;  // group pair exhausted
    }
    if (node_.predicate != nullptr) {
      auto pass = EvalPredicate(*node_.predicate, joined);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
    }
    *out = std::move(joined);
    return true;
  }
}

bool MergeJoin::AdvanceGroups() {
  const std::vector<Tuple>& left = rows_[0];
  const std::vector<Tuple>& right = rows_[1];
  const std::vector<size_t>& lk = node_.left_keys;
  const std::vector<size_t>& rk = node_.right_keys;
  size_t l = lg_end_, r = rg_end_;
  while (l < left.size() && r < right.size()) {
    if (KeyHasNull(left[l], lk)) {
      ++l;
      continue;
    }
    if (KeyHasNull(right[r], rk)) {
      ++r;
      continue;
    }
    const int c = CompareOn(left[l], lk, right[r], rk);
    if (c < 0) {
      ++l;
    } else if (c > 0) {
      ++r;
    } else {
      // Found matching groups; find their extents.
      lg_begin_ = l;
      lg_end_ = l + 1;
      while (lg_end_ < left.size() &&
             CompareOn(left[lg_end_], lk, right[r], rk) == 0) {
        ++lg_end_;
      }
      rg_begin_ = r;
      rg_end_ = r + 1;
      while (rg_end_ < right.size() &&
             CompareOn(left[l], lk, right[rg_end_], rk) == 0) {
        ++rg_end_;
      }
      li_ = lg_begin_;
      ri_ = rg_begin_;
      return true;
    }
  }
  li_ = lg_end_ = left.size();  // exhausted: later calls return at once
  ri_ = rg_end_ = right.size();
  return false;
}

// ------------------------------------------------------------ aggregation --

Status AggAccumulate(AggAccumulator* acc, const AggSpec& spec,
                     const Value& v) {
  acc->any = true;
  ++acc->count;
  switch (spec.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
      if (IsIntSum(spec)) return AddToIntSum(&acc->int_sum, v);
      acc->sum += v.AsDouble();
      break;
    case AggFunc::kAvg:
      acc->sum += v.AsDouble();
      break;
    case AggFunc::kMin:
      if (acc->min.is_null() || v.Compare(acc->min) < 0) acc->min = v;
      break;
    case AggFunc::kMax:
      if (acc->max.is_null() || v.Compare(acc->max) > 0) acc->max = v;
      break;
  }
  return Status::OK();
}

Value AggFinalize(const AggSpec& spec, const AggAccumulator& acc) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (!acc.any) return Value::Null();
      return IsIntSum(spec) ? Value::Int(acc.int_sum) : Value::Double(acc.sum);
    case AggFunc::kAvg:
      return acc.any ? Value::Double(acc.sum / acc.count) : Value::Null();
    case AggFunc::kMin:
      return acc.min;
    case AggFunc::kMax:
      return acc.max;
  }
  return Value::Null();
}

size_t PartialStateWidth(const AggSpec& spec) {
  return optimizer::PartialStateTypes(spec).size();
}

void AppendPartialState(const AggSpec& spec, const AggAccumulator& acc,
                        Tuple* row) {
  switch (spec.func) {
    case AggFunc::kCount:
      row->push_back(Value::Int(acc.count));
      return;
    case AggFunc::kSum:
      row->push_back(AggFinalize(spec, acc));
      return;
    case AggFunc::kAvg:
      row->push_back(acc.any ? Value::Double(acc.sum) : Value::Null());
      row->push_back(Value::Int(acc.count));
      return;
    case AggFunc::kMin:
      row->push_back(acc.min);
      return;
    case AggFunc::kMax:
      row->push_back(acc.max);
      return;
  }
}

Status MergePartialState(const AggSpec& spec, const Tuple& row, size_t* col,
                         AggAccumulator* acc) {
  const size_t width = PartialStateWidth(spec);
  if (*col + width > row.size()) {
    return Status::Internal("partial aggregation row too narrow");
  }
  const Value& v = row[*col];
  *col += width;
  switch (spec.func) {
    case AggFunc::kCount:
      acc->count += v.int_value();
      acc->any = acc->any || v.int_value() > 0;
      break;
    case AggFunc::kSum:
      if (v.is_null()) break;
      acc->any = true;
      if (IsIntSum(spec)) return AddToIntSum(&acc->int_sum, v);
      acc->sum += v.AsDouble();
      break;
    case AggFunc::kAvg: {
      const Value& count = row[*col - 1];
      if (!v.is_null()) acc->sum += v.AsDouble();
      acc->count += count.int_value();
      acc->any = acc->any || count.int_value() > 0;
      break;
    }
    case AggFunc::kMin:
      if (!v.is_null() && (acc->min.is_null() || v.Compare(acc->min) < 0)) {
        acc->min = v;
        acc->any = true;
      }
      break;
    case AggFunc::kMax:
      if (!v.is_null() && (acc->max.is_null() || v.Compare(acc->max) > 0)) {
        acc->max = v;
        acc->any = true;
      }
      break;
  }
  return Status::OK();
}

HashAggregator::HashAggregator(const PhysicalPlan& node)
    : node_(node),
      key_width_(node.agg_mode == AggMode::kMerge
                     ? node.schema.num_columns() - node.aggregates.size()
                     : node.exprs.size()) {}

std::vector<AggAccumulator>& HashAggregator::Group() {
  if (key_width_ == 0) {
    if (!global_.has_value()) global_.emplace(node_.aggregates.size());
    return *global_;
  }
  std::vector<AggAccumulator>& accs = groups_[key_];
  if (accs.empty()) accs.resize(node_.aggregates.size());
  return accs;
}

Status HashAggregator::Add(const Tuple& row) {
  if (node_.agg_mode == AggMode::kMerge) {
    // A partial row: the group key columns, then each aggregate's state.
    if (row.size() < key_width_) {
      return Status::Internal("partial aggregation row too narrow");
    }
    key_.values.assign(row.begin(), row.begin() + key_width_);
    std::vector<AggAccumulator>& accs = Group();
    size_t col = key_width_;
    for (size_t i = 0; i < node_.aggregates.size(); ++i) {
      STAGEDB_RETURN_IF_ERROR(
          MergePartialState(node_.aggregates[i], row, &col, &accs[i]));
    }
    return Status::OK();
  }
  key_.values.clear();
  for (const auto& expr : node_.exprs) {
    auto v = optimizer::Eval(*expr, row);
    if (!v.ok()) return v.status();
    key_.values.push_back(std::move(*v));
  }
  std::vector<AggAccumulator>& accs = Group();
  for (size_t i = 0; i < node_.aggregates.size(); ++i) {
    const AggSpec& spec = node_.aggregates[i];
    Value v = Value::Int(1);  // COUNT(*) counts rows
    if (spec.arg) {
      auto val = optimizer::Eval(*spec.arg, row);
      if (!val.ok()) return val.status();
      v = std::move(*val);
      if (v.is_null()) continue;  // SQL: aggregates skip NULLs
    }
    STAGEDB_RETURN_IF_ERROR(AggAccumulate(&accs[i], spec, v));
  }
  return Status::OK();
}

std::vector<Tuple> HashAggregator::Finish() {
  const bool partial = node_.agg_mode == AggMode::kPartial;
  if (key_width_ == 0 && (global_.has_value() || !partial)) {
    if (!global_.has_value()) global_.emplace(node_.aggregates.size());
    groups_.emplace(RowKey{}, std::move(*global_));
    global_.reset();
  }
  std::vector<Tuple> out;
  out.reserve(groups_.size());
  for (const auto& [key, accs] : groups_) {
    Tuple row = key.values;
    for (size_t i = 0; i < node_.aggregates.size(); ++i) {
      if (partial) {
        AppendPartialState(node_.aggregates[i], accs[i], &row);
      } else {
        row.push_back(AggFinalize(node_.aggregates[i], accs[i]));
      }
    }
    out.push_back(std::move(row));
  }
  groups_.clear();
  return out;
}

}  // namespace stagedb::exec
