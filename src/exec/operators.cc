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

// ----------------------------------------------------------- FlatRowTable --

uint32_t FlatRowTable::Append(const Value* first, size_t width, size_t hash) {
  if (links_.empty()) width_ = width;
  values_.insert(values_.end(), first, first + width_);
  links_.push_back(Link{hash, kEnd});
  return static_cast<uint32_t>(links_.size() - 1);
}

uint32_t FlatRowTable::Insert(const Value* first, size_t width, size_t hash) {
  const uint32_t i = Append(first, width, hash);
  if (links_.size() > heads_.size()) {
    Rethread(2 * links_.size());
  } else {
    uint32_t& head = heads_[Bucket(hash)];
    links_[i].next = head;
    head = i;
  }
  return i;
}

void FlatRowTable::Rethread(size_t min_buckets) {
  size_t n = 1;
  while (n < min_buckets) n <<= 1;
  heads_.assign(n, kEnd);
  for (size_t i = links_.size(); i-- > 0;) {
    uint32_t& head = heads_[Bucket(links_[i].hash)];
    links_[i].next = head;
    head = static_cast<uint32_t>(i);
  }
}

size_t FlatRowTable::Bucket(size_t hash) const {
  // The murmur3 finalizer: every input bit reaches the low bits the mask
  // keeps.
  uint64_t h = hash;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (heads_.size() - 1);
}

void FlatRowTable::Clear() {
  width_ = 0;
  values_.clear();
  links_.clear();
  heads_.clear();
}

// -------------------------------------------------------------- JoinTable --

namespace {

/// One past the largest column in `keys` (0 when there is none).
size_t MinWidth(const std::vector<size_t>& keys) {
  size_t w = 0;
  for (size_t k : keys) w = std::max(w, k + 1);
  return w;
}

/// Makes `*out` the `nl` values from `left` followed by the `nr` from
/// `right`, reusing the row's storage.
void AssignJoined(const Value* left, size_t nl, const Value* right, size_t nr,
                  Tuple* out) {
  out->resize(nl + nr);
  std::copy(left, left + nl, out->begin());
  std::copy(right, right + nr, out->begin() + static_cast<ptrdiff_t>(nl));
}

}  // namespace

JoinTable::JoinTable(const PhysicalPlan& node)
    : node_(node),
      min_left_width_(MinWidth(node.left_keys)),
      min_right_width_(MinWidth(node.right_keys)) {}

Status JoinTable::Build(const Tuple& row) {
  if (row.size() < min_right_width_) {
    return Status::Internal("join key out of range");
  }
  if (!rows_.empty() && row.size() != rows_.width()) {
    return Status::Internal("join build rows differ in width");
  }
  if (rows_.size() >= FlatRowTable::kMaxRows) {
    return Status::ResourceExhausted("join build side too large");
  }
  if (KeyHasNull(row, node_.right_keys)) return Status::OK();  // never match
  rows_.Append(row.data(), row.size(), HashColumns(row, node_.right_keys));
  return Status::OK();
}

Status JoinTable::Probe(const Tuple& row) {
  if (rows_.num_buckets() == 0) rows_.Rethread(rows_.size());  // build ends
  if (row.size() < min_left_width_) {
    return Status::Internal("join key out of range");
  }
  probe_ = &row;
  if (KeyHasNull(row, node_.left_keys)) {
    next_ = FlatRowTable::kEnd;
    return Status::OK();
  }
  probe_hash_ = HashColumns(row, node_.left_keys);
  next_ = rows_.Head(probe_hash_);
  return Status::OK();
}

bool JoinTable::KeysMatch(uint32_t i) const {
  if (rows_.hash(i) != probe_hash_) return false;
  const Value* build = rows_.row(i);
  const std::vector<size_t>& lk = node_.left_keys;
  const std::vector<size_t>& rk = node_.right_keys;
  for (size_t k = 0; k < lk.size(); ++k) {
    if ((*probe_)[lk[k]].Compare(build[rk[k]]) != 0) return false;
  }
  return true;
}

StatusOr<bool> JoinTable::NextMatch(Tuple* out) {
  while (next_ != FlatRowTable::kEnd) {
    const uint32_t i = next_;
    next_ = rows_.Next(i);
    if (!KeysMatch(i)) continue;
    AssignJoined(probe_->data(), probe_->size(), rows_.row(i), rows_.width(),
                 out);
    if (node_.predicate != nullptr) {
      auto pass = EvalPredicate(*node_.predicate, *out);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
    }
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
    const Tuple& left = rows_[0][li_];
    const Tuple& right = rows_[1][ri_];
    AssignJoined(left.data(), left.size(), right.data(), right.size(), out);
    if (++ri_ == rg_end_) {
      ri_ = rg_begin_;
      if (++li_ == lg_end_) ri_ = rg_end_;  // group pair exhausted
    }
    if (node_.predicate != nullptr) {
      auto pass = EvalPredicate(*node_.predicate, *out);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
    }
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

AggAccumulator* HashAggregator::Group(const Value* key) {
  const size_t num_aggs = node_.aggregates.size();
  if (key_width_ == 0) {
    if (!global_.has_value()) global_.emplace(num_aggs);
    return global_->data();
  }
  const size_t hash = HashValues(key, key_width_);
  for (uint32_t i = groups_.Head(hash); i != FlatRowTable::kEnd;
       i = groups_.Next(i)) {
    if (groups_.hash(i) != hash) continue;
    const Value* group = groups_.row(i);
    size_t k = 0;
    while (k < key_width_ && key[k].Compare(group[k]) == 0) ++k;
    if (k == key_width_) return accs_.data() + i * num_aggs;
  }
  const uint32_t i = groups_.Insert(key, key_width_, hash);
  accs_.resize(accs_.size() + num_aggs);
  return accs_.data() + static_cast<size_t>(i) * num_aggs;
}

Status HashAggregator::Add(const Tuple& row) {
  if (node_.agg_mode == AggMode::kMerge) {
    // A partial row: the group key columns, then each aggregate's state.
    if (row.size() < key_width_) {
      return Status::Internal("partial aggregation row too narrow");
    }
    AggAccumulator* accs = Group(row.data());
    size_t col = key_width_;
    for (size_t i = 0; i < node_.aggregates.size(); ++i) {
      STAGEDB_RETURN_IF_ERROR(
          MergePartialState(node_.aggregates[i], row, &col, &accs[i]));
    }
    return Status::OK();
  }
  key_.clear();
  for (const auto& expr : node_.exprs) {
    auto v = optimizer::Eval(*expr, row);
    if (!v.ok()) return v.status();
    key_.push_back(std::move(*v));
  }
  AggAccumulator* accs = Group(key_.data());
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
  const size_t num_aggs = node_.aggregates.size();
  // One output row: `key`'s key_width_ values, then the group's aggregates.
  auto emit = [&](const Value* key, const AggAccumulator* accs) {
    Tuple row(key, key + key_width_);
    for (size_t i = 0; i < num_aggs; ++i) {
      if (partial) {
        AppendPartialState(node_.aggregates[i], accs[i], &row);
      } else {
        row.push_back(AggFinalize(node_.aggregates[i], accs[i]));
      }
    }
    return row;
  };
  std::vector<Tuple> out;
  if (key_width_ == 0) {
    if (global_.has_value() || !partial) {
      if (!global_.has_value()) global_.emplace(num_aggs);
      out.push_back(emit(nullptr, global_->data()));
      global_.reset();
    }
    return out;
  }
  out.reserve(groups_.size());
  for (uint32_t i = 0; i < groups_.size(); ++i) {
    out.push_back(emit(groups_.row(i), accs_.data() + i * num_aggs));
  }
  groups_.Clear();
  accs_.clear();
  return out;
}

}  // namespace stagedb::exec
