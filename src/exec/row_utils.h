// Row-processing helpers shared by the volcano and staged engines: composite
// keys for hashing, joined rows, and aggregate accumulators.
#ifndef STAGEDB_EXEC_ROW_UTILS_H_
#define STAGEDB_EXEC_ROW_UTILS_H_

#include <vector>

#include "catalog/tuple.h"
#include "common/status.h"
#include "optimizer/plan.h"

namespace stagedb::exec {

/// A composite key of values (join/group keys).
struct RowKey {
  std::vector<catalog::Value> values;
  bool operator==(const RowKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].Compare(o.values[i]) != 0) return false;
    }
    return true;
  }
  bool HasNull() const {
    for (const catalog::Value& v : values) {
      if (v.is_null()) return true;
    }
    return false;
  }
};

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const catalog::Value& v : k.values) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Extracts the key columns of a tuple.
inline StatusOr<RowKey> RowKeyFromColumns(const catalog::Tuple& tuple,
                                          const std::vector<size_t>& columns) {
  RowKey key;
  key.values.reserve(columns.size());
  for (size_t c : columns) {
    if (c >= tuple.size()) return Status::Internal("key column out of range");
    key.values.push_back(tuple[c]);
  }
  return key;
}

/// A join's output row: `left`'s columns followed by `right`'s, built in one
/// allocation.
inline catalog::Tuple JoinRows(const catalog::Tuple& left,
                               const catalog::Tuple& right) {
  catalog::Tuple joined;
  joined.reserve(left.size() + right.size());
  joined.insert(joined.end(), left.begin(), left.end());
  joined.insert(joined.end(), right.begin(), right.end());
  return joined;
}

/// Streaming accumulator for one aggregate function within one group.
struct AggAccumulator {
  int64_t count = 0;
  double sum = 0;
  catalog::Value min, max;
  bool any = false;
};

/// Folds one input value into an accumulator (v already non-NULL unless
/// COUNT(*), which passes Int(1)).
inline void AggAccumulate(AggAccumulator* acc, const optimizer::AggSpec& spec,
                          const catalog::Value& v) {
  using parser::AggFunc;
  acc->any = true;
  ++acc->count;
  if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
    acc->sum += v.AsDouble();
  }
  if (spec.func == AggFunc::kMin &&
      (acc->min.is_null() || v.Compare(acc->min) < 0)) {
    acc->min = v;
  }
  if (spec.func == AggFunc::kMax &&
      (acc->max.is_null() || v.Compare(acc->max) > 0)) {
    acc->max = v;
  }
}

/// Produces the final aggregate value.
inline catalog::Value AggFinalize(const optimizer::AggSpec& spec,
                                  const AggAccumulator& acc) {
  using catalog::TypeId;
  using catalog::Value;
  using parser::AggFunc;
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (!acc.any) return Value::Null();
      return spec.result_type == TypeId::kInt64
                 ? Value::Int(static_cast<int64_t>(acc.sum))
                 : Value::Double(acc.sum);
    case AggFunc::kAvg:
      return acc.any ? Value::Double(acc.sum / acc.count) : Value::Null();
    case AggFunc::kMin:
      return acc.min;
    case AggFunc::kMax:
      return acc.max;
  }
  return Value::Null();
}

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_ROW_UTILS_H_
