#include "catalog/table_stats.h"

#include <algorithm>

namespace stagedb::catalog {

void TableStats::RecordInsert(const Tuple& tuple) {
  row_count_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mu_);
  for (size_t i = 0; i < columns_.size() && i < tuple.size(); ++i) {
    ColumnStats& cs = columns_[i];
    const Value& v = tuple[i];
    if (v.is_null()) {
      ++cs.num_nulls;
      continue;
    }
    if (cs.min.is_null() || v.Compare(cs.min) < 0) cs.min = v;
    if (cs.max.is_null() || v.Compare(cs.max) > 0) cs.max = v;
    auto& set = hashes_[i];
    if (set.size() < kNdvCap) {
      set.insert(v.Hash());
      cs.num_distinct = static_cast<int64_t>(set.size());
    }
  }
}

void TableStats::RecordDelete() {
  int64_t n = row_count_.load(std::memory_order_relaxed);
  while (n > 0 && !row_count_.compare_exchange_weak(
                      n, n - 1, std::memory_order_relaxed)) {
  }
}

ColumnStats TableStats::column(size_t i) const {
  MutexLock lock(mu_);
  return columns_.at(i);
}

double TableStats::EqSelectivity(size_t i) const {
  MutexLock lock(mu_);
  const ColumnStats& cs = columns_.at(i);
  if (cs.num_distinct <= 0) return 0.1;
  return 1.0 / static_cast<double>(cs.num_distinct);
}

double TableStats::RangeSelectivity(size_t i, const Value& lo,
                                    const Value& hi) const {
  MutexLock lock(mu_);
  const ColumnStats& cs = columns_.at(i);
  if (cs.min.is_null() || cs.max.is_null()) return 1.0 / 3.0;
  const double span = cs.max.AsDouble() - cs.min.AsDouble();
  if (span <= 0) return 1.0;
  double a = lo.is_null() ? cs.min.AsDouble() : lo.AsDouble();
  double b = hi.is_null() ? cs.max.AsDouble() : hi.AsDouble();
  a = std::max(a, cs.min.AsDouble());
  b = std::min(b, cs.max.AsDouble());
  if (b < a) return 0.0;
  return std::clamp((b - a) / span, 0.0, 1.0);
}

}  // namespace stagedb::catalog
