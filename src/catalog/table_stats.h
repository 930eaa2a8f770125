// Per-table statistics used by the optimizer's cost model.
#ifndef STAGEDB_CATALOG_TABLE_STATS_H_
#define STAGEDB_CATALOG_TABLE_STATS_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "catalog/tuple.h"
#include "common/mutex.h"

namespace stagedb::catalog {

/// Min/max/NDV estimate for one column.
struct ColumnStats {
  Value min;
  Value max;
  int64_t num_distinct = 0;
  int64_t num_nulls = 0;
};

/// Statistics maintained incrementally by DML. Thread-safe: statements
/// record inserts and deletes while the planner reads counts and
/// selectivities. The row count is atomic; the column stats and NDV sets sit
/// behind one lock.
class TableStats {
 public:
  explicit TableStats(size_t num_columns)
      : columns_(num_columns), hashes_(num_columns) {}

  void RecordInsert(const Tuple& tuple) EXCLUDES(mu_);
  void RecordDelete();

  int64_t row_count() const {
    return row_count_.load(std::memory_order_relaxed);
  }
  /// A copy of column i's stats (the live ones change under concurrent DML).
  ColumnStats column(size_t i) const EXCLUDES(mu_);

  /// Selectivity estimate for an equality predicate on column i.
  double EqSelectivity(size_t i) const EXCLUDES(mu_);
  /// Selectivity estimate for a range predicate covering `fraction` of the
  /// [min,max] span of column i (numeric only; 1/3 fallback otherwise).
  double RangeSelectivity(size_t i, const Value& lo, const Value& hi) const
      EXCLUDES(mu_);

 private:
  std::atomic<int64_t> row_count_{0};
  mutable Mutex mu_;
  std::vector<ColumnStats> columns_ GUARDED_BY(mu_);
  // Exact NDV tracking is bounded; beyond the cap we stop growing the set and
  // keep the count (documented approximation).
  static constexpr size_t kNdvCap = 100000;
  std::vector<std::unordered_set<size_t>> hashes_ GUARDED_BY(mu_);
};

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_TABLE_STATS_H_
