// Row-processing helpers shared by the volcano and staged engines: composite
// keys for hashing, joined rows, and the morsel of rows the staged engine's
// operators exchange.
#ifndef STAGEDB_EXEC_ROW_UTILS_H_
#define STAGEDB_EXEC_ROW_UTILS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "catalog/tuple.h"

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

/// The morsel size, in rows, when nothing sets one
/// (StagedEngineOptions::tuples_per_page).
inline constexpr size_t kDefaultMorselRows = 64;

/// One morsel of rows exchanged between operator stages. The batch size (in
/// tuples) is the §4.4(c) tuning parameter (StagedEngineOptions::
/// tuples_per_page).
///
/// `spares` are emptied rows whose storage the next fill reuses: an exchange
/// edge hands the rows a consumer drained back to the producer as spares,
/// and the scan drivers decode into them, so a steady scan allocates no row.
struct RowBatch {
  std::vector<catalog::Tuple> tuples;
  std::vector<catalog::Tuple> spares;
  bool empty() const { return tuples.empty(); }
  size_t size() const { return tuples.size(); }
  void clear() { tuples.clear(); }
  void reserve(size_t n) { tuples.reserve(n); }
  void push_back(catalog::Tuple t) { tuples.push_back(std::move(t)); }
  /// Moves every tuple of `other` onto the back of this batch; `other` is
  /// left empty.
  void Append(RowBatch* other) {
    if (tuples.empty()) {
      tuples = std::move(other->tuples);
    } else {
      tuples.insert(tuples.end(),
                    std::make_move_iterator(other->tuples.begin()),
                    std::make_move_iterator(other->tuples.end()));
    }
    other->tuples.clear();
  }
  /// Keeps the first `n` tuples and makes the rest spares, holding at most
  /// `max_spares` in all; a row with no storage, or past the bound, is
  /// freed.
  void Truncate(size_t n, size_t max_spares) {
    for (size_t i = n; i < tuples.size() && spares.size() < max_spares; ++i) {
      if (tuples[i].capacity() > 0) spares.push_back(std::move(tuples[i]));
    }
    tuples.resize(std::min(n, tuples.size()));
  }
  /// A row to fill: a spare's storage when there is one, else a new row.
  catalog::Tuple TakeSpare() {
    if (spares.empty()) return {};
    catalog::Tuple t = std::move(spares.back());
    spares.pop_back();
    return t;
  }
};

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_ROW_UTILS_H_
