// Row-processing helpers shared by the volcano and staged engines: the key
// hash, and the morsel of rows the staged engine's operators exchange.
#ifndef STAGEDB_EXEC_ROW_UTILS_H_
#define STAGEDB_EXEC_ROW_UTILS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "catalog/tuple.h"

namespace stagedb::exec {

/// The key hash: Value::Hash folded over a key's values in order. Keys that
/// compare equal column by column (Value::Compare == 0, so an int64 and an
/// integral double too) hash alike. The join table, the hash aggregator and
/// the partitioned exchange all hash with this fold, so both inputs of a
/// partitioned join route equal keys to the same partition.
inline constexpr size_t kKeyHashSeed = 0x9e3779b97f4a7c15ULL;

/// Folds one more key value into the key hash `h`.
inline size_t HashFold(size_t h, const catalog::Value& v) {
  return h ^ (v.Hash() + kKeyHashSeed + (h << 6) + (h >> 2));
}

/// The key hash of `row`'s values at `cols` (which the caller has checked
/// are in range).
inline size_t HashColumns(const catalog::Tuple& row,
                          const std::vector<size_t>& cols) {
  size_t h = kKeyHashSeed;
  for (size_t c : cols) h = HashFold(h, row[c]);
  return h;
}

/// The key hash of the `n` values from `first`.
inline size_t HashValues(const catalog::Value* first, size_t n) {
  size_t h = kKeyHashSeed;
  for (size_t i = 0; i < n; ++i) h = HashFold(h, first[i]);
  return h;
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
