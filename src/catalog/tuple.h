// Tuples and their on-page serialization.
#ifndef STAGEDB_CATALOG_TUPLE_H_
#define STAGEDB_CATALOG_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/status.h"

namespace stagedb::catalog {

/// A row: one Value per schema column.
using Tuple = std::vector<Value>;

/// Serializes a tuple for storage in a heap-file record. The encoding is a
/// null bitmap followed by fixed-width values and length-prefixed varchars.
std::string EncodeTuple(const Schema& schema, const Tuple& tuple);

/// The columns a reader materializes: one flag per schema column. An empty
/// set means every column.
using ColumnSet = std::vector<bool>;

/// Where a decode puts each schema column: entry i is column i's position in
/// the output row, or kSkipColumn to leave the column out. The identity map
/// decodes whole rows.
using SlotMap = std::vector<size_t>;
inline constexpr size_t kSkipColumn = SIZE_MAX;

/// The identity map over `width` columns.
SlotMap IdentitySlots(size_t width);

/// Inverse of EncodeTuple: decodes every column.
StatusOr<Tuple> DecodeTuple(const Schema& schema, std::string_view bytes);

/// Decodes column i into (*out)[slots[i]] for every column the map places;
/// `*out` must already hold every placed slot, and the slots no column lands
/// in keep what they held. The whole record is bounds-checked either way, so
/// a truncated record is the same Corruption whatever the map selects.
Status DecodeTuple(const Schema& schema, std::string_view bytes,
                   const SlotMap& slots, Tuple* out);

/// Human-readable row rendering ("(1, foo, 2.5)").
std::string TupleToString(const Tuple& tuple);

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_TUPLE_H_
