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

/// Where each column of one encoded record starts: entry i is the byte
/// offset of column i's value (a varchar's length prefix), or kNullColumn
/// when the column is NULL.
using ColumnOffsets = std::vector<uint32_t>;
inline constexpr uint32_t kNullColumn = UINT32_MAX;

/// The one walk over an encoded record: bounds-checks every column and
/// records where each starts in `*offsets` (resized to the schema width). A
/// truncated record is Corruption, whichever columns a reader goes on to
/// use. Every byte the offsets point at is then inside `bytes`.
Status LocateColumns(const Schema& schema, std::string_view bytes,
                     ColumnOffsets* offsets);

/// Decodes column i of a record LocateColumns accepted into
/// (*out)[slots[i]] for every column the map places; `*out` must already
/// hold every placed slot, and the slots no column lands in keep what they
/// held.
Status DecodeLocated(const Schema& schema, std::string_view bytes,
                     const ColumnOffsets& offsets, const SlotMap& slots,
                     Tuple* out);

/// Inverse of EncodeTuple: decodes every column.
StatusOr<Tuple> DecodeTuple(const Schema& schema, std::string_view bytes);

/// LocateColumns, then DecodeLocated: the whole record is bounds-checked
/// whatever the map selects.
Status DecodeTuple(const Schema& schema, std::string_view bytes,
                   const SlotMap& slots, Tuple* out);

/// Human-readable row rendering ("(1, foo, 2.5)").
std::string TupleToString(const Tuple& tuple);

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_TUPLE_H_
