// Tuples and their on-page serialization.
#ifndef STAGEDB_CATALOG_TUPLE_H_
#define STAGEDB_CATALOG_TUPLE_H_

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

/// Inverse of EncodeTuple: decodes every column.
StatusOr<Tuple> DecodeTuple(const Schema& schema, std::string_view bytes);

/// Decodes the columns in `read` (every column when `read` is empty) into
/// `*out`, which is resized to the schema width; columns outside `read` keep
/// whatever `*out` held (a fresh tuple leaves them NULL). The whole record is
/// bounds-checked either way, so a truncated record is the same Corruption
/// whatever `read` selects.
Status DecodeTuple(const Schema& schema, std::string_view bytes,
                   const ColumnSet& read, Tuple* out);

/// Human-readable row rendering ("(1, foo, 2.5)").
std::string TupleToString(const Tuple& tuple);

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_TUPLE_H_
