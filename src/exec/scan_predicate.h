// A scan's predicate compiled to run on the encoded record, so a row the
// predicate rejects is never turned into Values.
#ifndef STAGEDB_EXEC_SCAN_PREDICATE_H_
#define STAGEDB_EXEC_SCAN_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "optimizer/bound_expr.h"

namespace stagedb::exec {

/// A conjunction of `column <op> literal` terms evaluated on the raw bytes
/// of a record that catalog::LocateColumns accepted. Each term compares by
/// catalog::Value::Compare's rule (int64 widens to double against a double,
/// NaN compares equal to everything, varchars compare byte-wise, values of
/// unrelated types order by type), and a NULL column fails its term, so the
/// verdict is optimizer::EvalPredicate's on the decoded row.
class ScanPredicate {
 public:
  /// Compiles `predicate` when the whole of it is an AND-tree of
  /// comparisons (= <> < <= > >=) between a column and a non-NULL literal,
  /// on either side, over bool, int64, double and varchar; anything else
  /// (OR, NOT, arithmetic, column against column, a NULL literal, a
  /// parameter) yields nullopt and stays with the interpreter.
  /// `columns[slot]` is the table column at each slot of the row the
  /// predicate's column references index.
  static std::optional<ScanPredicate> Compile(
      const optimizer::BoundExpr& predicate, const catalog::Schema& schema,
      const std::vector<size_t>& columns);

  /// The predicate's verdict on the located record `bytes`.
  bool Matches(std::string_view bytes,
               const catalog::ColumnOffsets& offsets) const;

 private:
  /// How a term reads its column and compares it with its literal.
  enum class Cmp : uint8_t {
    kInt,          // int64 column, int64 literal
    kIntAsDouble,  // int64 column widened against a double literal
    kDouble,       // double column, numeric literal widened to double
    kBool,
    kVarchar,
    kConstant,     // unrelated types: the order of the type ids
  };
  struct Term {
    size_t column = 0;  // table column
    Cmp cmp = Cmp::kConstant;
    /// Bit c+1 is set when the term holds for a three-way result c.
    uint8_t accept = 0;
    int64_t int_literal = 0;
    double double_literal = 0;
    bool bool_literal = false;
    int constant = 0;  // kConstant's three-way result
    std::string varchar_literal;
  };

  /// Appends the terms of `expr`; false when it is outside the subset.
  bool AddTerms(const optimizer::BoundExpr& expr,
                const catalog::Schema& schema,
                const std::vector<size_t>& columns);

  std::vector<Term> terms_;
};

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_SCAN_PREDICATE_H_
