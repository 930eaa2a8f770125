// Bound (name-resolved) expressions and their evaluation over tuples.
#ifndef STAGEDB_OPTIMIZER_BOUND_EXPR_H_
#define STAGEDB_OPTIMIZER_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "parser/ast.h"

namespace stagedb::optimizer {

/// An expression with column references resolved to positions in the input
/// tuple and with a computed result type.
struct BoundExpr {
  enum class Kind { kLiteral, kParam, kColumn, kUnary, kBinary, kAggRef };

  Kind kind = Kind::kLiteral;
  catalog::TypeId type = catalog::TypeId::kNull;
  catalog::Value literal;             // kLiteral
  size_t column = 0;                  // kColumn / kAggRef slot / kParam index
  parser::UnaryOp unary_op = parser::UnaryOp::kNeg;
  parser::BinaryOp binary_op = parser::BinaryOp::kAdd;
  std::unique_ptr<BoundExpr> left;
  std::unique_ptr<BoundExpr> right;

  static std::unique_ptr<BoundExpr> Literal(catalog::Value v);
  /// Parameter placeholder in a cached plan template. `t` is the type the
  /// statement was normalized with (kNull when unknown, e.g. a user-written
  /// '?'). Templates are never executed directly: parameters are substituted
  /// with literal values by frontend::InstantiatePlan before execution, so
  /// Eval on a kParam node reports an internal error.
  static std::unique_ptr<BoundExpr> Param(size_t index, catalog::TypeId t);
  static std::unique_ptr<BoundExpr> Column(size_t index, catalog::TypeId t);
  static std::unique_ptr<BoundExpr> AggRef(size_t slot, catalog::TypeId t);
  static std::unique_ptr<BoundExpr> Unary(parser::UnaryOp op,
                                          std::unique_ptr<BoundExpr> operand);
  static std::unique_ptr<BoundExpr> Binary(parser::BinaryOp op,
                                           std::unique_ptr<BoundExpr> l,
                                           std::unique_ptr<BoundExpr> r);

  std::unique_ptr<BoundExpr> Clone() const;
  /// True if any node in the tree is a kParam placeholder.
  bool ContainsParam() const;
  /// Sets the flag of every input column the expression reads (kColumn and
  /// kAggRef slots) in `*columns`, which is sized to the input width.
  void MarkColumns(catalog::ColumnSet* columns) const;
  /// Renumbers every input column the expression reads (kColumn and kAggRef
  /// slots): column c becomes map[c].
  void RemapColumns(const catalog::SlotMap& map);
  std::string ToString() const;
};

/// Evaluates a bound expression against a tuple. SQL three-valued logic is
/// approximated: any comparison or arithmetic with NULL yields NULL, and a
/// NULL predicate result is treated as false by callers.
StatusOr<catalog::Value> Eval(const BoundExpr& expr, const catalog::Tuple& in);

/// Convenience: evaluates a predicate; NULL/non-bool results are false.
StatusOr<bool> EvalPredicate(const BoundExpr& expr, const catalog::Tuple& in);

}  // namespace stagedb::optimizer

#endif  // STAGEDB_OPTIMIZER_BOUND_EXPR_H_
