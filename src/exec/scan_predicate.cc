#include "exec/scan_predicate.h"

#include <cstring>
#include <utility>

namespace stagedb::exec {

using catalog::TypeId;
using optimizer::BoundExpr;
using parser::BinaryOp;

namespace {

/// The three-way results (-1, 0, 1) a comparison holds for, as bits 0-2;
/// 0 for an operator that is not a comparison.
uint8_t AcceptMask(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return 0b010;
    case BinaryOp::kNeq:
      return 0b101;
    case BinaryOp::kLt:
      return 0b001;
    case BinaryOp::kLe:
      return 0b011;
    case BinaryOp::kGt:
      return 0b100;
    case BinaryOp::kGe:
      return 0b110;
    default:
      return 0;
  }
}

/// The mask of the same comparison with its operands swapped: `lit < col`
/// holds exactly when `col > lit` does, because Compare is antisymmetric.
uint8_t Mirror(uint8_t accept) {
  return static_cast<uint8_t>((accept & 0b010) | ((accept & 0b001) << 2) |
                              ((accept & 0b100) >> 2));
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

bool Comparable(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDouble ||
         t == TypeId::kVarchar;
}

bool Numeric(TypeId t) { return t == TypeId::kInt64 || t == TypeId::kDouble; }

}  // namespace

std::optional<ScanPredicate> ScanPredicate::Compile(
    const BoundExpr& predicate, const catalog::Schema& schema,
    const std::vector<size_t>& columns) {
  ScanPredicate program;
  if (!program.AddTerms(predicate, schema, columns)) return std::nullopt;
  return program;
}

bool ScanPredicate::AddTerms(const BoundExpr& expr,
                             const catalog::Schema& schema,
                             const std::vector<size_t>& columns) {
  if (expr.kind != BoundExpr::Kind::kBinary) return false;
  if (expr.binary_op == BinaryOp::kAnd) {
    return AddTerms(*expr.left, schema, columns) &&
           AddTerms(*expr.right, schema, columns);
  }
  uint8_t accept = AcceptMask(expr.binary_op);
  if (accept == 0) return false;
  const BoundExpr* column = expr.left.get();
  const BoundExpr* literal = expr.right.get();
  if (column->kind != BoundExpr::Kind::kColumn) {
    std::swap(column, literal);
    accept = Mirror(accept);
  }
  if (column->kind != BoundExpr::Kind::kColumn ||
      literal->kind != BoundExpr::Kind::kLiteral ||
      column->column >= columns.size() ||
      columns[column->column] >= schema.num_columns()) {
    return false;
  }
  Term term;
  term.column = columns[column->column];
  term.accept = accept;
  const catalog::Value& value = literal->literal;
  const TypeId col_type = schema.column(term.column).type;
  const TypeId lit_type = value.type();
  if (!Comparable(col_type) || !Comparable(lit_type)) return false;
  if (Numeric(col_type) && Numeric(lit_type)) {
    if (col_type == TypeId::kInt64 && lit_type == TypeId::kInt64) {
      term.cmp = Cmp::kInt;
      term.int_literal = value.int_value();
    } else {
      term.cmp = col_type == TypeId::kInt64 ? Cmp::kIntAsDouble : Cmp::kDouble;
      term.double_literal = value.AsDouble();
    }
  } else if (col_type != lit_type) {
    term.cmp = Cmp::kConstant;
    term.constant = static_cast<int>(col_type) < static_cast<int>(lit_type)
                        ? -1
                        : 1;
  } else if (col_type == TypeId::kBool) {
    term.cmp = Cmp::kBool;
    term.bool_literal = value.bool_value();
  } else {
    term.cmp = Cmp::kVarchar;
    term.varchar_literal = value.varchar_value();
  }
  terms_.push_back(std::move(term));
  return true;
}

bool ScanPredicate::Matches(std::string_view bytes,
                            const catalog::ColumnOffsets& offsets) const {
  for (const Term& t : terms_) {
    const uint32_t at = offsets[t.column];
    if (at == catalog::kNullColumn) return false;
    const char* p = bytes.data() + at;
    int c = 0;
    switch (t.cmp) {
      case Cmp::kInt: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        c = ThreeWay(v, t.int_literal);
        break;
      }
      case Cmp::kIntAsDouble: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        c = ThreeWay(static_cast<double>(v), t.double_literal);
        break;
      }
      case Cmp::kDouble: {
        double v;
        std::memcpy(&v, p, sizeof(v));
        c = ThreeWay(v, t.double_literal);
        break;
      }
      case Cmp::kBool: {
        uint8_t v;
        std::memcpy(&v, p, sizeof(v));
        c = ThreeWay<int>(v != 0, t.bool_literal);
        break;
      }
      case Cmp::kVarchar: {
        uint32_t len;
        std::memcpy(&len, p, sizeof(len));
        c = ThreeWay(std::string_view(p + sizeof(len), len)
                         .compare(t.varchar_literal),
                     0);
        break;
      }
      case Cmp::kConstant:
        c = t.constant;
        break;
    }
    if (((t.accept >> (c + 1)) & 1) == 0) return false;
  }
  return true;
}

}  // namespace stagedb::exec
