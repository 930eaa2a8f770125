#include "optimizer/bound_expr.h"

#include <cmath>
#include <cstdint>

#include "common/string_util.h"

namespace stagedb::optimizer {

using catalog::TypeId;
using catalog::Value;
using parser::BinaryOp;
using parser::UnaryOp;

std::unique_ptr<BoundExpr> BoundExpr::Literal(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kLiteral;
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::Param(size_t index, TypeId t) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kParam;
  e->column = index;
  e->type = t;
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::Column(size_t index, TypeId t) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kColumn;
  e->column = index;
  e->type = t;
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::AggRef(size_t slot, TypeId t) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kAggRef;
  e->column = slot;
  e->type = t;
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::Unary(UnaryOp op,
                                            std::unique_ptr<BoundExpr> child) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kUnary;
  e->unary_op = op;
  e->type = op == UnaryOp::kNot ? TypeId::kBool : child->type;
  e->left = std::move(child);
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::Binary(BinaryOp op,
                                             std::unique_ptr<BoundExpr> l,
                                             std::unique_ptr<BoundExpr> r) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = Kind::kBinary;
  e->binary_op = op;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      e->type = (l->type == TypeId::kDouble || r->type == TypeId::kDouble)
                    ? TypeId::kDouble
                    : TypeId::kInt64;
      break;
    default:
      e->type = TypeId::kBool;
      break;
  }
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<BoundExpr> BoundExpr::Clone() const {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  e->type = type;
  e->literal = literal;
  e->column = column;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  return e;
}

bool BoundExpr::ContainsParam() const {
  if (kind == Kind::kParam) return true;
  if (left && left->ContainsParam()) return true;
  if (right && right->ContainsParam()) return true;
  return false;
}

void BoundExpr::MarkColumns(catalog::ColumnSet* columns) const {
  if ((kind == Kind::kColumn || kind == Kind::kAggRef) &&
      column < columns->size()) {
    (*columns)[column] = true;
  }
  if (left) left->MarkColumns(columns);
  if (right) right->MarkColumns(columns);
}

void BoundExpr::RemapColumns(const catalog::SlotMap& map) {
  if ((kind == Kind::kColumn || kind == Kind::kAggRef) &&
      column < map.size()) {
    column = map[column];
  }
  if (left) left->RemapColumns(map);
  if (right) right->RemapColumns(map);
}

std::string BoundExpr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kParam:
      return StrFormat("?%zu", column);
    case Kind::kColumn:
      return StrFormat("#%zu", column);
    case Kind::kAggRef:
      return StrFormat("agg#%zu", column);
    case Kind::kUnary:
      return std::string(unary_op == UnaryOp::kNeg ? "-" : "NOT ") +
             left->ToString();
    case Kind::kBinary:
      return "(" + left->ToString() + " " + parser::BinaryOpName(binary_op) +
             " " + right->ToString() + ")";
  }
  return "?";
}

namespace {

StatusOr<Value> EvalBinary(BinaryOp op, const Value& l, const Value& r) {
  // NULL propagation.
  if (l.is_null() || r.is_null()) {
    if (op == BinaryOp::kAnd) {
      // false AND NULL = false.
      if ((!l.is_null() && l.type() == TypeId::kBool && !l.bool_value()) ||
          (!r.is_null() && r.type() == TypeId::kBool && !r.bool_value())) {
        return Value::Bool(false);
      }
      return Value::Null();
    }
    if (op == BinaryOp::kOr) {
      if ((!l.is_null() && l.type() == TypeId::kBool && l.bool_value()) ||
          (!r.is_null() && r.type() == TypeId::kBool && r.bool_value())) {
        return Value::Bool(true);
      }
      return Value::Null();
    }
    return Value::Null();
  }
  switch (op) {
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (l.type() != TypeId::kBool || r.type() != TypeId::kBool) {
        return Status::InvalidArgument("AND/OR on non-boolean values");
      }
      const bool b = op == BinaryOp::kAnd
                         ? (l.bool_value() && r.bool_value())
                         : (l.bool_value() || r.bool_value());
      return Value::Bool(b);
    }
    case BinaryOp::kEq:
      return Value::Bool(l.Compare(r) == 0);
    case BinaryOp::kNeq:
      return Value::Bool(l.Compare(r) != 0);
    case BinaryOp::kLt:
      return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(l.Compare(r) >= 0);
    default:
      break;
  }
  // Arithmetic.
  const bool any_double =
      l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;
  if ((l.type() != TypeId::kInt64 && l.type() != TypeId::kDouble) ||
      (r.type() != TypeId::kInt64 && r.type() != TypeId::kDouble)) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  if (any_double) {
    const double a = l.AsDouble(), b = r.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Double(a + b);
      case BinaryOp::kSub:
        return Value::Double(a - b);
      case BinaryOp::kMul:
        return Value::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Value::Double(std::fmod(a, b));
      default:
        break;
    }
  } else {
    const int64_t a = l.int_value(), b = r.int_value();
    int64_t out = 0;
    bool overflow = false;
    switch (op) {
      case BinaryOp::kAdd:
        overflow = __builtin_add_overflow(a, b, &out);
        break;
      case BinaryOp::kSub:
        overflow = __builtin_sub_overflow(a, b, &out);
        break;
      case BinaryOp::kMul:
        overflow = __builtin_mul_overflow(a, b, &out);
        break;
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        overflow = a == INT64_MIN && b == -1;
        if (!overflow) out = a / b;
        break;
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        if (b != -1) out = a % b;  // INT64_MIN % -1 is 0, not a trap
        break;
      default:
        return Status::Internal("unhandled binary operator");
    }
    if (overflow) return Status::InvalidArgument("integer overflow");
    return Value::Int(out);
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

StatusOr<Value> Eval(const BoundExpr& expr, const catalog::Tuple& in) {
  switch (expr.kind) {
    case BoundExpr::Kind::kLiteral:
      return expr.literal;
    case BoundExpr::Kind::kParam:
      return Status::Internal(StrFormat(
          "unbound parameter ?%zu (plan template executed without "
          "instantiation)",
          expr.column));
    case BoundExpr::Kind::kColumn:
    case BoundExpr::Kind::kAggRef: {
      if (expr.column >= in.size()) {
        return Status::Internal(
            StrFormat("column #%zu out of range (%zu)", expr.column,
                      in.size()));
      }
      return in[expr.column];
    }
    case BoundExpr::Kind::kUnary: {
      auto v = Eval(*expr.left, in);
      if (!v.ok()) return v;
      if (v->is_null()) return Value::Null();
      if (expr.unary_op == UnaryOp::kNot) {
        if (v->type() != TypeId::kBool) {
          return Status::InvalidArgument("NOT on non-boolean");
        }
        return Value::Bool(!v->bool_value());
      }
      if (v->type() == TypeId::kInt64) {
        if (v->int_value() == INT64_MIN) {
          return Status::InvalidArgument("integer overflow");
        }
        return Value::Int(-v->int_value());
      }
      if (v->type() == TypeId::kDouble) {
        return Value::Double(-v->double_value());
      }
      return Status::InvalidArgument("negation of non-numeric value");
    }
    case BoundExpr::Kind::kBinary: {
      auto l = Eval(*expr.left, in);
      if (!l.ok()) return l;
      auto r = Eval(*expr.right, in);
      if (!r.ok()) return r;
      return EvalBinary(expr.binary_op, *l, *r);
    }
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<bool> EvalPredicate(const BoundExpr& expr, const catalog::Tuple& in) {
  auto v = Eval(expr, in);
  if (!v.ok()) return v.status();
  if (v->is_null()) return false;
  if (v->type() != TypeId::kBool) {
    return Status::InvalidArgument("predicate is not boolean");
  }
  return v->bool_value();
}

}  // namespace stagedb::optimizer
