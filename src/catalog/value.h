// Runtime values: the cells of tuples flowing between operators.
#ifndef STAGEDB_CATALOG_VALUE_H_
#define STAGEDB_CATALOG_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "catalog/types.h"
#include "common/status.h"

namespace stagedb::catalog {

/// A dynamically typed SQL value. Small and copyable; VARCHARs own their
/// bytes.
class Value {
 public:
  Value() : type_(TypeId::kNull) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.bool_ = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.double_ = d;
    return v;
  }
  static Value Varchar(std::string s) {
    Value v;
    v.type_ = TypeId::kVarchar;
    v.str_ = std::move(s);
    return v;
  }

  /// Makes this a VARCHAR holding `s`, reusing the storage the string
  /// already has (a decode into a recycled row allocates nothing).
  void AssignVarchar(std::string_view s) {
    type_ = TypeId::kVarchar;
    str_.assign(s.data(), s.size());
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& varchar_value() const { return str_; }

  /// Numeric view (ints widen to double); 0 for non-numeric.
  double AsDouble() const {
    if (type_ == TypeId::kInt64) return static_cast<double>(int_);
    if (type_ == TypeId::kDouble) return double_;
    return 0.0;
  }

  /// Three-way comparison; values must be of comparable types. Nulls compare
  /// less than everything (used only for sorting; SQL comparisons against
  /// NULL yield false at the expression level).
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Hash consistent with operator== (for hash joins and aggregation).
  size_t Hash() const;

  std::string ToString() const;

 private:
  TypeId type_;
  union {
    bool bool_;
    int64_t int_ = 0;
    double double_;
  };
  std::string str_;
};

}  // namespace stagedb::catalog

#endif  // STAGEDB_CATALOG_VALUE_H_
