// Tests for types, values, schemas, tuples (and the scan predicates compiled
// to run on encoded tuples), stats, symbol table, catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/symbol_table.h"
#include "catalog/table_stats.h"
#include "catalog/tuple.h"
#include "catalog/value.h"
#include "common/rng.h"
#include "exec/scan_predicate.h"
#include "optimizer/bound_expr.h"
#include "storage/disk_manager.h"

namespace stagedb::catalog {
namespace {

using exec::ScanPredicate;
using optimizer::BoundExpr;
using parser::BinaryOp;
using storage::BufferPool;
using storage::MemDiskManager;

// ------------------------------------------------------------------ Value ---

TEST(ValueTest, TypeAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).int_value(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Varchar("abc").varchar_value(), "abc");
  EXPECT_TRUE(Value::Bool(true).bool_value());
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(5).Compare(Value::Int(5)), 0);
  EXPECT_GT(Value::Varchar("b").Compare(Value::Varchar("a")), 0);
  EXPECT_LT(Value::Double(1.5).Compare(Value::Double(2.0)), 0);
}

TEST(ValueTest, CrossNumericCompare) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Int(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::Varchar("x").Hash(), Value::Varchar("x").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

// ----------------------------------------------------------------- Schema ---

Schema WisconsinLikeSchema() {
  return Schema({{"unique1", TypeId::kInt64, ""},
                 {"unique2", TypeId::kInt64, ""},
                 {"stringu1", TypeId::kVarchar, ""}});
}

TEST(SchemaTest, FindByName) {
  Schema s = WisconsinLikeSchema();
  auto idx = s.Find("unique2");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(s.Find("nope").status().IsNotFound());
}

TEST(SchemaTest, QualifiedLookup) {
  Schema s = WisconsinLikeSchema().Qualified("tenk1");
  EXPECT_TRUE(s.Find("tenk1.unique1").ok());
  EXPECT_TRUE(s.Find("unique1").ok());
  EXPECT_TRUE(s.Find("other.unique1").status().IsNotFound());
}

TEST(SchemaTest, ConcatDetectsAmbiguity) {
  Schema a = WisconsinLikeSchema().Qualified("t1");
  Schema b = WisconsinLikeSchema().Qualified("t2");
  Schema joined = Schema::Concat(a, b);
  EXPECT_EQ(joined.num_columns(), 6u);
  // Unqualified name now ambiguous.
  EXPECT_EQ(joined.Find("unique1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(joined.Find("t2.unique1").ok());
}

// ------------------------------------------------------------------ Tuple ---

TEST(TupleTest, EncodeDecodeRoundTrip) {
  Schema s({{"a", TypeId::kInt64, ""},
            {"b", TypeId::kVarchar, ""},
            {"c", TypeId::kDouble, ""},
            {"d", TypeId::kBool, ""}});
  Tuple t = {Value::Int(-5), Value::Varchar("hello world"),
             Value::Double(3.25), Value::Bool(true)};
  std::string bytes = EncodeTuple(s, t);
  auto decoded = DecodeTuple(s, bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 4u);
  EXPECT_EQ((*decoded)[0], t[0]);
  EXPECT_EQ((*decoded)[1], t[1]);
  EXPECT_EQ((*decoded)[2], t[2]);
  EXPECT_EQ((*decoded)[3].bool_value(), true);
}

TEST(TupleTest, NullsSurviveRoundTrip) {
  Schema s({{"a", TypeId::kInt64, ""}, {"b", TypeId::kVarchar, ""}});
  Tuple t = {Value::Null(), Value::Varchar("x")};
  auto decoded = DecodeTuple(s, EncodeTuple(s, t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)[0].is_null());
  EXPECT_EQ((*decoded)[1].varchar_value(), "x");
}

TEST(TupleTest, EmptyVarcharAndLargeInt) {
  Schema s({{"a", TypeId::kVarchar, ""}, {"b", TypeId::kInt64, ""}});
  Tuple t = {Value::Varchar(""), Value::Int(INT64_MIN)};
  auto decoded = DecodeTuple(s, EncodeTuple(s, t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].varchar_value(), "");
  EXPECT_EQ((*decoded)[1].int_value(), INT64_MIN);
}

TEST(TupleTest, CorruptionDetected) {
  Schema s({{"a", TypeId::kInt64, ""}});
  Tuple t = {Value::Int(1)};
  std::string bytes = EncodeTuple(s, t);
  bytes.resize(bytes.size() - 3);  // truncate
  EXPECT_EQ(DecodeTuple(s, bytes).status().code(), StatusCode::kCorruption);
}

TEST(TupleTest, ReadSetDecodeMatchesFullDecode) {
  // Nine columns, so the null bitmap spans two bytes.
  Schema s({{"i0", TypeId::kInt64, ""},
            {"v1", TypeId::kVarchar, ""},
            {"i2", TypeId::kInt64, ""},
            {"v3", TypeId::kVarchar, ""},
            {"d4", TypeId::kDouble, ""},
            {"b5", TypeId::kBool, ""},
            {"n6", TypeId::kInt64, ""},
            {"i7", TypeId::kInt64, ""},
            {"v8", TypeId::kVarchar, ""}});
  const Tuple t = {Value::Int(7),        Value::Varchar("alpha"),
                   Value::Int(-3),       Value::Varchar("a longer string"),
                   Value::Double(2.5),   Value::Bool(true),
                   Value::Null(),        Value::Int(INT64_MAX),
                   Value::Varchar("")};
  const std::string bytes = EncodeTuple(s, t);
  // Reads only i0 and i7, into a two-column row: v1, i2, v3 and v8 are
  // unread ints and varchars.
  SlotMap read(9, kSkipColumn);
  read[0] = 0;
  read[7] = 1;
  const std::vector<SlotMap> maps = {read, SlotMap(9, kSkipColumn),
                                     IdentitySlots(9)};

  Tuple out(2);
  ASSERT_TRUE(DecodeTuple(s, bytes, read, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], t[0]);
  EXPECT_EQ(out[1], t[7]);
  // The identity map is the full decode.
  Tuple whole(9);
  ASSERT_TRUE(DecodeTuple(s, bytes, IdentitySlots(9), &whole).ok());
  EXPECT_EQ(whole, t);
  // A slot past the output row is refused, not written.
  Tuple narrow(1);
  EXPECT_EQ(DecodeTuple(s, bytes, read, &narrow).code(),
            StatusCode::kInternal);

  // Every truncation is the full decode's Corruption, whatever the map: cuts
  // 0-1 fall inside the two-byte bitmap, 10-18 inside the unread varchar v1
  // (length, then body), 19-26 inside the unread int i2, and so on to the
  // last byte.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string_view truncated(bytes.data(), cut);
    auto full = DecodeTuple(s, truncated);
    ASSERT_FALSE(full.ok()) << cut;
    ASSERT_EQ(full.status().code(), StatusCode::kCorruption) << cut;
    for (const SlotMap& map : maps) {
      Tuple partial(9);
      const Status st = DecodeTuple(s, truncated, map, &partial);
      EXPECT_EQ(st.code(), full.status().code()) << cut;
      EXPECT_EQ(st.message(), full.status().message()) << cut;
    }
  }
}

// ---------------------------------------------- compiled scan predicates ---

constexpr TypeId kCellTypes[] = {TypeId::kBool, TypeId::kInt64,
                                 TypeId::kDouble, TypeId::kVarchar};
constexpr BinaryOp kComparisons[] = {BinaryOp::kEq, BinaryOp::kNeq,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe};

/// The edge cases of a type: the int64 extremes and ints past double
/// precision, NaN, infinities, signed zeros and doubles equal to ints, and
/// varchars that differ past a shared prefix or in bytes above 0x7f.
std::vector<Value> EdgeValues(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return {Value::Bool(false), Value::Bool(true)};
    case TypeId::kInt64: {
      std::vector<Value> out;
      for (int64_t v : {INT64_MIN, INT64_MIN + 1, int64_t{-3}, int64_t{0},
                        int64_t{2}, int64_t{3}, int64_t{1} << 53,
                        (int64_t{1} << 53) + 1, INT64_MAX - 1, INT64_MAX}) {
        out.push_back(Value::Int(v));
      }
      return out;
    }
    case TypeId::kDouble: {
      const double inf = std::numeric_limits<double>::infinity();
      std::vector<Value> out;
      for (double v : {std::nan(""), -inf, -9.223372036854775808e18, -3.0,
                       -0.0, 0.0, 2.5, 3.0, 9007199254740992.0,
                       9.223372036854775807e18, inf}) {
        out.push_back(Value::Double(v));
      }
      return out;
    }
    default: {
      std::vector<Value> out;
      for (const char* v :
           {"", "a", "ab", "abc", "b", "B", "\x7f", "\x80", "a\x80", "\xff"}) {
        out.push_back(Value::Varchar(v));
      }
      return out;
    }
  }
}

Value RandomEdgeValue(Rng* rng, TypeId type) {
  const std::vector<Value> values = EdgeValues(type);
  return values[rng->Uniform(values.size())];
}

/// `#slot op literal`, or `literal op #slot` when `flip`.
std::unique_ptr<BoundExpr> Comparison(BinaryOp op, size_t slot, TypeId type,
                                      Value literal, bool flip) {
  auto column = BoundExpr::Column(slot, type);
  auto value = BoundExpr::Literal(std::move(literal));
  return flip ? BoundExpr::Binary(op, std::move(value), std::move(column))
              : BoundExpr::Binary(op, std::move(column), std::move(value));
}

/// The compiled verdict on `row`, which must equal EvalPredicate's on the
/// row decoded into the slots `read` names.
void ExpectSameVerdict(const BoundExpr& pred, const Schema& schema,
                       const std::vector<size_t>& read, const Tuple& row,
                       int64_t* passed) {
  auto program = ScanPredicate::Compile(pred, schema, read);
  ASSERT_TRUE(program.has_value()) << pred.ToString();
  const std::string bytes = EncodeTuple(schema, row);
  ColumnOffsets offsets;
  ASSERT_TRUE(LocateColumns(schema, bytes, &offsets).ok());
  SlotMap slots(schema.num_columns(), kSkipColumn);
  for (size_t s = 0; s < read.size(); ++s) slots[read[s]] = s;
  Tuple decoded(read.size());
  ASSERT_TRUE(DecodeTuple(schema, bytes, slots, &decoded).ok());
  auto expected = optimizer::EvalPredicate(pred, decoded);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(program->Matches(bytes, offsets), *expected)
      << pred.ToString() << " on " << TupleToString(decoded);
  if (*expected) ++*passed;
}

TEST(ScanPredicateTest, EveryTermMatchesTheInterpreter) {
  // Every column type against every literal type, every operator, the
  // literal on both sides, over every edge value and NULL. A varchar column
  // comes first so the tested column sits past a variable-length one.
  int64_t passed = 0, checked = 0;
  for (TypeId col_type : kCellTypes) {
    const Schema schema({{"pad", TypeId::kVarchar, ""}, {"c", col_type, ""}});
    std::vector<Value> cells = EdgeValues(col_type);
    cells.push_back(Value::Null());
    for (TypeId lit_type : kCellTypes) {
      for (BinaryOp op : kComparisons) {
        for (bool flip : {false, true}) {
          for (const Value& literal : EdgeValues(lit_type)) {
            auto pred = Comparison(op, 1, col_type, literal, flip);
            for (const Value& cell : cells) {
              ExpectSameVerdict(*pred, schema, {0, 1},
                                {Value::Varchar("xyz"), cell}, &passed);
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(passed, checked / 4);
  EXPECT_LT(passed, checked);
}

TEST(ScanPredicateTest, RandomConjunctionsMatchTheInterpreter) {
  // Random schemas and read sets; AND-trees of up to five terms over the
  // read set's slots, nested on either side; rows with NULLs.
  Rng rng(23);
  int64_t passed = 0, checked = 0;
  for (int round = 0; round < 400; ++round) {
    const size_t n = 1 + rng.Uniform(10);
    std::vector<Column> cols;
    for (size_t i = 0; i < n; ++i) {
      cols.push_back({"c" + std::to_string(i), kCellTypes[rng.Uniform(4)], ""});
    }
    const Schema schema(cols);
    std::vector<size_t> read;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(3) != 0) read.push_back(i);
    }
    if (read.empty()) read.push_back(rng.Uniform(n));
    std::unique_ptr<BoundExpr> pred;
    const uint64_t terms = 1 + rng.Uniform(5);
    for (uint64_t t = 0; t < terms; ++t) {
      const size_t slot = rng.Uniform(read.size());
      const TypeId col_type = schema.column(read[slot]).type;
      // Mostly a literal of the column's own type, so verdicts vary.
      const TypeId lit_type =
          rng.Uniform(4) == 0 ? kCellTypes[rng.Uniform(4)] : col_type;
      auto term = Comparison(kComparisons[rng.Uniform(6)], slot, col_type,
                             RandomEdgeValue(&rng, lit_type),
                             rng.Uniform(2) == 0);
      if (pred == nullptr) {
        pred = std::move(term);
      } else if (rng.Uniform(2) == 0) {
        pred = BoundExpr::Binary(BinaryOp::kAnd, std::move(pred),
                                 std::move(term));
      } else {
        pred = BoundExpr::Binary(BinaryOp::kAnd, std::move(term),
                                 std::move(pred));
      }
    }
    for (int r = 0; r < 25; ++r) {
      Tuple row(n);
      for (size_t i = 0; i < n; ++i) {
        row[i] = rng.Uniform(6) == 0
                     ? Value::Null()
                     : RandomEdgeValue(&rng, schema.column(i).type);
      }
      ExpectSameVerdict(*pred, schema, read, row, &passed);
      ++checked;
    }
  }
  EXPECT_GT(passed, checked / 50);
  EXPECT_LT(passed, checked);
}

TEST(ScanPredicateTest, ShapesOutsideTheSubsetBuildNoProgram) {
  const Schema schema({{"a", TypeId::kInt64, ""},
                       {"b", TypeId::kInt64, ""},
                       {"s", TypeId::kVarchar, ""}});
  const std::vector<size_t> columns = {0, 1, 2};
  const auto col = [](size_t slot) {
    return BoundExpr::Column(slot, TypeId::kInt64);
  };
  const auto lit = [](int64_t v) { return BoundExpr::Literal(Value::Int(v)); };
  const auto eq = [](std::unique_ptr<BoundExpr> l,
                     std::unique_ptr<BoundExpr> r) {
    return BoundExpr::Binary(BinaryOp::kEq, std::move(l), std::move(r));
  };
  std::vector<std::unique_ptr<BoundExpr>> shapes;
  shapes.push_back(BoundExpr::Binary(BinaryOp::kOr, eq(col(0), lit(1)),
                                     eq(col(1), lit(2))));
  shapes.push_back(BoundExpr::Unary(parser::UnaryOp::kNot, eq(col(0), lit(1))));
  shapes.push_back(BoundExpr::Binary(
      BinaryOp::kLt, BoundExpr::Binary(BinaryOp::kAdd, col(0), lit(1)),
      lit(5)));
  shapes.push_back(eq(BoundExpr::Unary(parser::UnaryOp::kNeg, col(0)), lit(1)));
  shapes.push_back(eq(col(0), col(1)));
  shapes.push_back(eq(col(0), BoundExpr::Literal(Value::Null())));
  shapes.push_back(eq(col(0), BoundExpr::Param(0, TypeId::kInt64)));
  shapes.push_back(eq(lit(1), lit(1)));
  shapes.push_back(BoundExpr::Literal(Value::Bool(true)));
  shapes.push_back(BoundExpr::Column(0, TypeId::kBool));
  shapes.push_back(eq(col(3), lit(1)));  // past the row the predicate reads
  // One term outside the subset keeps the whole conjunction interpreted.
  shapes.push_back(BoundExpr::Binary(
      BinaryOp::kAnd, eq(col(0), lit(1)),
      BoundExpr::Binary(BinaryOp::kOr, eq(col(1), lit(2)),
                        eq(col(1), lit(3)))));
  shapes.push_back(BoundExpr::Binary(BinaryOp::kAnd, eq(col(0), col(1)),
                                     eq(col(1), lit(3))));
  for (const auto& shape : shapes) {
    EXPECT_FALSE(ScanPredicate::Compile(*shape, schema, columns).has_value())
        << shape->ToString();
  }
  // The same terms in the subset do compile.
  auto conjunction = BoundExpr::Binary(
      BinaryOp::kAnd, eq(col(0), lit(1)),
      BoundExpr::Binary(BinaryOp::kAnd, eq(lit(2), col(1)),
                        eq(BoundExpr::Column(2, TypeId::kVarchar),
                           BoundExpr::Literal(Value::Varchar("x")))));
  EXPECT_TRUE(
      ScanPredicate::Compile(*conjunction, schema, columns).has_value());
}

/// The decoder's record walk as it was before LocateColumns: the status it
/// gave a record.
Status WalkBeforeLocate(const Schema& schema, std::string_view bytes) {
  const size_t n = schema.num_columns();
  const size_t bitmap_len = (n + 7) / 8;
  if (bytes.size() < bitmap_len) {
    return Status::Corruption("tuple shorter than null bitmap");
  }
  const std::string_view bitmap = bytes.substr(0, bitmap_len);
  bytes.remove_prefix(bitmap_len);
  const auto take = [&](size_t len) {
    if (bytes.size() < len) return false;
    bytes.remove_prefix(len);
    return true;
  };
  for (size_t i = 0; i < n; ++i) {
    if ((bitmap[i / 8] >> (i % 8)) & 1) continue;
    switch (schema.column(i).type) {
      case TypeId::kBool:
        if (!take(1)) return Status::Corruption("truncated bool");
        break;
      case TypeId::kInt64:
        if (!take(8)) return Status::Corruption("truncated int");
        break;
      case TypeId::kDouble:
        if (!take(8)) return Status::Corruption("truncated double");
        break;
      case TypeId::kVarchar: {
        uint32_t len = 0;
        if (bytes.size() >= sizeof(len)) {
          std::memcpy(&len, bytes.data(), sizeof(len));
        }
        if (!take(sizeof(len)) || !take(len)) {
          return Status::Corruption("truncated varchar");
        }
        break;
      }
      default:
        return Status::Corruption("unknown column type");
    }
  }
  return Status::OK();
}

TEST(ScanPredicateTest, LocateColumnsRejectsEveryTruncationLikeTheDecoder) {
  Rng rng(29);
  for (int round = 0; round < 150; ++round) {
    const size_t n = 1 + rng.Uniform(12);  // bitmaps of one and two bytes
    std::vector<Column> cols;
    for (size_t i = 0; i < n; ++i) {
      cols.push_back({"c" + std::to_string(i), kCellTypes[rng.Uniform(4)], ""});
    }
    const Schema schema(cols);
    Tuple row(n);
    for (size_t i = 0; i < n; ++i) {
      row[i] = rng.Uniform(4) == 0
                   ? Value::Null()
                   : RandomEdgeValue(&rng, schema.column(i).type);
    }
    const std::string bytes = EncodeTuple(schema, row);
    ColumnOffsets offsets;
    ASSERT_TRUE(LocateColumns(schema, bytes, &offsets).ok());
    ASSERT_EQ(offsets.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(offsets[i] == kNullColumn, row[i].is_null());
      if (!row[i].is_null()) {
        EXPECT_LT(offsets[i], bytes.size());
      }
    }
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::string_view truncated(bytes.data(), cut);
      const Status before = WalkBeforeLocate(schema, truncated);
      ASSERT_EQ(before.code(), StatusCode::kCorruption) << cut;
      const Status located = LocateColumns(schema, truncated, &offsets);
      EXPECT_EQ(located.code(), before.code()) << cut;
      EXPECT_EQ(located.message(), before.message()) << cut;
    }
  }
}

// ------------------------------------------------------------ TableStats ---

TEST(TableStatsTest, TracksCountMinMaxNdv) {
  TableStats stats(2);
  for (int i = 0; i < 100; ++i) {
    stats.RecordInsert({Value::Int(i % 10), Value::Int(i)});
  }
  EXPECT_EQ(stats.row_count(), 100);
  EXPECT_EQ(stats.column(0).num_distinct, 10);
  EXPECT_EQ(stats.column(1).num_distinct, 100);
  EXPECT_EQ(stats.column(0).min.int_value(), 0);
  EXPECT_EQ(stats.column(0).max.int_value(), 9);
}

TEST(TableStatsTest, SelectivityEstimates) {
  TableStats stats(1);
  for (int i = 0; i < 1000; ++i) stats.RecordInsert({Value::Int(i)});
  EXPECT_NEAR(stats.EqSelectivity(0), 0.001, 1e-6);
  // Range covering 10% of [0, 999].
  EXPECT_NEAR(stats.RangeSelectivity(0, Value::Int(0), Value::Int(99)), 0.1,
              0.01);
}

TEST(TableStatsTest, NullsCounted) {
  TableStats stats(1);
  stats.RecordInsert({Value::Null()});
  stats.RecordInsert({Value::Int(1)});
  EXPECT_EQ(stats.column(0).num_nulls, 1);
  EXPECT_EQ(stats.row_count(), 2);
}

// DML records inserts and deletes while the planner reads the count and the
// selectivities (the TSan leg runs this): the stats must stay race-free and
// the count exact.
TEST(TableStatsTest, ConcurrentWritersAndPlannerReads) {
  TableStats stats(2);
  constexpr int kWriters = 2;
  constexpr int kRowsPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_GE(stats.row_count(), 0);
      EXPECT_GT(stats.EqSelectivity(0), 0.0);
      EXPECT_GE(stats.RangeSelectivity(0, Value::Int(0), Value::Int(99)), 0.0);
      EXPECT_GE(stats.column(1).num_distinct, 0);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        stats.RecordInsert({Value::Int(w * kRowsPerWriter + i),
                            Value::Varchar("v" + std::to_string(i % 7))});
        if (i % 2 == 1) stats.RecordDelete();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(stats.row_count(), kWriters * kRowsPerWriter / 2);
  EXPECT_EQ(stats.column(0).num_distinct, kWriters * kRowsPerWriter);
  EXPECT_EQ(stats.column(1).num_distinct, 7);
}

// ----------------------------------------------------------- SymbolTable ---

TEST(SymbolTableTest, InternIsStable) {
  SymbolTable st;
  const int32_t a = st.Intern("tenk1");
  const int32_t b = st.Intern("unique1");
  EXPECT_NE(a, b);
  EXPECT_EQ(st.Intern("tenk1"), a);
  EXPECT_EQ(st.NameOf(a), "tenk1");
  EXPECT_EQ(st.size(), 2u);
}

TEST(SymbolTableTest, LookupCountsHits) {
  SymbolTable st;
  st.Intern("x");
  EXPECT_EQ(st.Lookup("x"), 0);
  EXPECT_EQ(st.Lookup("y"), -1);
  EXPECT_GE(st.lookups(), 3);
  EXPECT_GE(st.hits(), 1);
}

// ---------------------------------------------------------------- Catalog ---

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<MemDiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 128);
    catalog_ = std::make_unique<Catalog>(pool_.get());
  }
  Schema TestSchema() {
    return Schema({{"id", TypeId::kInt64, ""}, {"name", TypeId::kVarchar, ""}});
  }
  std::unique_ptr<MemDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name, "users");
  EXPECT_EQ((*t)->schema.num_columns(), 2u);
  auto got = catalog_->GetTable("users");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *t);
  EXPECT_TRUE(catalog_->GetTable("nope").status().IsNotFound());
  EXPECT_EQ(catalog_->CreateTable("users", TestSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, InsertMaintainsStats) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 10; ++i) {
    auto rid = catalog_->InsertTuple(
        *t, {Value::Int(i), Value::Varchar("u" + std::to_string(i))});
    ASSERT_TRUE(rid.ok());
  }
  EXPECT_EQ((*t)->stats->row_count(), 10);
  auto count = (*t)->heap->CountRecords();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10);
}

TEST_F(CatalogTest, InsertRejectsBadArity_AndTypes) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(catalog_->InsertTuple(*t, {Value::Int(1)}).ok());
  EXPECT_FALSE(
      catalog_->InsertTuple(*t, {Value::Varchar("x"), Value::Varchar("y")})
          .ok());
}

TEST_F(CatalogTest, IndexBackfillAndMaintenance) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        catalog_->InsertTuple(*t, {Value::Int(i), Value::Varchar("u")}).ok());
  }
  auto idx = catalog_->CreateIndex("users_id", "users", "id");
  ASSERT_TRUE(idx.ok());
  // Backfilled:
  auto rid = (*idx)->tree->Get(42);
  ASSERT_TRUE(rid.ok());
  // Maintained on new inserts:
  ASSERT_TRUE(
      catalog_->InsertTuple(*t, {Value::Int(500), Value::Varchar("new")}).ok());
  EXPECT_TRUE((*idx)->tree->Get(500).ok());
  // FindIndexOn resolves it.
  EXPECT_EQ(catalog_->FindIndexOn((*t)->id, 0), *idx);
  EXPECT_EQ(catalog_->FindIndexOn((*t)->id, 1), nullptr);
}

// Two live rows sharing a key cannot back a unique index: the backfill
// fails and leaves no index behind.
TEST_F(CatalogTest, IndexBackfillRejectsDuplicateLiveKeys) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(
      catalog_->InsertTuple(*t, {Value::Int(1), Value::Varchar("a")}).ok());
  ASSERT_TRUE(
      catalog_->InsertTuple(*t, {Value::Int(1), Value::Varchar("b")}).ok());
  EXPECT_EQ(catalog_->CreateIndex("users_id", "users", "id").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog_->GetIndex("users_id").status().IsNotFound());
  EXPECT_EQ(catalog_->FindIndexOn((*t)->id, 0), nullptr);
  EXPECT_TRUE((*t)->indexes.empty());
}

TEST_F(CatalogTest, IndexRequiresIntegerColumn) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(catalog_->CreateIndex("bad", "users", "name").status().code(),
            StatusCode::kNotSupported);
}

TEST_F(CatalogTest, DeleteTupleMaintainsIndexes) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  auto rid = catalog_->InsertTuple(*t, {Value::Int(7), Value::Varchar("x")});
  ASSERT_TRUE(rid.ok());
  auto idx = catalog_->CreateIndex("users_id", "users", "id");
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(catalog_->DeleteTuple(*t, *rid).ok());
  EXPECT_TRUE((*idx)->tree->Get(7).status().IsNotFound());
  EXPECT_EQ((*t)->stats->row_count(), 0);
}

TEST_F(CatalogTest, DropTableRemovesIndexes) {
  auto t = catalog_->CreateTable("users", TestSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(catalog_->CreateIndex("users_id", "users", "id").ok());
  ASSERT_TRUE(catalog_->DropTable("users").ok());
  EXPECT_TRUE(catalog_->GetTable("users").status().IsNotFound());
  EXPECT_TRUE(catalog_->GetIndex("users_id").status().IsNotFound());
  EXPECT_TRUE(catalog_->DropTable("users").IsNotFound());
}

TEST_F(CatalogTest, TableNamesSorted) {
  ASSERT_TRUE(catalog_->CreateTable("b", TestSchema()).ok());
  ASSERT_TRUE(catalog_->CreateTable("a", TestSchema()).ok());
  auto names = catalog_->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

}  // namespace
}  // namespace stagedb::catalog
