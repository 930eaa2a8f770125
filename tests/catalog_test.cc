// Tests for types, values, schemas, tuples, stats, symbol table, catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/symbol_table.h"
#include "catalog/table_stats.h"
#include "catalog/tuple.h"
#include "catalog/value.h"
#include "storage/disk_manager.h"

namespace stagedb::catalog {
namespace {

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
