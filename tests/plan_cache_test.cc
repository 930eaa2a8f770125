// Tests for the front-end work-reuse subsystem: SQL normalization, the
// versioned sharded plan cache, prepared statements, catalog-epoch
// invalidation (including DDL racing prepared execution), and differential
// cached-vs-uncached results across both execution engines.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/tuple.h"
#include "frontend/normalizer.h"
#include "frontend/plan_cache.h"
#include "server/server.h"

namespace stagedb::frontend {
namespace {

using catalog::TypeId;
using catalog::Value;
using server::Database;
using server::DatabaseOptions;
using server::ExecutionMode;
using server::QueryResult;

// --------------------------------------------------------------- Normalizer --

TEST(NormalizerTest, LiteralsBecomePlaceholders) {
  auto norm = Normalize("SELECT a FROM t WHERE b = 42 AND c = 'x' AND d < 1.5");
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(norm->cacheable);
  EXPECT_TRUE(norm->auto_params);
  EXPECT_EQ(norm->key, "SELECT a FROM t WHERE b = ? AND c = ? AND d < ?");
  ASSERT_EQ(norm->params.size(), 3u);
  EXPECT_EQ(norm->params[0].int_value(), 42);
  EXPECT_EQ(norm->params[1].varchar_value(), "x");
  EXPECT_DOUBLE_EQ(norm->params[2].double_value(), 1.5);
  EXPECT_EQ(norm->param_types,
            (std::vector<TypeId>{TypeId::kInt64, TypeId::kVarchar,
                                 TypeId::kDouble}));
}

TEST(NormalizerTest, CaseAndWhitespaceInsensitiveKey) {
  auto a = Normalize("select A from T where B=1");
  auto b = Normalize("SELECT  a\nFROM t   WHERE b = 99");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->key, b->key);  // same statement shape -> same cache entry
}

TEST(NormalizerTest, StringLiteralCasePreservedInParams) {
  auto a = Normalize("SELECT * FROM t WHERE name = 'Alice'");
  auto b = Normalize("SELECT * FROM t WHERE name = 'alice'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->key, b->key);  // shape is shared...
  EXPECT_EQ(a->params[0].varchar_value(), "Alice");  // ...values are not
  EXPECT_EQ(b->params[0].varchar_value(), "alice");
}

TEST(NormalizerTest, QuotedIdentifiersKeepCaseAndDistinctKeys) {
  auto quoted = Normalize("SELECT * FROM \"MyTable\"");
  auto plain = Normalize("SELECT * FROM mytable");
  ASSERT_TRUE(quoted.ok() && plain.ok());
  EXPECT_NE(quoted->key, plain->key);
  EXPECT_NE(quoted->key.find("\"MyTable\""), std::string::npos);
}

TEST(NormalizerTest, LimitLiteralStaysInKey) {
  auto a = Normalize("SELECT a FROM t WHERE b = 7 LIMIT 10");
  auto b = Normalize("SELECT a FROM t WHERE b = 7 LIMIT 20");
  ASSERT_TRUE(a.ok() && b.ok());
  // The LIMIT count is folded into the plan shape, so different limits must
  // not share a cache entry; the WHERE literal is still parameterized.
  EXPECT_NE(a->key, b->key);
  ASSERT_EQ(a->params.size(), 1u);
  EXPECT_EQ(a->params[0].int_value(), 7);
}

TEST(NormalizerTest, DdlAndTxnControlAreNotCacheable) {
  for (const char* sql :
       {"CREATE TABLE t (a INTEGER)", "DROP TABLE t",
        "CREATE INDEX i ON t (a)", "BEGIN", "COMMIT", "ROLLBACK"}) {
    auto norm = Normalize(sql);
    ASSERT_TRUE(norm.ok()) << sql;
    EXPECT_FALSE(norm->cacheable) << sql;
  }
}

TEST(NormalizerTest, ExplicitPlaceholdersDisableAutoParameterization) {
  auto norm = Normalize("SELECT a FROM t WHERE b = ? AND c = 5");
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(norm->cacheable);
  EXPECT_FALSE(norm->auto_params);
  EXPECT_EQ(norm->num_params, 1u);  // only the user's '?'
  EXPECT_TRUE(norm->params.empty());
  EXPECT_NE(norm->key.find("= 5"), std::string::npos);  // literal kept
}

// ---------------------------------------------------------------- PlanCache --

std::shared_ptr<const CachedPlan> MakeEntry(uint64_t epoch) {
  auto entry = std::make_shared<CachedPlan>();
  auto plan = std::make_unique<optimizer::PhysicalPlan>();
  entry->plan = std::move(plan);
  entry->epoch = epoch;
  return entry;
}

TEST(PlanCacheTest, HitMissAndTouchSemantics) {
  PlanCache cache(/*capacity=*/8, /*shards=*/2);
  EXPECT_EQ(cache.Lookup("k1", 1), nullptr);
  cache.Insert("k1", MakeEntry(1));
  EXPECT_NE(cache.Lookup("k1", 1), nullptr);
  const PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, StaleEpochInvalidatesOnLookup) {
  PlanCache cache(8, 1);
  cache.Insert("k", MakeEntry(1));
  EXPECT_EQ(cache.Lookup("k", 2), nullptr);  // epoch moved: stale
  const PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);  // evicted, not served
  // Replanning under the new epoch repopulates.
  cache.Insert("k", MakeEntry(2));
  EXPECT_NE(cache.Lookup("k", 2), nullptr);
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCache cache(/*capacity=*/2, /*shards=*/1);
  cache.Insert("a", MakeEntry(1));
  cache.Insert("b", MakeEntry(1));
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // touch: "b" is now LRU
  cache.Insert("c", MakeEntry(1));           // evicts "b"
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

// ----------------------------------------------------- Database integration --

class PlanCacheDbTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(/*cache=*/true, ExecutionMode::kVolcano); }

  void Open(bool cache, ExecutionMode mode) {
    DatabaseOptions options;
    options.plan_cache = cache;
    options.mode = mode;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INTEGER, b VARCHAR)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", 'row" + std::to_string(i) + "')")
                      .ok());
    }
  }

  int64_t CountWhere(int bound) {
    auto result = db_->Execute("SELECT COUNT(*) FROM t WHERE a < " +
                               std::to_string(bound));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->rows[0][0].int_value();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(PlanCacheDbTest, RepeatedStatementsHitWithDifferentLiterals) {
  const PlanCacheStats before = db_->CacheStats();
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(CountWhere(i), i);  // parameterized reuse, per-value results
  }
  const PlanCacheStats after = db_->CacheStats();
  EXPECT_EQ(after.hits - before.hits, 9u);  // first is the miss
  EXPECT_EQ(after.misses - before.misses, 1u);
}

TEST_F(PlanCacheDbTest, PreparedStatementsWithExplicitParams) {
  auto prepared = db_->Prepare("SELECT COUNT(*) FROM t WHERE a < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->num_params(), 1u);
  for (int i = 1; i <= 5; ++i) {
    auto result = db_->ExecutePrepared(**prepared, {Value::Int(i)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows[0][0].int_value(), i);
  }
  // Wrong arity is rejected before execution.
  EXPECT_FALSE(db_->ExecutePrepared(**prepared, {}).ok());
  EXPECT_FALSE(
      db_->ExecutePrepared(**prepared, {Value::Int(1), Value::Int(2)}).ok());
}

TEST_F(PlanCacheDbTest, PreparedInsertAndUpdateWithParams) {
  auto insert = db_->Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(
      db_->ExecutePrepared(**insert, {Value::Int(100), Value::Varchar("x")})
          .ok());
  ASSERT_TRUE(
      db_->ExecutePrepared(**insert, {Value::Int(101), Value::Varchar("y")})
          .ok());
  EXPECT_EQ(CountWhere(1000), 22);

  auto update = db_->Prepare("UPDATE t SET b = ? WHERE a = ?");
  ASSERT_TRUE(update.ok());
  ASSERT_TRUE(
      db_->ExecutePrepared(**update, {Value::Varchar("z"), Value::Int(100)})
          .ok());
  auto check = db_->Execute("SELECT b FROM t WHERE a = 100");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0].varchar_value(), "z");

  // Type mismatch through a parameter is caught at instantiation.
  EXPECT_FALSE(
      db_->ExecutePrepared(**insert, {Value::Varchar("no"), Value::Int(1)})
          .ok());
}

TEST_F(PlanCacheDbTest, PreparedAutoParamsReuseExtractedLiterals) {
  auto prepared = db_->Prepare("SELECT COUNT(*) FROM t WHERE a < 7");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE((*prepared)->auto_params());
  auto result = db_->ExecutePrepared(**prepared);  // defaults: a < 7
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 7);
  // Overriding the auto-extracted value rebinds the same template.
  result = db_->ExecutePrepared(**prepared, {Value::Int(3)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 3);
}

TEST_F(PlanCacheDbTest, ParameterizedIndexScanKeepsAccessPath) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX idx_a ON t (a)").ok());
  auto prepared =
      db_->Prepare("SELECT COUNT(*) FROM t WHERE a >= ? AND a <= ?");
  ASSERT_TRUE(prepared.ok());
  auto result = db_->ExecutePrepared(**prepared,
                                     {Value::Int(5), Value::Int(14)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 10);
  // The cached template kept the index access path; the instantiated plan
  // carries the resolved bounds.
  EXPECT_NE(result->plan_text.find("IndexScan"), std::string::npos);
  EXPECT_NE(result->plan_text.find("[5..14]"), std::string::npos);
  // Strict bounds adjust by one at instantiation (col > ? / col < ?).
  auto strict = db_->Prepare("SELECT COUNT(*) FROM t WHERE a > ? AND a < ?");
  ASSERT_TRUE(strict.ok());
  result = db_->ExecutePrepared(**strict, {Value::Int(5), Value::Int(14)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 8);
  EXPECT_NE(result->plan_text.find("[6..13]"), std::string::npos);
}

TEST_F(PlanCacheDbTest, CacheHitKeepsTheScanReadSet) {
  // The plan text names the columns each scan decodes; a cache hit clones
  // the template and keeps them.
  for (const int bound : {7, 9}) {
    auto result = db_->Execute("SELECT b FROM t WHERE a < " +
                               std::to_string(bound) + " AND b <> 'x'");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), static_cast<size_t>(bound));
    EXPECT_EQ(result->plan_text.find("reads="), std::string::npos)
        << result->plan_text;  // every column: nothing to name
    result = db_->Execute("SELECT COUNT(*) FROM t WHERE a < " +
                          std::to_string(bound));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->plan_text.find("SeqScan t pred=(#0 < " +
                                     std::to_string(bound) + ") reads=#0"),
              std::string::npos)
        << result->plan_text;
  }
  EXPECT_GE(db_->CacheStats().hits, 2u);
}

TEST_F(PlanCacheDbTest, NarrowedTemplateHitsAnswerOnBothEngines) {
  // n's queries read two of its three columns, so every cached template
  // carries narrowed scans and each hit instantiates one.
  const auto v_of = [](int i) {
    return std::string("v") + (i < 10 ? "0" : "") + std::to_string(i);
  };
  for (const ExecutionMode mode :
       {ExecutionMode::kVolcano, ExecutionMode::kStaged}) {
    SCOPED_TRACE(mode == ExecutionMode::kStaged ? "staged" : "volcano");
    Open(/*cache=*/true, mode);
    ASSERT_TRUE(
        db_->Execute("CREATE TABLE n (id INTEGER, x INTEGER, v VARCHAR)")
            .ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO n VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 7) + ", '" +
                               v_of(i) + "')")
                      .ok());
    }
    ASSERT_TRUE(db_->Execute("CREATE INDEX n_id ON n (id)").ok());
    const PlanCacheStats before = db_->CacheStats();

    const auto column = [](const QueryResult& r) {
      std::vector<std::string> out;
      for (const catalog::Tuple& t : r.rows) {
        out.push_back(t[0].varchar_value());
      }
      return out;
    };
    // The seq scan emits (x, v); its '?' predicate reads slot #0.
    for (const int k : {2, 5, 2, 5}) {
      auto result = db_->Execute("SELECT v FROM n WHERE x = " +
                                 std::to_string(k));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<std::string> want;
      for (int i = k; i < 30; i += 7) want.push_back(v_of(i));
      std::vector<std::string> got = column(*result);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want);
      EXPECT_NE(result->plan_text.find("SeqScan n pred=(#0 = " +
                                       std::to_string(k) + ") reads=#1,#2"),
                std::string::npos)
          << result->plan_text;
    }
    // The index scan emits (id, v) and rechecks the key at slot #0.
    for (const int k : {4, 9, 4}) {
      auto result = db_->Execute("SELECT v FROM n WHERE id = " +
                                 std::to_string(k));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(column(*result), std::vector<std::string>{v_of(k)});
      EXPECT_NE(result->plan_text.find("reads=#0,#2"), std::string::npos)
          << result->plan_text;
    }
    EXPECT_GE(db_->CacheStats().hits, before.hits + 5);

    // An explicit '?' template sorting below the projection on the
    // narrowed rows.
    auto prepared =
        db_->Prepare("SELECT v FROM n WHERE x < ? ORDER BY x DESC, v");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (const int k : {3, 6, 3}) {
      auto result = db_->ExecutePrepared(**prepared, {Value::Int(k)});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<std::pair<int, std::string>> rows;
      for (int i = 0; i < 30; ++i) {
        if (i % 7 < k) rows.emplace_back(-(i % 7), v_of(i));
      }
      std::sort(rows.begin(), rows.end());
      std::vector<std::string> want;
      for (const auto& row : rows) want.push_back(row.second);
      EXPECT_EQ(column(*result), want);
    }
  }
}

TEST_F(PlanCacheDbTest, PreparedDmlKeepsIndexRangeAndNullMatchesNothing) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX idx_a ON t (a)").ok());
  auto update = db_->Prepare("UPDATE t SET b = ? WHERE a = ?");
  ASSERT_TRUE(update.ok());
  auto result = db_->ExecutePrepared(**update,
                                     {Value::Varchar("z"), Value::Int(7)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 1);
  EXPECT_NE(result->plan_text.find("Update t [7..7]"), std::string::npos)
      << result->plan_text;
  // A NULL bound matches no row, exactly as the heap scan's predicate does.
  result = db_->ExecutePrepared(**update, {Value::Varchar("z"), Value::Null()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 0);
  auto del = db_->Prepare("DELETE FROM t WHERE a >= ? AND a < ?");
  ASSERT_TRUE(del.ok());
  result = db_->ExecutePrepared(**del, {Value::Int(3), Value::Null()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 0);
  result = db_->ExecutePrepared(**del, {Value::Int(3), Value::Int(6)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 3);
  EXPECT_EQ(CountWhere(1000), 17);
}

TEST_F(PlanCacheDbTest, DdlInvalidatesAndReplansNeverServingStalePlans) {
  EXPECT_EQ(CountWhere(5), 5);  // populate the cache
  EXPECT_EQ(CountWhere(5), 5);  // hit
  const PlanCacheStats before = db_->CacheStats();

  // Replace t wholesale: same name, different schema and contents. A stale
  // plan would dereference the dropped table's metadata; the epoch check
  // must force a replan instead.
  ASSERT_TRUE(db_->Execute("DROP TABLE t").ok());
  ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INTEGER, c DOUBLE)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)").ok());

  auto result = db_->Execute("SELECT COUNT(*) FROM t WHERE a < 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 2);  // new table's contents
  const PlanCacheStats after = db_->CacheStats();
  EXPECT_GE(after.invalidations, before.invalidations + 1);

  // The wide shape replans against the new schema too.
  auto wide = db_->Execute("SELECT * FROM t WHERE a < 5");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->schema.num_columns(), 2u);
  EXPECT_EQ(wide->schema.column(1).name, "c");
}

TEST_F(PlanCacheDbTest, CreateIndexInvalidatesSoPlansSelfTune) {
  auto before = db_->Execute("SELECT COUNT(*) FROM t WHERE a = 3");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->plan_text.find("IndexScan"), std::string::npos);
  // CREATE INDEX bumps the epoch: the cached seq-scan plan is stale and the
  // replan discovers the new access path (self-tuning via invalidation).
  ASSERT_TRUE(db_->Execute("CREATE INDEX idx_a ON t (a)").ok());
  auto after = db_->Execute("SELECT COUNT(*) FROM t WHERE a = 3");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int_value(), 1);
  EXPECT_NE(after->plan_text.find("IndexScan"), std::string::npos);
}

TEST_F(PlanCacheDbTest, EvictionKeepsServingCorrectResults) {
  DatabaseOptions options;
  options.plan_cache_capacity = 4;
  options.plan_cache_shards = 1;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE u (x INTEGER)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO u VALUES (1), (2), (3)").ok());
  // 8 distinct statement shapes churn a 4-entry cache; every answer stays
  // correct and evictions are counted.
  for (int round = 0; round < 3; ++round) {
    for (int limit = 1; limit <= 8; ++limit) {
      auto result = (*db)->Execute("SELECT x FROM u LIMIT " +
                                   std::to_string(limit));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows.size(), std::min<size_t>(3, limit));
    }
  }
  EXPECT_GT((*db)->CacheStats().evictions, 0u);
  EXPECT_LE((*db)->CacheStats().entries, 4u);
}

// DDL concurrent with prepared-statement execution: the epoch churn from
// other tables' CREATE/DROP keeps invalidating the cached template, but
// every execution must still see table `t` correctly — a stale plan would
// return wrong counts or crash (ASan/TSan legs watch the latter).
TEST_F(PlanCacheDbTest, ConcurrentDdlNeverYieldsStaleExecution) {
  auto prepared = db_->Prepare("SELECT COUNT(*) FROM t WHERE a < ?");
  ASSERT_TRUE(prepared.ok());

  std::atomic<bool> stop{false};
  std::thread ddl([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string name = "side" + std::to_string(i++ % 4);
      ASSERT_TRUE(db_->Execute("CREATE TABLE " + name + " (z INTEGER)").ok());
      ASSERT_TRUE(db_->Execute("DROP TABLE " + name).ok());
    }
  });

  constexpr int kThreads = 3;
  constexpr int kIters = 120;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        const int bound = 1 + (w * kIters + i) % 20;
        auto result = db_->ExecutePrepared(**prepared, {Value::Int(bound)});
        if (!result.ok() ||
            result->rows[0][0].int_value() != bound) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true);
  ddl.join();
  EXPECT_EQ(failures.load(), 0);
  // The DDL churn was visible to the cache as invalidations.
  EXPECT_GT(db_->CacheStats().invalidations, 0u);
}

// Regression: a '?' statement routed through plain Execute (or a server
// Submit) must be rejected, not silently mis-executed. Before the
// IsTemplate guard, a parameterized index template executed as a full-range
// scan and a parameterized INSERT inserted zero rows with an OK status.
TEST_F(PlanCacheDbTest, ExecuteRejectsExplicitPlaceholders) {
  ASSERT_TRUE(db_->Execute("CREATE INDEX idx_a ON t (a)").ok());
  auto select = db_->Execute("SELECT COUNT(*) FROM t WHERE a = ?");
  EXPECT_FALSE(select.ok());
  EXPECT_EQ(select.status().code(), StatusCode::kInvalidArgument);
  auto insert = db_->Execute("INSERT INTO t VALUES (?, 'x')");
  EXPECT_FALSE(insert.ok());
  EXPECT_EQ(CountWhere(1 << 20), 20);  // nothing was inserted

  server::StagedServer staged(db_.get());
  EXPECT_FALSE(
      staged.Submit("SELECT COUNT(*) FROM t WHERE a = ?")->Await().ok());
  server::ThreadedServer threaded(db_.get());
  EXPECT_FALSE(
      threaded.Submit("SELECT COUNT(*) FROM t WHERE a = ?")->Await().ok());
}

// ------------------------------------------------------- differential tests --

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    rows.push_back(catalog::TupleToString(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Every statement of a mixed workload (DML, DDL mid-stream, repeats with
// varying literals) must produce identical results with the cache on and
// off, in both execution engines. This is the "cached execution is an
// optimization, never a semantic change" contract.
TEST(PlanCacheDifferentialTest, CachedMatchesUncachedAcrossEngines) {
  const std::vector<std::string> workload = [] {
    std::vector<std::string> sql;
    sql.push_back("CREATE TABLE d (k INTEGER, v VARCHAR, f DOUBLE)");
    for (int i = 0; i < 15; ++i) {
      sql.push_back("INSERT INTO d VALUES (" + std::to_string(i) + ", 'v" +
                    std::to_string(i % 4) + "', " + std::to_string(i) +
                    ".25)");
    }
    for (int i = 0; i < 3; ++i) {
      sql.push_back("SELECT COUNT(*) FROM d WHERE k < " +
                    std::to_string(5 + i));
      sql.push_back("SELECT v, SUM(k) FROM d GROUP BY v");
      sql.push_back("SELECT * FROM d WHERE v = 'v1' ORDER BY k");
    }
    sql.push_back("UPDATE d SET f = 9.5 WHERE k = 3");
    sql.push_back("DELETE FROM d WHERE k > 12");
    // DDL mid-stream: recreate with a different shape, then re-query the
    // statements whose plans were cached against the old table.
    sql.push_back("DROP TABLE d");
    sql.push_back("CREATE TABLE d (k INTEGER, v VARCHAR, f DOUBLE)");
    sql.push_back("INSERT INTO d VALUES (1, 'v1', 0.5), (2, 'v2', 1.5)");
    sql.push_back("SELECT COUNT(*) FROM d WHERE k < 5");
    sql.push_back("SELECT * FROM d WHERE v = 'v1' ORDER BY k");
    return sql;
  }();

  struct Config {
    ExecutionMode mode;
    bool cache;
  };
  const Config configs[] = {
      {ExecutionMode::kVolcano, false},
      {ExecutionMode::kVolcano, true},
      {ExecutionMode::kStaged, false},
      {ExecutionMode::kStaged, true},
  };

  std::vector<std::vector<std::vector<std::string>>> outputs;
  for (const Config& config : configs) {
    DatabaseOptions options;
    options.mode = config.mode;
    options.plan_cache = config.cache;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    std::vector<std::vector<std::string>> results;
    for (const std::string& sql : workload) {
      auto result = (*db)->Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      results.push_back(SortedRows(*result));
    }
    outputs.push_back(std::move(results));
  }
  for (size_t c = 1; c < outputs.size(); ++c) {
    ASSERT_EQ(outputs[c].size(), outputs[0].size());
    for (size_t i = 0; i < outputs[0].size(); ++i) {
      EXPECT_EQ(outputs[c][i], outputs[0][i])
          << "config " << c << " diverges on: " << workload[i];
    }
  }
}

// The staged server's parse stage consults the cache: a hit routes the
// packet straight to execute, so repeated statements stop visiting the
// optimize stage (the paper's per-stage reuse, visible in the runtime's
// per-stage stats).
TEST(PlanCacheServerTest, CacheHitsSkipOptimizeStage) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO s VALUES (1), (2), (3)").ok());
  {
    server::StagedServer staged(db->get());
    for (int i = 0; i < 10; ++i) {
      auto result = staged.Submit("SELECT COUNT(*) FROM s WHERE x < 10")
                        ->Await();
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->rows[0][0].int_value(), 3);
    }
    int64_t parse = 0, optimize = 0, execute = 0;
    for (const auto& stage : staged.runtime().stages()) {
      if (stage->name() == "parse") parse = stage->packets_processed();
      if (stage->name() == "optimize") optimize = stage->packets_processed();
      if (stage->name() == "execute") execute = stage->packets_processed();
    }
    EXPECT_EQ(parse, 10);
    EXPECT_EQ(optimize, 1);  // only the first (miss) visits optimize
    EXPECT_GE(execute, 10);
  }
  const engine::StageRuntime::StatsSnapshot snap = (*db)->EngineStats();
  EXPECT_GE(snap.plan_cache.hits, 9u);
  EXPECT_NE(snap.ToString().find("plan_cache"), std::string::npos);
}

}  // namespace
}  // namespace stagedb::frontend
