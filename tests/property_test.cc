// Property-based and parameterized tests across modules: invariants that
// must hold for whole parameter grids, not just single examples.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "catalog/tuple.h"
#include "common/rng.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "server/database.h"
#include "simsched/production_line.h"
#include "storage/btree.h"
#include "storage/slotted_page.h"
#include "workload/wisconsin.h"

namespace stagedb {
namespace {

using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;

// ----------------------------------------------------- Value total order ---

Value RandomValue(Rng* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->Bernoulli(0.5));
    case 2:
      return Value::Int(rng->UniformRange(-100, 100));
    case 3:
      return Value::Double(rng->UniformRange(-100, 100) / 4.0);
    default:
      return Value::Varchar(
          std::string(rng->Uniform(8), 'a' + rng->Uniform(26)));
  }
}

TEST(ValueOrderProperty, ComparisonIsAntisymmetricAndTransitive) {
  Rng rng(101);
  std::vector<Value> values;
  for (int i = 0; i < 60; ++i) values.push_back(RandomValue(&rng));
  for (const Value& a : values) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      if (a.Compare(b) == 0) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST(ValueOrderProperty, SortingWithCompareIsStableTotalOrder) {
  Rng rng(77);
  std::vector<Value> values;
  for (int i = 0; i < 500; ++i) values.push_back(RandomValue(&rng));
  std::stable_sort(values.begin(), values.end(),
                   [](const Value& a, const Value& b) { return a < b; });
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(values[i - 1].Compare(values[i]), 0);
  }
}

// --------------------------------------------------- Tuple codec fuzzing ---

TEST(TupleCodecProperty, RandomTuplesRoundTrip) {
  Rng rng(55);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t n = 1 + rng.Uniform(8);
    std::vector<catalog::Column> cols;
    Tuple tuple;
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(4)) {
        case 0:
          cols.push_back({"c" + std::to_string(i), TypeId::kInt64, ""});
          tuple.push_back(rng.Bernoulli(0.15)
                              ? Value::Null()
                              : Value::Int(static_cast<int64_t>(rng.Next())));
          break;
        case 1:
          cols.push_back({"c" + std::to_string(i), TypeId::kDouble, ""});
          tuple.push_back(rng.Bernoulli(0.15)
                              ? Value::Null()
                              : Value::Double(rng.NextDouble() * 1e6));
          break;
        case 2:
          cols.push_back({"c" + std::to_string(i), TypeId::kBool, ""});
          tuple.push_back(rng.Bernoulli(0.15)
                              ? Value::Null()
                              : Value::Bool(rng.Bernoulli(0.5)));
          break;
        default: {
          cols.push_back({"c" + std::to_string(i), TypeId::kVarchar, ""});
          std::string s(rng.Uniform(64), 'x');
          for (char& ch : s) ch = static_cast<char>(rng.Uniform(256));
          tuple.push_back(rng.Bernoulli(0.15) ? Value::Null()
                                              : Value::Varchar(std::move(s)));
        }
      }
    }
    Schema schema(cols);
    auto decoded = catalog::DecodeTuple(schema, EncodeTuple(schema, tuple));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->size(), tuple.size());
    for (size_t i = 0; i < tuple.size(); ++i) {
      EXPECT_EQ((*decoded)[i].is_null(), tuple[i].is_null());
      if (!tuple[i].is_null()) {
        EXPECT_EQ((*decoded)[i].Compare(tuple[i]), 0);
      }
    }
  }
}

TEST(TupleCodecProperty, TruncatedBytesNeverCrash) {
  Schema schema({{"a", TypeId::kInt64, ""},
                 {"b", TypeId::kVarchar, ""},
                 {"c", TypeId::kDouble, ""}});
  Tuple tuple = {Value::Int(7), Value::Varchar("hello world"),
                 Value::Double(1)};
  const std::string bytes = EncodeTuple(schema, tuple);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = catalog::DecodeTuple(schema, bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok());  // must fail cleanly, never read past end
  }
}

// ---------------------------------------------------- Slotted page fuzz ----

TEST(SlottedPageProperty, RandomOpsAgainstModel) {
  Rng rng(31);
  storage::Page page;
  storage::SlottedPage sp(&page);
  sp.Init();
  std::map<uint16_t, std::string> model;
  for (int op = 0; op < 3000; ++op) {
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      std::string rec(1 + rng.Uniform(300),
                      'a' + static_cast<char>(rng.Uniform(26)));
      auto slot = sp.Insert(rec);
      if (slot.ok()) model[*slot] = rec;
    } else if (action == 1 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(sp.Delete(it->first).ok());
      model.erase(it);
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      auto rec = sp.Get(it->first);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(*rec, it->second);
    }
  }
  EXPECT_EQ(sp.live_records(), model.size());
  for (const auto& [slot, rec] : model) {
    auto got = sp.Get(slot);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, rec);
  }
}

// ------------------------------------------------------- BTree scan grid ---

class BTreeScanProperty : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Strides, BTreeScanProperty,
                         ::testing::Values(1, 3, 7, 64, 501));

TEST_P(BTreeScanProperty, ScanWindowsMatchModelForStride) {
  const int stride = GetParam();
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 512);
  auto tree_or = storage::BPlusTree::Create(&pool);
  ASSERT_TRUE(tree_or.ok());
  auto& tree = *tree_or;
  std::set<int64_t> model;
  for (int64_t k = 0; k < 4000; k += stride) {
    ASSERT_TRUE(tree->Insert(k, storage::Rid{1, 0}).ok());
    model.insert(k);
  }
  Rng rng(stride);
  for (int i = 0; i < 50; ++i) {
    int64_t lo = rng.UniformRange(-100, 4100);
    int64_t hi = lo + rng.UniformRange(0, 800);
    std::vector<std::pair<int64_t, storage::Rid>> out;
    ASSERT_TRUE(tree->Scan(lo, hi, &out).ok());
    auto first = model.lower_bound(lo);
    auto last = model.upper_bound(hi);
    ASSERT_EQ(out.size(), static_cast<size_t>(std::distance(first, last)));
    size_t idx = 0;
    for (auto it = first; it != last; ++it, ++idx) {
      EXPECT_EQ(out[idx].first, *it);
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

// ----------------------------------------- Production-line policy grid ----

struct PolicyLoadCase {
  simsched::Policy policy;
  double load;
  double load_fraction;
};

// Without this, gtest prints the case as raw bytes, padding included, and the
// ctest names derived from it change from build to build.
void PrintTo(const PolicyLoadCase& c, std::ostream* os) {
  *os << simsched::PolicyName(c.policy) << "_load" << c.load << "_frac"
      << c.load_fraction;
}

class ProductionLineGrid : public ::testing::TestWithParam<PolicyLoadCase> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ProductionLineGrid,
    ::testing::Values(
        PolicyLoadCase{simsched::Policy::kNonGated, 0.5, 0.1},
        PolicyLoadCase{simsched::Policy::kNonGated, 0.95, 0.4},
        PolicyLoadCase{simsched::Policy::kDGated, 0.8, 0.2},
        PolicyLoadCase{simsched::Policy::kDGated, 0.99, 0.6},
        PolicyLoadCase{simsched::Policy::kTGated, 0.9, 0.3},
        PolicyLoadCase{simsched::Policy::kTGated, 0.5, 0.6},
        PolicyLoadCase{simsched::Policy::kFcfs, 0.9, 0.3},
        PolicyLoadCase{simsched::Policy::kProcessorSharing, 0.9, 0.3}));

TEST_P(ProductionLineGrid, ConservationAndSanity) {
  const PolicyLoadCase& c = GetParam();
  simsched::ProductionLineConfig cfg;
  cfg.policy.policy = c.policy;
  cfg.utilization = c.load;
  cfg.load_fraction = c.load_fraction;
  cfg.num_jobs = 20000;
  cfg.warmup_fraction = 0.0;
  simsched::Metrics m = simsched::ProductionLine(cfg).Run();
  // Every job completes exactly once.
  EXPECT_EQ(m.jobs_completed, cfg.num_jobs);
  // Response time at least the no-queueing service demand m (batching can
  // save up to the full load l).
  const double min_service = 100000.0 * (1.0 - c.load_fraction);
  EXPECT_GE(m.response_histogram.min(), min_service - 1.0);
  // Throughput roughly matches the arrival rate (stable system).
  const double lambda = c.load / 0.1;  // jobs per second
  EXPECT_NEAR(m.throughput_per_sec, lambda, 0.15 * lambda);
  // Load-time share never exceeds the configured fraction.
  EXPECT_LE(m.load_fraction, c.load_fraction + 0.01);
}

TEST(ProductionLineProperty, MoreGateRoundsNeverLoseToFewerAtHighLoad) {
  simsched::ProductionLineConfig cfg;
  cfg.policy.policy = simsched::Policy::kTGated;
  cfg.utilization = 0.95;
  cfg.load_fraction = 0.4;
  cfg.num_jobs = 60000;
  double prev = 1e18;
  for (int rounds : {1, 2, 4}) {
    cfg.policy.gate_rounds = rounds;
    simsched::Metrics m = simsched::ProductionLine(cfg).Run();
    // Extra re-gating only grows batches; response must not blow up.
    EXPECT_LT(m.mean_response_micros, prev * 1.25);
    prev = m.mean_response_micros;
  }
}

TEST(ProductionLineProperty, ResponseGrowsWithUtilization) {
  simsched::ProductionLineConfig cfg;
  cfg.policy.policy = simsched::Policy::kDGated;
  cfg.load_fraction = 0.2;
  cfg.num_jobs = 60000;
  double prev = 0;
  for (double rho : {0.3, 0.6, 0.9, 0.97}) {
    cfg.utilization = rho;
    simsched::Metrics m = simsched::ProductionLine(cfg).Run();
    EXPECT_GT(m.mean_response_micros, prev);
    prev = m.mean_response_micros;
  }
}

// -------------------------------------- SQL differential: staged engines ---

class EngineConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineConfigSweep,
    ::testing::Combine(::testing::Values(1, 3),      // exchange pages
                       ::testing::Values(8, 64),     // tuples per page
                       ::testing::Values(1, 2)));    // threads per stage

TEST_P(EngineConfigSweep, StagedMatchesVolcanoOnWisconsinQueries) {
  auto [pages, tuples, threads] = GetParam();
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 4096);
  catalog::Catalog cat(&pool);
  ASSERT_TRUE(workload::CreateWisconsinTable(&cat, "w1", 700).ok());
  ASSERT_TRUE(workload::CreateWisconsinTable(&cat, "w2", 300).ok());
  engine::StagedEngineOptions opts;
  opts.exchange_capacity_pages = pages;
  opts.tuples_per_page = tuples;
  opts.threads_per_stage = threads;
  engine::StagedEngine eng(&cat, opts);
  optimizer::Planner planner(&cat);
  for (const std::string& sql : {
           std::string("SELECT COUNT(*), SUM(unique1) FROM w1 WHERE two = 1"),
           std::string("SELECT w1.ten, COUNT(*) FROM w1 JOIN w2 ON "
                       "w1.unique1 = w2.unique2 GROUP BY w1.ten"),
           std::string("SELECT unique1 FROM w1 ORDER BY unique1 LIMIT 13"),
           std::string("SELECT twenty, MIN(unique2), MAX(unique2) FROM w1 "
                       "GROUP BY twenty"),
       }) {
    auto stmt = parser::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok());
    auto plan = planner.Plan(**stmt);
    ASSERT_TRUE(plan.ok());
    exec::ExecContext ctx;
    ctx.catalog = &cat;
    auto volcano = exec::ExecutePlan(plan->get(), &ctx);
    auto staged = eng.Execute(plan->get());
    ASSERT_TRUE(volcano.ok() && staged.ok()) << sql;
    std::vector<std::string> v, s;
    for (const auto& t : *volcano) v.push_back(catalog::TupleToString(t));
    for (const auto& t : *staged) s.push_back(catalog::TupleToString(t));
    std::sort(v.begin(), v.end());
    std::sort(s.begin(), s.end());
    EXPECT_EQ(v, s) << sql;
  }
}

// ------------------------------------------------ SQL randomized queries ---

TEST(SqlRandomProperty, GeneratedFiltersMatchHandEvaluation) {
  auto db_or = server::Database::Open();
  ASSERT_TRUE(db_or.ok());
  auto& db = *db_or;
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INTEGER, b INTEGER)").ok());
  Rng rng(13);
  std::vector<std::pair<int64_t, int64_t>> rows;
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 200; ++i) {
    const int64_t a = rng.UniformRange(0, 50);
    const int64_t b = rng.UniformRange(-20, 20);
    rows.emplace_back(a, b);
    if (i) insert += ", ";
    insert += "(" + std::to_string(a) + ", " + std::to_string(b) + ")";
  }
  ASSERT_TRUE(db->Execute(insert).ok());
  for (int trial = 0; trial < 30; ++trial) {
    const int64_t x = rng.UniformRange(0, 50);
    const int64_t y = rng.UniformRange(-20, 20);
    const std::string sql = "SELECT COUNT(*) FROM t WHERE a < " +
                            std::to_string(x) + " AND b >= " +
                            std::to_string(y);
    auto result = db->Execute(sql);
    ASSERT_TRUE(result.ok());
    int64_t expected = 0;
    for (const auto& [a, b] : rows) expected += (a < x && b >= y);
    EXPECT_EQ(result->rows[0][0].int_value(), expected) << sql;
  }
}

TEST(SqlRandomProperty, GroupBySumsMatchModel) {
  auto db_or = server::Database::Open();
  ASSERT_TRUE(db_or.ok());
  auto& db = *db_or;
  ASSERT_TRUE(db->Execute("CREATE TABLE t (g INTEGER, v INTEGER)").ok());
  Rng rng(99);
  std::map<int64_t, int64_t> sums;
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    const int64_t g = rng.UniformRange(0, 7);
    const int64_t v = rng.UniformRange(-100, 100);
    sums[g] += v;
    if (i) insert += ", ";
    insert += "(" + std::to_string(g) + ", " + std::to_string(v) + ")";
  }
  ASSERT_TRUE(db->Execute(insert).ok());
  auto result = db->Execute("SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), sums.size());
  size_t i = 0;
  for (const auto& [g, sum] : sums) {
    EXPECT_EQ(result->rows[i][0].int_value(), g);
    EXPECT_EQ(result->rows[i][1].int_value(), sum);
    ++i;
  }
}

TEST(SqlRandomProperty, JoinCardinalityMatchesModel) {
  auto db_or = server::Database::Open();
  ASSERT_TRUE(db_or.ok());
  auto& db = *db_or;
  ASSERT_TRUE(db->Execute("CREATE TABLE l (k INTEGER)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE r (k INTEGER)").ok());
  Rng rng(5);
  std::map<int64_t, int> lcount, rcount;
  std::string il = "INSERT INTO l VALUES ", ir = "INSERT INTO r VALUES ";
  for (int i = 0; i < 120; ++i) {
    const int64_t lk = rng.UniformRange(0, 15);
    const int64_t rk = rng.UniformRange(0, 15);
    ++lcount[lk];
    ++rcount[rk];
    if (i) {
      il += ", ";
      ir += ", ";
    }
    il += "(" + std::to_string(lk) + ")";
    ir += "(" + std::to_string(rk) + ")";
  }
  ASSERT_TRUE(db->Execute(il).ok());
  ASSERT_TRUE(db->Execute(ir).ok());
  int64_t expected = 0;
  for (const auto& [k, n] : lcount) {
    auto it = rcount.find(k);
    if (it != rcount.end()) expected += static_cast<int64_t>(n) * it->second;
  }
  auto result =
      db->Execute("SELECT COUNT(*) FROM l JOIN r ON l.k = r.k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), expected);
}

// ------------------------------------- randomized DML differential sweep ---
//
// Random DML scripts (inserts/updates/deletes, some inside explicit
// transactions that commit or roll back) run against three databases:
// volcano, staged with vacuum racing the script, and the same staged setup
// backed by a WAL file. The WAL-backed one is then closed and reopened so its
// state is rebuilt purely from log replay, commit-timestamp high-water mark
// included. All final states must agree. The script is fully determined by
// its seed, which is printed on failure for replay.
//
// Two script families: an unindexed table filtered on a non-key column, and
// a table with a unique index on `id`, whose UPDATE/DELETE statements find
// their targets through the B+-tree. The indexed family runs a fourth
// database with index scans disabled as the heap-scan oracle.

/// Runs one script statement, recording a test failure (and clearing *ok)
/// if it errors.
class ScriptRunner {
 public:
  ScriptRunner(server::Database* db, uint64_t seed, bool* ok)
      : db_(db), seed_(seed), ok_(ok) {
    *ok_ = true;
  }
  void operator()(const std::string& sql) {
    if (::getenv("STAGEDB_DML_TRACE") != nullptr) {
      fprintf(stderr, "[dml seed=%llu] %s\n",
              static_cast<unsigned long long>(seed_), sql.c_str());
    }
    auto r = db_->Execute(sql);
    if (!r.ok()) {
      ADD_FAILURE() << "seed=" << seed_ << " sql=" << sql << " -> "
                    << r.status().ToString();
      *ok_ = false;
    }
  }

 private:
  server::Database* db_;
  uint64_t seed_;
  bool* ok_;
};

std::vector<std::string> FinalRows(server::Database* db) {
  auto result = db->Execute("SELECT * FROM t");
  std::vector<std::string> rows;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    for (const auto& t : result->rows) {
      rows.push_back(catalog::TupleToString(t));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Opens and closes explicit transactions around a script's statements: a
/// BEGIN with probability 0.2 when none is open, then COMMIT or ROLLBACK
/// after 1-4 statements.
class TxnBrackets {
 public:
  TxnBrackets(Rng* rng, ScriptRunner* exec) : rng_(rng), exec_(exec) {}
  void Before() {
    if (left_ == 0 && rng_->Bernoulli(0.2)) {
      left_ = 1 + static_cast<int>(rng_->Uniform(4));
      rolls_back_ = rng_->Bernoulli(0.3);
      (*exec_)("BEGIN");
    }
  }
  void After() {
    if (left_ > 0 && --left_ == 0) {
      (*exec_)(rolls_back_ ? "ROLLBACK" : "COMMIT");
    }
  }
  void Finish() {
    if (left_ > 0) (*exec_)("COMMIT");
  }

 private:
  Rng* rng_;
  ScriptRunner* exec_;
  int left_ = 0;
  bool rolls_back_ = false;
};

void RunDmlScript(server::Database* db, uint64_t seed, bool* ok) {
  Rng rng(seed);
  ScriptRunner exec(db, seed, ok);
  TxnBrackets txn(&rng, &exec);
  exec("CREATE TABLE t (k INTEGER, v VARCHAR(16))");
  const int ops = 8 + static_cast<int>(rng.Uniform(18));
  for (int i = 0; i < ops && *ok; ++i) {
    txn.Before();
    const int64_t k = rng.UniformRange(0, 12);
    switch (rng.Uniform(4)) {
      case 0:
      case 1:
        exec("INSERT INTO t VALUES (" + std::to_string(k) + ", 's" +
             std::to_string(i) + "')");
        break;
      case 2:
        exec("UPDATE t SET v = 'u" + std::to_string(i) + "' WHERE k = " +
             std::to_string(k));
        break;
      default:
        exec("DELETE FROM t WHERE k = " + std::to_string(k));
    }
    txn.After();
  }
  txn.Finish();
}

/// Indexed family. Ids come from a counter, so an INSERT never duplicates a
/// live key; a re-insert first deletes its key. The single key-changing
/// UPDATE shifts ids by 1000, past every id the counter can reach.
void RunIndexedDmlScript(server::Database* db, uint64_t seed, bool* ok) {
  Rng rng(seed);
  ScriptRunner exec(db, seed, ok);
  TxnBrackets txn(&rng, &exec);
  exec("CREATE TABLE t (id INTEGER, k INTEGER, v VARCHAR(16))");
  exec("CREATE INDEX t_id ON t (id)");
  const auto str = [](int64_t n) { return std::to_string(n); };
  int64_t next_id = 0;
  bool shifted = false;
  const int ops = 10 + static_cast<int>(rng.Uniform(20));
  for (int i = 0; i < ops && *ok; ++i) {
    txn.Before();
    const int64_t k = rng.UniformRange(0, 4);
    const int64_t lo = rng.UniformRange(0, next_id + 1);
    const int64_t hi = lo + rng.UniformRange(0, 4);
    const std::string tag = "'x" + str(i) + "'";
    switch (rng.Uniform(9)) {
      case 0:
      case 1:
        exec("INSERT INTO t VALUES (" + str(next_id++) + ", " + str(k) + ", " +
             tag + ")");
        break;
      case 2:
        exec("UPDATE t SET v = " + tag + ", k = k + 1 WHERE id = " + str(lo));
        break;
      case 3:
        exec("UPDATE t SET v = " + tag + " WHERE id >= " + str(lo) +
             " AND id < " + str(hi));
        break;
      case 4:
        exec("UPDATE t SET k = k * 2 WHERE id > " + str(lo) + " AND id <= " +
             str(hi) + " AND k <> " + str(k));
        break;
      case 5:
        exec("DELETE FROM t WHERE id = " + str(lo));
        break;
      case 6:
        exec("DELETE FROM t WHERE id >= " + str(lo) + " AND id <= " + str(hi) +
             " AND k < " + str(k));
        break;
      case 7:
        if (next_id > 0) {
          const int64_t id = rng.UniformRange(0, next_id - 1);
          exec("DELETE FROM t WHERE id = " + str(id));
          exec("INSERT INTO t VALUES (" + str(id) + ", " + str(k) + ", " + tag +
               ")");
        } else {
          exec("INSERT INTO t VALUES (NULL, " + str(k) + ", " + tag + ")");
        }
        break;
      default:
        if (!shifted) {
          exec("UPDATE t SET id = id + 1000 WHERE id >= " + str(lo));
          shifted = true;
        } else {
          exec("DELETE FROM t WHERE id >= 1000 AND id < " + str(1000 + hi));
        }
    }
    txn.After();
  }
  txn.Finish();
}

using DmlScript = void (*)(server::Database*, uint64_t, bool*);

void ExpectScriptsAgree(DmlScript script, uint64_t base_seed, int scripts,
                        bool heap_scan_oracle) {
  const std::string wal_path = testing::TempDir() + "/stagedb_prop_wal_" +
                               std::to_string(::getpid());
  for (int i = 0; i < scripts; ++i) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::remove(wal_path.c_str());

    server::DatabaseOptions volcano_opts;
    auto volcano = server::Database::Open(volcano_opts);
    ASSERT_TRUE(volcano.ok());
    server::DatabaseOptions staged_opts;
    staged_opts.mode = server::ExecutionMode::kStaged;
    staged_opts.vacuum_dead_threshold = 1;  // vacuum races the script
    auto staged = server::Database::Open(staged_opts);
    ASSERT_TRUE(staged.ok());
    server::DatabaseOptions durable_opts = staged_opts;
    durable_opts.wal_path = wal_path;
    auto durable = server::Database::Open(durable_opts);
    ASSERT_TRUE(durable.ok());

    bool ok = true;
    script(volcano->get(), seed, &ok);
    if (!ok) break;
    script(staged->get(), seed, &ok);
    if (!ok) break;
    script(durable->get(), seed, &ok);
    if (!ok) break;
    const auto v = FinalRows(volcano->get());
    EXPECT_EQ(v, FinalRows(staged->get()));
    EXPECT_EQ(v, FinalRows(durable->get()));
    if (heap_scan_oracle) {
      server::DatabaseOptions oracle_opts;
      oracle_opts.planner.enable_index_scan = false;
      auto oracle = server::Database::Open(oracle_opts);
      ASSERT_TRUE(oracle.ok());
      script(oracle->get(), seed, &ok);
      if (!ok) break;
      EXPECT_EQ(v, FinalRows(oracle->get())) << "heap-scan oracle diverged";
    }

    // Restart the WAL-backed database: state must be rebuilt from the log,
    // and the commit-timestamp high-water mark restored so post-replay DML
    // still orders after the replayed history.
    const storage::Ts high_water =
        (*durable)->txn_manager()->last_committed();
    durable->reset();
    auto reopened = server::Database::Open(durable_opts);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(v, FinalRows(reopened->get())) << "recovery diverged";
    EXPECT_GE((*reopened)->txn_manager()->last_committed(), high_water)
        << "timestamp high-water not restored";
    if (::testing::Test::HasFailure()) break;
  }
  std::remove(wal_path.c_str());
}

TEST(DmlDifferentialProperty, EnginesAndRecoveryAgreeOnRandomScripts) {
  ExpectScriptsAgree(RunDmlScript, 4242, 200, /*heap_scan_oracle=*/false);
}

TEST(DmlDifferentialProperty, IndexedDmlMatchesHeapScanOracle) {
  ExpectScriptsAgree(RunIndexedDmlScript, 9100, 100, /*heap_scan_oracle=*/true);
}

// ------------------------------------------------- parser robustness fuzz --

TEST(ParserRobustness, RandomTokenSoupNeverCrashes) {
  static const char* kFragments[] = {
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",    "ORDER",  "LIMIT",
      "JOIN",   "ON",    "AND",   "OR",    "NOT",   "(",      ")",
      ",",      "*",     "+",     "-",     "=",     "<",      ">=",
      "t1",     "a",     "42",    "3.5",   "'s'",   "COUNT",  "SUM",
      "INSERT", "INTO",  "VALUES", "NULL", ";",     "AS",     "DESC",
  };
  Rng rng(2024);
  int parsed_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string sql;
    const size_t len = 1 + rng.Uniform(20);
    for (size_t i = 0; i < len; ++i) {
      sql += kFragments[rng.Uniform(std::size(kFragments))];
      sql += " ";
    }
    auto stmt = parser::ParseStatement(sql);  // must not crash or hang
    parsed_ok += stmt.ok();
  }
  // Random soup occasionally forms valid SQL; mostly it must fail cleanly.
  EXPECT_LT(parsed_ok, 2000);
}

TEST(ParserRobustness, DeeplyNestedExpressionsParse) {
  std::string sql = "SELECT ";
  for (int i = 0; i < 200; ++i) sql += "(";
  sql += "1";
  for (int i = 0; i < 200; ++i) sql += ")";
  sql += " FROM t";
  auto stmt = parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok());
}

}  // namespace
}  // namespace stagedb
