// Tests for the staged runtime (stages, packets, scheduling), exchange
// buffers, and the staged execution engine — including differential testing
// against the volcano engine on the same plans.
#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/exchange.h"
#include "engine/runtime.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "planner_test_peer.h"
#include "scan_row_reader_test_peer.h"
#include "storage/disk_manager.h"

namespace stagedb::engine {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::Planner;
using optimizer::PlannerOptions;

// -------------------------------------------------------------- Runtime ----

/// A packet that counts its Run() invocations and finishes after `runs`.
class CountingTask : public StageTask {
 public:
  CountingTask(int runs, std::atomic<int>* counter,
               std::atomic<int>* retired = nullptr)
      : runs_(runs), counter_(counter), retired_(retired) {}
  RunOutcome Run() override {
    counter_->fetch_add(1);
    return --runs_ > 0 ? RunOutcome::kYield : RunOutcome::kDone;
  }
  void OnRetired() override {
    if (retired_ != nullptr) retired_->fetch_add(1);
  }

 private:
  int runs_;
  std::atomic<int>* counter_;
  std::atomic<int>* retired_;
};

TEST(RuntimeTest, RunsAndRetiresPackets) {
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("s", 2);
  std::atomic<int> runs{0}, retired{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(3, &runs, &retired));
    stage->Enqueue(tasks.back().get());
  }
  while (retired.load() < 10) std::this_thread::yield();
  EXPECT_EQ(runs.load(), 30);
  EXPECT_EQ(stage->packets_processed(), 10);
  EXPECT_EQ(stage->packets_yielded(), 20);
  runtime.Shutdown();
}

/// A packet that parks until an external flag allows progress.
class BlockingTask : public StageTask {
 public:
  explicit BlockingTask(std::atomic<bool>* ready, std::atomic<int>* done)
      : ready_(ready), done_(done) {}
  RunOutcome Run() override {
    if (!ready_->load()) return RunOutcome::kBlocked;
    done_->fetch_add(1);
    return RunOutcome::kDone;
  }
  bool CanMakeProgress() override { return ready_->load(); }

 private:
  std::atomic<bool>* ready_;
  std::atomic<int>* done_;
};

TEST(RuntimeTest, BlockedPacketsParkAndWake) {
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("s", 1);
  std::atomic<bool> ready{false};
  std::atomic<int> done{0};
  BlockingTask task(&ready, &done);
  stage->Enqueue(&task);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(done.load(), 0);
  EXPECT_GE(stage->packets_blocked(), 1);
  ready = true;
  stage->Activate(&task);
  while (done.load() == 0) std::this_thread::yield();
  runtime.Shutdown();
}

TEST(RuntimeTest, ShutdownIsIdempotentAndJoins) {
  StageRuntime runtime;
  runtime.CreateStage("s", 3);
  runtime.Shutdown();
  runtime.Shutdown();  // no-op
}

// ------------------------------------------------------------- Exchange ----

RowBatch MakeBatch(int start, int n) {
  RowBatch b;
  for (int i = 0; i < n; ++i) b.tuples.push_back({Value::Int(start + i)});
  return b;
}

TEST(ExchangeTest, PushPopFifo) {
  ExchangeBuffer buffer(2);
  RowBatch b1 = MakeBatch(0, 3), b2 = MakeBatch(3, 3);
  EXPECT_EQ(buffer.TryPush(&b1), ExchangeBuffer::PushResult::kOk);
  EXPECT_EQ(buffer.TryPush(&b2), ExchangeBuffer::PushResult::kOk);
  RowBatch out;
  bool eof;
  ASSERT_TRUE(buffer.TryPop(&out, &eof));
  EXPECT_EQ(out.tuples[0][0].int_value(), 0);
  ASSERT_TRUE(buffer.TryPop(&out, &eof));
  EXPECT_EQ(out.tuples[0][0].int_value(), 3);
  EXPECT_FALSE(buffer.TryPop(&out, &eof));
  EXPECT_FALSE(eof);
}

TEST(ExchangeTest, CapacityAppliesBackPressure) {
  ExchangeBuffer buffer(1);
  RowBatch b = MakeBatch(0, 1);
  EXPECT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kOk);
  RowBatch b2 = MakeBatch(1, 1);
  EXPECT_EQ(buffer.TryPush(&b2), ExchangeBuffer::PushResult::kFull);
  // The page is retained by the caller on kFull.
  EXPECT_EQ(b2.tuples.size(), 1u);
  EXPECT_FALSE(buffer.HasSpaceOrClosed());
}

TEST(ExchangeTest, EofVisibleAfterDrain) {
  ExchangeBuffer buffer(4);
  RowBatch b = MakeBatch(0, 1);
  ASSERT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kOk);
  buffer.MarkEof();
  EXPECT_FALSE(buffer.AtEof());  // still has data
  RowBatch out;
  bool eof;
  ASSERT_TRUE(buffer.TryPop(&out, &eof));
  EXPECT_FALSE(buffer.TryPop(&out, &eof));
  EXPECT_TRUE(eof);
  EXPECT_TRUE(buffer.AtEof());
}

TEST(ExchangeTest, CloseDiscardsAndRejects) {
  ExchangeBuffer buffer(4);
  RowBatch b = MakeBatch(0, 2);
  ASSERT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kOk);
  buffer.Close();
  RowBatch b2 = MakeBatch(2, 1);
  EXPECT_EQ(buffer.TryPush(&b2), ExchangeBuffer::PushResult::kClosed);
  EXPECT_FALSE(buffer.HasData());
  EXPECT_TRUE(buffer.HasSpaceOrClosed());
}

// --------------------------------------------------------- Staged engine ---

class StagedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 2048);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    Rng rng(7);
    auto t1 = catalog_->CreateTable(
        "t1", Schema({{"a", TypeId::kInt64, ""},
                      {"b", TypeId::kInt64, ""},
                      {"s", TypeId::kVarchar, ""}}));
    auto t2 = catalog_->CreateTable("t2", Schema({{"a", TypeId::kInt64, ""},
                                                  {"c", TypeId::kInt64, ""}}));
    ASSERT_TRUE(t1.ok() && t2.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(catalog_
                      ->InsertTuple(*t1, {Value::Int(i),
                                          Value::Int(static_cast<int64_t>(
                                              rng.Uniform(20))),
                                          Value::Varchar("row" +
                                                         std::to_string(i))})
                      .ok());
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(catalog_
                      ->InsertTuple(*t2, {Value::Int(i * 10),
                                          Value::Int(static_cast<int64_t>(
                                              rng.Uniform(5)))})
                      .ok());
    }
    ASSERT_TRUE(catalog_->CreateIndex("t1_a", "t1", "a").ok());
  }

  std::unique_ptr<optimizer::PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  /// Runs the same SQL through both engines and requires identical result
  /// multisets (row order may legitimately differ).
  void Differential(StagedEngine* engine, const std::string& sql,
                    bool ordered = false) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr);
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto volcano = exec::ExecutePlan(plan.get(), &ctx);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    auto staged = engine->Execute(plan.get());
    ASSERT_TRUE(staged.ok()) << staged.status().ToString() << " for " << sql;
    auto render = [](const std::vector<Tuple>& rows) {
      std::vector<std::string> out;
      out.reserve(rows.size());
      for (const Tuple& t : rows) out.push_back(catalog::TupleToString(t));
      return out;
    };
    std::vector<std::string> v = render(*volcano), s = render(*staged);
    if (!ordered) {
      std::sort(v.begin(), v.end());
      std::sort(s.begin(), s.end());
    }
    EXPECT_EQ(v, s) << sql;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(StagedEngineTest, SimpleScanMatchesVolcano) {
  StagedEngine engine(catalog_.get());
  Differential(&engine, "SELECT * FROM t1");
  Differential(&engine, "SELECT a, s FROM t1 WHERE b < 5");
}

TEST_F(StagedEngineTest, IndexScanThroughIscanStage) {
  StagedEngine engine(catalog_.get());
  Differential(&engine, "SELECT a FROM t1 WHERE a >= 100 AND a <= 150");
}

TEST_F(StagedEngineTest, JoinsAllAlgorithmsMatchVolcano) {
  StagedEngine engine(catalog_.get());
  Differential(&engine, "SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
  // Forced algorithms.
  for (auto algo : {PlannerOptions::JoinAlgo::kMerge,
                    PlannerOptions::JoinAlgo::kNestedLoop}) {
    PlannerOptions opts;
    opts.join_algorithm = algo;
    Planner planner(catalog_.get(), opts);
    auto stmt = parser::ParseStatement(
        "SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
    ASSERT_TRUE(stmt.ok());
    auto plan = planner.Plan(**stmt);
    ASSERT_TRUE(plan.ok());
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto volcano = exec::ExecutePlan(plan->get(), &ctx);
    auto staged = engine.Execute(plan->get());
    ASSERT_TRUE(volcano.ok() && staged.ok());
    std::vector<std::string> v, st;
    for (const Tuple& t : *volcano) v.push_back(catalog::TupleToString(t));
    for (const Tuple& t : *staged) st.push_back(catalog::TupleToString(t));
    std::sort(v.begin(), v.end());
    std::sort(st.begin(), st.end());
    EXPECT_FALSE(v.empty());
    EXPECT_EQ(v, st) << "algo " << static_cast<int>(algo);
  }
}

TEST_F(StagedEngineTest, AggregationSortLimit) {
  StagedEngine engine(catalog_.get());
  Differential(&engine,
               "SELECT b, COUNT(*), SUM(a) FROM t1 GROUP BY b ORDER BY b",
               /*ordered=*/true);
  Differential(&engine, "SELECT COUNT(*), MIN(a), MAX(a), AVG(a) FROM t1");
  Differential(&engine, "SELECT a FROM t1 ORDER BY a DESC LIMIT 7",
               /*ordered=*/true);
}

TEST_F(StagedEngineTest, LimitCancelsUpstreamScan) {
  StagedEngine engine(catalog_.get());
  auto plan = Plan("SELECT a FROM t1 LIMIT 3");
  auto rows = engine.Execute(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  // All packets retired (no leaked producers stuck on back-pressure).
}

TEST_F(StagedEngineTest, EmptyInputsFlowEofCorrectly) {
  auto empty = catalog_->CreateTable(
      "empty_t", Schema({{"x", TypeId::kInt64, ""}}));
  ASSERT_TRUE(empty.ok());
  StagedEngine engine(catalog_.get());
  Differential(&engine, "SELECT COUNT(*) FROM empty_t");
  Differential(&engine, "SELECT * FROM empty_t WHERE x > 0");
  Differential(&engine,
               "SELECT t1.a FROM t1 JOIN empty_t ON t1.a = empty_t.x");
}

TEST_F(StagedEngineTest, TinyExchangeBuffersStillComplete) {
  // Back-pressure stress: 1-page buffers, 4-tuple pages.
  StagedEngineOptions opts;
  opts.exchange_capacity_pages = 1;
  opts.tuples_per_page = 4;
  StagedEngine engine(catalog_.get(), opts);
  Differential(&engine,
               "SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a "
               "WHERE t1.b < 10");
  Differential(&engine, "SELECT b, COUNT(*) FROM t1 GROUP BY b");
}

TEST_F(StagedEngineTest, CoarseGranularitySingleStage) {
  StagedEngineOptions opts;
  opts.granularity = StagedEngineOptions::Granularity::kCoarse;
  StagedEngine engine(catalog_.get(), opts);
  Differential(&engine, "SELECT b, COUNT(*) FROM t1 GROUP BY b");
  EXPECT_EQ(engine.runtime()->stages().size(), 1u);
}

TEST_F(StagedEngineTest, PerTableFscanStagesAreReplicated) {
  StagedEngine engine(catalog_.get());
  auto plan = Plan("SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
  ASSERT_TRUE(engine.Execute(plan.get()).ok());
  std::set<std::string> names;
  for (const auto& stage : engine.runtime()->stages()) {
    names.insert(stage->name());
  }
  EXPECT_TRUE(names.count("fscan.t1"));
  EXPECT_TRUE(names.count("fscan.t2"));
}

TEST_F(StagedEngineTest, ConcurrentQueriesInterleaveThroughStages) {
  StagedEngineOptions opts;
  opts.threads_per_stage = 2;
  StagedEngine engine(catalog_.get(), opts);
  auto plan1 = Plan("SELECT b, COUNT(*) FROM t1 GROUP BY b");
  auto plan2 = Plan("SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
  auto plan3 = Plan("SELECT a FROM t1 WHERE a < 100 ORDER BY a");
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const optimizer::PhysicalPlan* plan =
            (c + i) % 3 == 0 ? plan1.get()
                             : ((c + i) % 3 == 1 ? plan2.get() : plan3.get());
        auto rows = engine.Execute(plan);
        if (!rows.ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(StagedEngineTest, DmlRunsOnDmlStage) {
  StagedEngine engine(catalog_.get());
  auto plan = Plan("DELETE FROM t2 WHERE c = 0");
  auto rows = engine.Execute(plan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_GT((*rows)[0][0].int_value(), 0);
  Stage* dml = nullptr;
  for (Stage* stage : engine.runtime()->stages()) {
    if (stage->name() == "dml") dml = stage;
  }
  ASSERT_NE(dml, nullptr);
  EXPECT_GE(dml->packets_processed(), 1);
}

TEST_F(StagedEngineTest, ErrorsPropagateAndCancel) {
  StagedEngine engine(catalog_.get());
  auto plan = Plan("SELECT a / (a - a) FROM t1");  // division by zero
  auto rows = engine.Execute(plan.get());
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StagedEngineTest, RandomizedDifferentialSweep) {
  StagedEngine engine(catalog_.get());
  const std::vector<std::string> queries = {
      "SELECT * FROM t1 WHERE a % 7 = 0",
      "SELECT s, a + b FROM t1 WHERE a < 50 OR b = 3",
      "SELECT b, MIN(a), MAX(a) FROM t1 WHERE a > 100 GROUP BY b",
      "SELECT t1.b, COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.a GROUP BY t1.b",
      "SELECT a FROM t1 WHERE a >= 10 AND a <= 30 ORDER BY a",
      "SELECT t2.c, SUM(t1.a) FROM t1 JOIN t2 ON t1.b = t2.c GROUP BY t2.c",
      "SELECT a, b FROM t1 ORDER BY b, a LIMIT 25",
      "SELECT COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.c > 1",
  };
  for (const std::string& sql : queries) {
    Differential(&engine, sql);
  }
}

// ------------------------------------------------ fused scan predicates ---

/// A scan qualifies its own rows: a base-table WHERE is the access node's
/// predicate, evaluated by the fscan/iscan drivers, with no Filter packet on
/// the qual stage. Table `f` has NULLs in `b` and `s` and an index on `a`;
/// `w` is a multi-page table without an index.
class FusedScanPredicateTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 1500;
  static constexpr int kWideRows = 6000;

  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 2048);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    auto f = catalog_->CreateTable(
        "f", Schema({{"a", TypeId::kInt64, ""},
                     {"b", TypeId::kInt64, ""},
                     {"s", TypeId::kVarchar, ""}}));
    auto w = catalog_->CreateTable(
        "w", Schema({{"k", TypeId::kInt64, ""}, {"v", TypeId::kInt64, ""}}));
    ASSERT_TRUE(f.ok() && w.ok());
    Rng rng(11);
    for (int i = 0; i < kRows; ++i) {
      const Value b = i % 7 == 0 ? Value::Null()
                                 : Value::Int(static_cast<int64_t>(
                                       rng.Uniform(20)));
      const Value str = i % 5 == 0 ? Value::Null()
                                   : Value::Varchar("r" + std::to_string(i % 40));
      ASSERT_TRUE(catalog_->InsertTuple(*f, {Value::Int(i), b, str}).ok());
    }
    for (int i = 0; i < kWideRows; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(*w, {Value::Int(i), Value::Int(i * 3)}).ok());
    }
    ASSERT_TRUE(catalog_->CreateIndex("f_a", "f", "a").ok());
  }

  std::unique_ptr<optimizer::PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString() << " for " << sql;
    if (!stmt.ok()) return nullptr;
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for " << sql;
    if (!plan.ok()) return nullptr;
    return std::move(*plan);
  }

  static const optimizer::PhysicalPlan* FindNode(
      const optimizer::PhysicalPlan* root, optimizer::PlanKind kind) {
    if (root->kind == kind) return root;
    for (const auto& child : root->children) {
      if (const auto* found = FindNode(child.get(), kind)) return found;
    }
    return nullptr;
  }

  static std::vector<std::string> Sorted(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const Tuple& t : rows) out.push_back(catalog::TupleToString(t));
    std::sort(out.begin(), out.end());
    return out;
  }

  /// One random comparison over f's columns (NULL-bearing b and s included).
  static std::string RandomAtom(Rng* rng) {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    const std::string op = std::string(" ") + kOps[rng->Uniform(6)] + " ";
    const auto num = [&](uint64_t n, int64_t shift) {
      return std::to_string(static_cast<int64_t>(rng->Uniform(n)) + shift);
    };
    switch (rng->Uniform(5)) {
      case 0:
        return "a" + op + num(kRows + 20, -10);
      case 1:
        return "b" + op + num(22, -1);
      case 2:
        return "s" + op + "'r" + num(40, 0) + "'";
      case 3:
        return "a % " + num(9, 2) + " = " + num(3, 0);
      default:
        return "a + b" + op + num(kRows, 0);
    }
  }

  /// A random WHERE: AND/OR/NOT over atoms, nested up to `depth`.
  static std::string RandomWhere(Rng* rng, int depth) {
    if (depth == 0 || rng->Uniform(3) == 0) return RandomAtom(rng);
    switch (rng->Uniform(3)) {
      case 0:
        return "(" + RandomWhere(rng, depth - 1) + " AND " +
               RandomWhere(rng, depth - 1) + ")";
      case 1:
        return "(" + RandomWhere(rng, depth - 1) + " OR " +
               RandomWhere(rng, depth - 1) + ")";
      default:
        return "NOT (" + RandomWhere(rng, depth - 1) + ")";
    }
  }

  /// A random SELECT over f and w: select lists, joins (keys and residuals),
  /// GROUP BY/HAVING, ORDER BY on an unselected column, LIMIT and SELECT *.
  /// `*ordered` is set when the result order is deterministic.
  static std::string RandomReadSetQuery(Rng* rng, bool* ordered) {
    const auto num = [&](uint64_t n) {
      return std::to_string(rng->Uniform(n));
    };
    const std::string where = RandomWhere(rng, 1);
    *ordered = false;
    switch (rng->Uniform(12)) {
      case 0: {
        static const char* kItems[] = {"a", "b", "s", "a + b", "a * 2"};
        std::string list;
        for (const char* item : kItems) {
          if (rng->Uniform(2) == 0) {
            list += (list.empty() ? "" : ", ") + std::string(item);
          }
        }
        return "SELECT " + (list.empty() ? std::string("*") : list) +
               " FROM f WHERE " + where;
      }
      case 1:
        return "SELECT b, COUNT(*), SUM(a), MIN(s) FROM f WHERE " + where +
               " GROUP BY b HAVING COUNT(*) > " + num(40);
      case 2:
        *ordered = true;
        return "SELECT s FROM f WHERE " + where + " ORDER BY a";
      case 3:
        *ordered = true;
        return "SELECT s, b FROM f WHERE " + where + " ORDER BY a DESC LIMIT " +
               num(30);
      case 4:
        return "SELECT a FROM f WHERE " + where + " ORDER BY b";
      case 5:
        return "SELECT f.s, w.v FROM f JOIN w ON f.a = w.k WHERE " + where;
      case 6:
        return "SELECT f.b, COUNT(*), SUM(w.v) FROM f JOIN w ON f.a = w.k "
               "WHERE " + where + " GROUP BY f.b";
      case 7:
        return "SELECT COUNT(*), MAX(f.s) FROM f JOIN w ON f.a = w.k AND "
               "f.b + w.v > " + num(4000);
      case 8:
        return rng->Uniform(2) == 0
                   ? "SELECT COUNT(*) FROM f"
                   : "SELECT * FROM f JOIN w ON f.a = w.k WHERE " + where;
      case 9:
        // f's rows narrow to (a, b), so w.v sits at #3 of the joined row,
        // not at #4 as in the whole-row numbering.
        return "SELECT COUNT(*), SUM(w.v) FROM f JOIN w ON f.a = w.k AND "
               "f.b + w.v > " + num(4000);
      case 10:
        // The scan emits (b, s): the sort keys move to #0 and #1, below the
        // projection.
        *ordered = true;
        return "SELECT s FROM f WHERE b <> " + num(20) + " ORDER BY b DESC, s";
      default: {
        const uint64_t lo = rng->Uniform(kRows);
        return "SELECT s FROM f WHERE a >= " + std::to_string(lo) +
               " AND a < " + std::to_string(lo + 1 + rng->Uniform(300)) +
               " AND " + where;
      }
    }
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(FusedScanPredicateTest, RandomWhereMatchesVolcano) {
  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared_scans on" : "shared_scans off");
    StagedEngineOptions opts;
    opts.shared_scans = shared;
    StagedEngine engine(catalog_.get(), opts);
    Rng rng(shared ? 101 : 202);
    int index_residuals = 0;
    size_t rows_seen = 0;
    for (int q = 0; q < 60; ++q) {
      std::string where = RandomWhere(&rng, 2);
      if (q % 3 == 0) {
        // An index range on `a`: the iscan keeps the rest as its residual.
        const uint64_t lo = rng.Uniform(kRows);
        where = "a >= " + std::to_string(lo) + " AND a < " +
                std::to_string(lo + 1 + rng.Uniform(300)) + " AND " + where;
      }
      const std::string sql = "SELECT a, b, s FROM f WHERE " + where;
      SCOPED_TRACE(sql);
      auto plan = Plan(sql);
      ASSERT_NE(plan, nullptr);
      // The WHERE is fused into the access node: no Filter packet.
      EXPECT_EQ(FindNode(plan.get(), optimizer::PlanKind::kFilter), nullptr);
      const auto* iscan =
          FindNode(plan.get(), optimizer::PlanKind::kIndexScan);
      if (iscan != nullptr && iscan->predicate != nullptr) ++index_residuals;
      exec::ExecContext ctx;
      ctx.catalog = catalog_.get();
      auto volcano = exec::ExecutePlan(plan.get(), &ctx);
      ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
      auto staged = engine.Execute(plan.get());
      ASSERT_TRUE(staged.ok()) << staged.status().ToString();
      EXPECT_EQ(Sorted(*volcano), Sorted(*staged));
      rows_seen += volcano->size();
    }
    EXPECT_GT(index_residuals, 0);
    EXPECT_GT(rows_seen, 0u);
  }
}

/// The scans of a trace as sorted "table kind read/emitted" lines (the two
/// engines register operators in different orders).
std::vector<std::string> ScanCounts(const exec::OperatorTrace& trace) {
  std::vector<std::string> out;
  for (const exec::OperatorTraceEntry& e : trace.entries()) {
    if (e.kind != optimizer::PlanKind::kSeqScan &&
        e.kind != optimizer::PlanKind::kIndexScan) {
      continue;
    }
    out.push_back(e.detail + " " + optimizer::PlanKindName(e.kind) + " " +
                  std::to_string(e.rows_read) + "/" +
                  std::to_string(e.tuples_out));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(FusedScanPredicateTest, ReadSetsChangeNoResult) {
  // The reference answer comes from a plan with pushdown disabled that stops
  // before the narrowing pass: the WHERE is a Filter above whole-row scans,
  // so no read set, no narrowed row and no predicate-first decode is
  // involved. Each query is planned twice more, narrowed and whole-row, and
  // both run on the volcano engine, the staged engine, and (planned at
  // max_dop=4: partial/merge aggregates, partitioned joins) a parallel
  // staged engine; the narrowed plans run on all three once more with the
  // scan predicates interpreted rather than compiled. All nine must give
  // the reference answer, and their scans' rows-read / rows-qualified
  // counts must agree.
  StagedEngine engine(catalog_.get());
  StagedEngineOptions parallel_opts;
  parallel_opts.max_dop = 4;
  parallel_opts.threads_per_stage = 2;
  StagedEngine parallel(catalog_.get(), parallel_opts);
  PlannerOptions parallel_planner;
  parallel_planner.max_dop = 4;
  parallel_planner.parallel_min_rows = 64;
  PlannerOptions no_pushdown;
  no_pushdown.enable_predicate_pushdown = false;

  const auto plan_with = [&](const std::string& sql, PlannerOptions opts,
                             bool narrow) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get(), opts);
    auto plan = narrow ? planner.Plan(**stmt)
                       : optimizer::PlannerTestPeer::PlanWholeRows(&planner,
                                                                   **stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  };

  Rng rng(303);
  int narrowed = 0;
  for (int q = 0; q < 80; ++q) {
    bool ordered = false;
    const std::string sql = RandomReadSetQuery(&rng, &ordered);
    SCOPED_TRACE(sql);
    auto plan = plan_with(sql, PlannerOptions{}, true);
    ASSERT_NE(plan, nullptr);
    if (plan->ToString().find("reads=") != std::string::npos) ++narrowed;
    auto whole = plan_with(sql, PlannerOptions{}, false);
    auto dop_plan = plan_with(sql, parallel_planner, true);
    auto dop_whole = plan_with(sql, parallel_planner, false);
    auto reference = plan_with(sql, no_pushdown, false);
    ASSERT_TRUE(whole && dop_plan && dop_whole && reference);
    ASSERT_EQ(whole->ToString().find("reads="), std::string::npos);

    const auto render = [&](const std::vector<Tuple>& rows) {
      std::vector<std::string> out;
      for (const Tuple& t : rows) out.push_back(catalog::TupleToString(t));
      if (!ordered) std::sort(out.begin(), out.end());
      return out;
    };
    exec::ExecContext ref_ctx;
    ref_ctx.catalog = catalog_.get();
    auto ref_rows = exec::ExecutePlan(reference.get(), &ref_ctx);
    ASSERT_TRUE(ref_rows.ok()) << ref_rows.status().ToString();
    const std::vector<std::string> expected = render(*ref_rows);

    std::vector<std::string> expected_scans;
    const auto run = [&](const char* label, const optimizer::PhysicalPlan* p,
                         StagedEngine* staged) {
      SCOPED_TRACE(label);
      exec::OperatorTrace trace;
      exec::ExecContext ctx;
      ctx.catalog = catalog_.get();
      ctx.trace = &trace;
      auto rows = staged != nullptr ? staged->Execute(p, &ctx)
                                    : exec::ExecutePlan(p, &ctx);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(render(*rows), expected);
      if (expected_scans.empty()) {
        expected_scans = ScanCounts(trace);
        ASSERT_FALSE(expected_scans.empty());
      } else {
        EXPECT_EQ(ScanCounts(trace), expected_scans);
      }
    };
    run("volcano, narrowed", plan.get(), nullptr);
    run("volcano, whole rows", whole.get(), nullptr);
    run("staged, narrowed", plan.get(), &engine);
    run("staged, whole rows", whole.get(), &engine);
    run("staged dop 4, narrowed", dop_plan.get(), &parallel);
    run("staged dop 4, whole rows", dop_whole.get(), &parallel);
    // The same narrowed plans with every scan predicate interpreted on
    // decoded columns instead of compiled to run on the encoded record.
    exec::ScanRowReaderTestPeer::InterpretPredicates interpret;
    run("volcano, interpreted", plan.get(), nullptr);
    run("staged, interpreted", plan.get(), &engine);
    run("staged dop 4, interpreted", dop_plan.get(), &parallel);
  }
  EXPECT_GT(narrowed, 20);  // most shapes read a strict subset
}

TEST_F(FusedScanPredicateTest, PredicateErrorFailsEveryScanDriver) {
  // Division by zero on rows where b is not NULL: the fscan (private and
  // shared elevator) and iscan drivers must all fail the query cleanly,
  // as the volcano scans do.
  const std::string seq = "SELECT a FROM f WHERE 10 / (b - b) > 0";
  const std::string idx =
      "SELECT a FROM f WHERE a >= 10 AND a < 400 AND 10 / (b - b) > 0";
  for (const std::string& sql : {seq, idx}) {
    SCOPED_TRACE(sql);
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr);
    const auto kind = sql == seq ? optimizer::PlanKind::kSeqScan
                                 : optimizer::PlanKind::kIndexScan;
    const auto* scan = FindNode(plan.get(), kind);
    ASSERT_NE(scan, nullptr);
    ASSERT_NE(scan->predicate, nullptr);

    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto volcano = exec::ExecutePlan(plan.get(), &ctx);
    ASSERT_FALSE(volcano.ok());
    EXPECT_EQ(volcano.status().code(), StatusCode::kInvalidArgument);
    for (const bool shared : {true, false}) {
      StagedEngineOptions opts;
      opts.shared_scans = shared;
      StagedEngine engine(catalog_.get(), opts);
      auto staged = engine.Execute(plan.get());
      ASSERT_FALSE(staged.ok()) << (shared ? "shared" : "private");
      EXPECT_EQ(staged.status().code(), StatusCode::kInvalidArgument);
      // The engine stays usable after the failed query.
      auto again = engine.Execute(Plan("SELECT a FROM f WHERE a < 3").get());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->size(), 3u);
    }
  }
}

TEST_F(FusedScanPredicateTest, SelectiveScanShipsOnlyMatchingMorsels) {
  // 1% of a multi-page table qualifies. The scan packs survivors into
  // page-sized morsels, so the stage downstream of fscan (the projection on
  // qual) is activated about once per full morsel of matches, not once per
  // page read.
  const int64_t matches = kWideRows / 100;
  const std::string sql = "SELECT v FROM w WHERE k >= 1000 AND k < " +
                          std::to_string(1000 + matches);
  auto plan = Plan(sql);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->kind, optimizer::PlanKind::kProject);
  ASSERT_EQ(plan->children[0]->kind, optimizer::PlanKind::kSeqScan);

  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared_scans on" : "shared_scans off");
    StagedEngineOptions opts;
    opts.shared_scans = shared;
    StagedEngine engine(catalog_.get(), opts);
    exec::OperatorTrace trace;
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    ctx.trace = &trace;
    auto rows = engine.Execute(plan.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(rows->size()), matches);

    int64_t qual_pops = -1;
    for (const auto& st : engine.runtime()->Stats().stages) {
      if (st.name == "qual") qual_pops = st.pops;
    }
    const int64_t page = static_cast<int64_t>(opts.tuples_per_page);
    EXPECT_GE(qual_pops, 1);
    EXPECT_LE(qual_pops, (matches + page - 1) / page + 2);

    // The staged fscan reports the rows it read and the rows it emitted.
    ASSERT_EQ(trace.entries().size(), 1u);
    EXPECT_EQ(trace.entries()[0].kind, optimizer::PlanKind::kSeqScan);
    EXPECT_EQ(trace.entries()[0].rows_read, kWideRows);
    EXPECT_EQ(trace.entries()[0].tuples_out, matches);
  }
}

}  // namespace
}  // namespace stagedb::engine
