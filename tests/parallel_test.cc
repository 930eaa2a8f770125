// Tests for partitioned intra-query parallelism (§4.3): the multi-endpoint
// ExchangeBuffer semantics the fan-out/fan-in wiring leans on (EOF counting,
// close/zero-capacity edges, multi-consumer wakeup), the PartitionedExchange
// hash routing, the mergeable partial-aggregation state, the planner's DOP
// pass, and DOP>1 vs DOP=1 differential execution on the staged engine. The
// concurrent cases are TSan-leg targets (ctest label: operators).
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/exchange.h"
#include "engine/staged_engine.h"
#include "exec/operators.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/wisconsin.h"

namespace stagedb::engine {
namespace {

using catalog::Catalog;
using catalog::Tuple;
using catalog::TupleToString;
using catalog::Value;
using exec::AggAccumulator;
using optimizer::AggMode;
using optimizer::AggSpec;
using optimizer::PhysicalPlan;
using optimizer::Planner;
using optimizer::PlannerOptions;

RowBatch MakeBatch(int start, int n) {
  RowBatch b;
  for (int i = 0; i < n; ++i) b.tuples.push_back({Value::Int(start + i)});
  return b;
}

// ------------------------------------------------- ExchangeBuffer edges ----

TEST(ExchangeEdgeTest, TryPushAfterCloseReturnsClosedAndKeepsBatch) {
  ExchangeBuffer buffer(4);
  buffer.Close();
  RowBatch b = MakeBatch(0, 2);
  EXPECT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kClosed);
  EXPECT_EQ(b.tuples.size(), 2u);  // batch is retained by the caller
  EXPECT_FALSE(buffer.HasData());
}

TEST(ExchangeEdgeTest, ZeroCapacityRejectsEveryPush) {
  ExchangeBuffer buffer(0);
  RowBatch b = MakeBatch(0, 1);
  EXPECT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kFull);
  EXPECT_FALSE(buffer.HasSpaceOrClosed());
  buffer.Close();  // closed wins over full
  EXPECT_EQ(buffer.TryPush(&b), ExchangeBuffer::PushResult::kClosed);
  EXPECT_TRUE(buffer.HasSpaceOrClosed());
}

TEST(ExchangeEdgeTest, MarkEofRacesTryPop) {
  // A producer thread pushes pages then marks EOF while the consumer spins
  // on TryPop: every page must be delivered before *eof turns true (TSan
  // checks the locking discipline).
  ExchangeBuffer buffer(64);
  constexpr int kPages = 200;
  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) {
      RowBatch b = MakeBatch(i, 1);
      while (buffer.TryPush(&b) != ExchangeBuffer::PushResult::kOk) {
        std::this_thread::yield();
      }
    }
    buffer.MarkEof();
  });
  int popped = 0;
  bool eof = false;
  RowBatch out;
  while (!eof) {
    if (buffer.TryPop(&out, &eof)) ++popped;
  }
  producer.join();
  EXPECT_EQ(popped, kPages);
  EXPECT_TRUE(buffer.AtEof());
}

TEST(ExchangeEdgeTest, EofCountsBoundProducers) {
  ExchangeBuffer buffer(8);
  buffer.BindProducer(nullptr, nullptr);
  buffer.BindProducer(nullptr, nullptr);
  RowBatch out;
  bool eof = false;
  buffer.MarkEof();  // first of two producers
  EXPECT_FALSE(buffer.TryPop(&out, &eof));
  EXPECT_FALSE(eof);
  buffer.MarkEof();  // last producer ends the stream
  EXPECT_FALSE(buffer.TryPop(&out, &eof));
  EXPECT_TRUE(eof);
}

TEST(ExchangeEdgeTest, ForceEofOverridesMissingProducerMarks) {
  ExchangeBuffer buffer(8);
  buffer.BindProducer(nullptr, nullptr);
  buffer.BindProducer(nullptr, nullptr);
  buffer.ForceEof();  // cancellation does not wait for anyone
  EXPECT_TRUE(buffer.AtEof());
}

/// A packet that drains one shared buffer and counts what it saw. Parks on
/// an empty buffer like a real operator.
class DrainTask : public StageTask {
 public:
  DrainTask(ExchangeBuffer* buffer, std::atomic<int>* consumed)
      : buffer_(buffer), consumed_(consumed) {}

  RunOutcome Run() override {
    RowBatch out;
    bool eof = false;
    // One page per invocation keeps both consumers participating.
    if (buffer_->TryPop(&out, &eof)) {
      consumed_->fetch_add(static_cast<int>(out.size()));
      ran_.fetch_add(1);
      return RunOutcome::kYield;
    }
    if (eof) return RunOutcome::kDone;
    return RunOutcome::kBlocked;
  }
  bool CanMakeProgress() override {
    return buffer_->HasData() || buffer_->AtEof();
  }
  int runs() const { return ran_.load(); }

 private:
  ExchangeBuffer* buffer_;
  std::atomic<int>* consumed_;
  std::atomic<int> ran_{0};
};

TEST(ExchangeEdgeTest, MultiConsumerWakeup) {
  // Two parked consumer packets share one buffer; every push must wake them
  // (a lost wakeup deadlocks this test), and together they must drain
  // exactly what was produced.
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("drain", 2);
  ExchangeBuffer buffer(4);
  std::atomic<int> consumed{0};
  DrainTask a(&buffer, &consumed), b(&buffer, &consumed);
  buffer.BindConsumer(stage, &a);
  buffer.BindConsumer(stage, &b);
  stage->Enqueue(&a);
  stage->Enqueue(&b);

  constexpr int kPages = 300, kPerPage = 7;
  for (int i = 0; i < kPages; ++i) {
    RowBatch batch = MakeBatch(i * kPerPage, kPerPage);
    while (buffer.TryPush(&batch) != ExchangeBuffer::PushResult::kOk) {
      std::this_thread::yield();
    }
  }
  buffer.MarkEof();
  while (consumed.load() < kPages * kPerPage) std::this_thread::yield();
  runtime.Shutdown();
  EXPECT_EQ(consumed.load(), kPages * kPerPage);
  // Both consumers were woken and served pages (2 workers, pages only pop
  // one at a time, so neither can have starved completely).
  EXPECT_GT(a.runs(), 0);
  EXPECT_GT(b.runs(), 0);
}

// ------------------------------------------------- PartitionedExchange ----

TEST(PartitionedExchangeTest, HashRoutingIsDeterministicAndKeyComplete) {
  std::vector<std::unique_ptr<ExchangeBuffer>> owned;
  std::vector<ExchangeBuffer*> parts;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<ExchangeBuffer>(4));
    parts.push_back(owned.back().get());
  }
  PartitionedExchange exchange(parts);
  exchange.SetKeyColumns({0});
  uint64_t cursor = 0;
  std::set<size_t> seen;
  for (int k = 0; k < 256; ++k) {
    Tuple t{Value::Int(k % 16), Value::Int(k)};
    auto p1 = exchange.PartitionOf(t, &cursor);
    auto p2 = exchange.PartitionOf(t, &cursor);
    ASSERT_TRUE(p1.ok() && p2.ok());
    EXPECT_EQ(*p1, *p2);  // same key, same partition — always
    EXPECT_LT(*p1, 4u);
    seen.insert(*p1);
  }
  EXPECT_GT(seen.size(), 1u);  // 16 distinct keys cannot all collide
  EXPECT_EQ(cursor, 0u);       // keyed routing never consumes the cursor
}

TEST(PartitionedExchangeTest, KeylessRoutingDealsRoundRobin) {
  std::vector<std::unique_ptr<ExchangeBuffer>> owned;
  std::vector<ExchangeBuffer*> parts;
  for (int i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<ExchangeBuffer>(4));
    parts.push_back(owned.back().get());
  }
  PartitionedExchange exchange(parts);
  uint64_t cursor = 0;
  Tuple t{Value::Int(7)};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 9; ++i) {
    auto p = exchange.PartitionOf(t, &cursor);
    ASSERT_TRUE(p.ok());
    ++hits[*p];
  }
  EXPECT_EQ(hits, (std::vector<int>{3, 3, 3}));
}

// ------------------------------------------------- partial-agg merging ----

AggSpec MakeSpec(parser::AggFunc func, catalog::TypeId result_type) {
  AggSpec spec;
  spec.func = func;
  spec.result_type = result_type;
  return spec;
}

/// Splits `values` across `partitions` accumulators, round-trips each
/// through the partial-state row format, merges, and checks the finalized
/// result equals single-accumulator aggregation.
void CheckPartialRoundTrip(const AggSpec& spec,
                           const std::vector<Value>& values, int partitions) {
  AggAccumulator direct;
  std::vector<AggAccumulator> partial(partitions);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) continue;  // aggregation skips NULLs upstream
    ASSERT_TRUE(exec::AggAccumulate(&direct, spec, values[i]).ok());
    ASSERT_TRUE(
        exec::AggAccumulate(&partial[i % partitions], spec, values[i]).ok());
  }
  AggAccumulator merged;
  for (const AggAccumulator& acc : partial) {
    Tuple row;
    exec::AppendPartialState(spec, acc, &row);
    ASSERT_EQ(row.size(), exec::PartialStateWidth(spec));
    size_t col = 0;
    ASSERT_TRUE(exec::MergePartialState(spec, row, &col, &merged).ok());
    EXPECT_EQ(col, row.size());
  }
  const Value expect = exec::AggFinalize(spec, direct);
  const Value got = exec::AggFinalize(spec, merged);
  EXPECT_EQ(expect.ToString(), got.ToString())
      << "func=" << static_cast<int>(spec.func);
}

TEST(PartialAggTest, AllFunctionsRoundTripAcrossPartitions) {
  std::vector<Value> values;
  for (int i = 0; i < 37; ++i) values.push_back(Value::Int(i * 3 - 11));
  for (auto func : {parser::AggFunc::kCount, parser::AggFunc::kSum,
                    parser::AggFunc::kAvg, parser::AggFunc::kMin,
                    parser::AggFunc::kMax}) {
    CheckPartialRoundTrip(MakeSpec(func, catalog::TypeId::kInt64), values, 4);
  }
}

TEST(PartialAggTest, EmptyPartitionsMergeToSqlNulls) {
  // All partitions empty: COUNT merges to 0, SUM/AVG/MIN/MAX to NULL.
  for (auto func : {parser::AggFunc::kCount, parser::AggFunc::kSum,
                    parser::AggFunc::kAvg, parser::AggFunc::kMin,
                    parser::AggFunc::kMax}) {
    CheckPartialRoundTrip(MakeSpec(func, catalog::TypeId::kInt64), {}, 3);
  }
}

TEST(PartialAggTest, MixedEmptyAndLoadedPartitionsMerge) {
  // Partition count far above value count leaves most partitions empty.
  std::vector<Value> values = {Value::Int(5), Value::Int(-2)};
  for (auto func : {parser::AggFunc::kCount, parser::AggFunc::kSum,
                    parser::AggFunc::kAvg, parser::AggFunc::kMin,
                    parser::AggFunc::kMax}) {
    CheckPartialRoundTrip(MakeSpec(func, catalog::TypeId::kInt64), values, 8);
  }
}

// ------------------------------------------------- engine differential ----

class ParallelDopTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 3000;

  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 8192);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    ASSERT_TRUE(
        workload::CreateWisconsinTable(catalog_.get(), "t1", kRows).ok());
    ASSERT_TRUE(
        workload::CreateWisconsinTable(catalog_.get(), "t2", kRows).ok());
    ASSERT_TRUE(
        workload::CreateWisconsinTable(catalog_.get(), "tiny", 300).ok());
  }

  std::unique_ptr<PhysicalPlan> PlanFor(const std::string& sql, int max_dop) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    PlannerOptions opts;
    opts.max_dop = max_dop;
    opts.parallel_min_rows = 1;  // force the DOP choice for modest tables
    Planner planner(catalog_.get(), opts);
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().message();
    return std::move(*plan);
  }

  std::vector<std::string> RunSorted(StagedEngine* engine,
                                     const PhysicalPlan* plan) {
    auto rows = engine->Execute(plan);
    EXPECT_TRUE(rows.ok()) << rows.status().message();
    std::vector<std::string> out;
    if (rows.ok()) {
      for (const Tuple& t : *rows) out.push_back(TupleToString(t));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  StagedEngineOptions ParallelOptions(int max_dop) {
    StagedEngineOptions opts;
    opts.max_dop = max_dop;
    opts.threads_per_stage = 2;
    opts.stage_pools["join"] = {max_dop, -1};
    opts.stage_pools["aggr"] = {max_dop, -1};
    return opts;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

constexpr int64_t ParallelDopTest::kRows;

TEST_F(ParallelDopTest, ParallelShapesAppearOnlyAboveTheRowThreshold) {
  const std::string sql =
      "SELECT twenty, COUNT(*), AVG(unique1) FROM t1 GROUP BY twenty";
  const std::string dop1 = PlanFor(sql, 1)->ToString();
  EXPECT_EQ(dop1.find("dop="), std::string::npos);
  EXPECT_EQ(dop1.find("[partial]"), std::string::npos);
  EXPECT_EQ(dop1.find("[merge]"), std::string::npos);

  const std::string dop4 = PlanFor(sql, 4)->ToString();
  EXPECT_NE(dop4.find("HashAggregate[merge]"), std::string::npos);
  EXPECT_NE(dop4.find("HashAggregate[partial] dop=4"), std::string::npos);

  // The heuristic, not just the cap, gates the rewrite: with the default
  // per-partition row floor (512), a 300-row input stays serial even at
  // max_dop=4.
  auto stmt = parser::ParseStatement(
      "SELECT twenty, COUNT(*), AVG(unique1) FROM tiny GROUP BY twenty");
  ASSERT_TRUE(stmt.ok());
  PlannerOptions opts;
  opts.max_dop = 4;  // default parallel_min_rows
  Planner planner(catalog_.get(), opts);
  auto guarded = planner.Plan(**stmt);
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ((*guarded)->ToString().find("dop="), std::string::npos);
  EXPECT_EQ((*guarded)->ToString().find("[partial]"), std::string::npos);
}

TEST_F(ParallelDopTest, HashJoinMatchesAcrossDop) {
  const std::string sql =
      "SELECT t1.unique1, t2.unique2, t1.stringu1 FROM t1 JOIN t2 "
      "ON t1.unique1 = t2.unique2 WHERE t2.two = 0";
  auto serial_plan = PlanFor(sql, 1);
  auto parallel_plan = PlanFor(sql, 4);
  EXPECT_NE(parallel_plan->ToString().find("HashJoin dop=4"),
            std::string::npos);

  StagedEngine serial(catalog_.get(), {});
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  const auto expect = RunSorted(&serial, serial_plan.get());
  const auto got = RunSorted(&parallel, parallel_plan.get());
  ASSERT_EQ(expect.size(), static_cast<size_t>(kRows / 2));
  EXPECT_EQ(expect, got);

  // The fan-out is visible in the runtime stats: 4 partition packets were
  // created on the join stage, as one parallel group.
  const auto stats = parallel.runtime()->Stats();
  for (const auto& s : stats.stages) {
    if (s.name == "join") {
      EXPECT_EQ(s.parallel_packets, 4);
      EXPECT_EQ(s.parallel_groups, 1);
    }
  }
}

TEST_F(ParallelDopTest, GroupByAggregateMatchesAcrossDop) {
  const std::string sql =
      "SELECT twenty, COUNT(*), SUM(unique1), AVG(unique1), MIN(unique1), "
      "MAX(unique2) FROM t1 GROUP BY twenty";
  auto serial_plan = PlanFor(sql, 1);
  auto parallel_plan = PlanFor(sql, 4);
  StagedEngine serial(catalog_.get(), {});
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  const auto expect = RunSorted(&serial, serial_plan.get());
  const auto got = RunSorted(&parallel, parallel_plan.get());
  ASSERT_EQ(expect.size(), 20u);
  EXPECT_EQ(expect, got);
}

TEST_F(ParallelDopTest, GlobalAggregateUsesRoundRobinPartials) {
  const std::string sql =
      "SELECT COUNT(*), SUM(unique1), AVG(unique2), MIN(unique1), "
      "MAX(unique1) FROM t1";
  auto serial_plan = PlanFor(sql, 4);  // shapes differ, results must not
  auto parallel_plan = PlanFor(sql, 8);
  StagedEngine serial(catalog_.get(), {});  // max_dop=1 clamps to one packet
  StagedEngine parallel(catalog_.get(), ParallelOptions(8));
  const auto expect = RunSorted(&serial, serial_plan.get());
  const auto got = RunSorted(&parallel, parallel_plan.get());
  ASSERT_EQ(expect.size(), 1u);
  EXPECT_EQ(expect, got);
}

TEST_F(ParallelDopTest, EmptyInputGlobalAggregateStillYieldsOneRow) {
  const std::string sql =
      "SELECT COUNT(*), SUM(unique1), MIN(unique1) FROM t1 "
      "WHERE unique1 < 0";
  auto serial_plan = PlanFor(sql, 1);
  auto parallel_plan = PlanFor(sql, 4);
  StagedEngine serial(catalog_.get(), {});
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  const auto expect = RunSorted(&serial, serial_plan.get());
  const auto got = RunSorted(&parallel, parallel_plan.get());
  ASSERT_EQ(expect.size(), 1u);  // COUNT=0, SUM/MIN NULL — exactly one row
  EXPECT_EQ(expect, got);
}

TEST_F(ParallelDopTest, JoinUnderAggregateRepartitions) {
  // dop>1 join feeding dop>1 partial aggregation exercises the M-producer ×
  // N-partition repartitioning edge, plus HAVING above the merge.
  const std::string sql =
      "SELECT t1.twenty, COUNT(*), SUM(t2.unique1) FROM t1 JOIN t2 "
      "ON t1.unique1 = t2.unique2 WHERE t1.fiftypercent = 0 "
      "GROUP BY t1.twenty HAVING COUNT(*) > 10";
  auto serial_plan = PlanFor(sql, 1);
  auto parallel_plan = PlanFor(sql, 4);
  StagedEngine serial(catalog_.get(), {});
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  const auto expect = RunSorted(&serial, serial_plan.get());
  const auto got = RunSorted(&parallel, parallel_plan.get());
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(expect, got);
}

TEST_F(ParallelDopTest, LimitAboveParallelJoinCancelsCleanly) {
  // LIMIT closes the fan-in buffer under the qual packet; all 4 join
  // partitions (and both scans) must finish early without hanging.
  const std::string sql =
      "SELECT t1.unique1 FROM t1 JOIN t2 ON t1.unique1 = t2.unique2 "
      "LIMIT 5";
  auto parallel_plan = PlanFor(sql, 4);
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  auto rows = parallel.Execute(parallel_plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(ParallelDopTest, OrderByAboveParallelAggregateStaysSorted) {
  const std::string sql =
      "SELECT twenty, SUM(unique1) FROM t1 GROUP BY twenty "
      "ORDER BY twenty DESC";
  auto serial_plan = PlanFor(sql, 1);
  auto parallel_plan = PlanFor(sql, 4);
  StagedEngine serial(catalog_.get(), {});
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  // Unsorted comparison would mask ORDER BY breakage: compare verbatim.
  auto expect = serial.Execute(serial_plan.get());
  auto got = parallel.Execute(parallel_plan.get());
  ASSERT_TRUE(expect.ok() && got.ok());
  ASSERT_EQ(expect->size(), got->size());
  for (size_t i = 0; i < expect->size(); ++i) {
    EXPECT_EQ(TupleToString((*expect)[i]), TupleToString((*got)[i]));
  }
}

TEST_F(ParallelDopTest, EngineMaxDopClampsPlanDop) {
  const std::string sql =
      "SELECT t1.unique1 FROM t1 JOIN t2 ON t1.unique1 = t2.unique2";
  auto parallel_plan = PlanFor(sql, 8);
  StagedEngine clamped(catalog_.get(), ParallelOptions(2));
  const auto rows = RunSorted(&clamped, parallel_plan.get());
  EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
  const auto stats = clamped.runtime()->Stats();
  for (const auto& s : stats.stages) {
    if (s.name == "join") {
      EXPECT_EQ(s.parallel_packets, 2);
    }
  }
}

TEST_F(ParallelDopTest, ConcurrentParallelQueriesInterleave) {
  // Several DOP=4 queries in flight at once: partition packets of different
  // queries interleave on the shared join/aggr pools (TSan target).
  const std::string join_sql =
      "SELECT t1.unique1 FROM t1 JOIN t2 ON t1.unique1 = t2.unique2 "
      "WHERE t2.ten = 3";
  const std::string agg_sql =
      "SELECT four, COUNT(*), AVG(unique1) FROM t2 GROUP BY four";
  auto join_plan = PlanFor(join_sql, 4);
  auto agg_plan = PlanFor(agg_sql, 4);
  StagedEngine parallel(catalog_.get(), ParallelOptions(4));
  StagedEngine serial(catalog_.get(), {});
  auto join_serial = PlanFor(join_sql, 1);
  auto agg_serial = PlanFor(agg_sql, 1);
  const auto expect_join = RunSorted(&serial, join_serial.get());
  const auto expect_agg = RunSorted(&serial, agg_serial.get());

  constexpr int kQueries = 8;
  std::vector<std::shared_ptr<StagedQuery>> pending;
  pending.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    pending.push_back(
        parallel.Submit(i % 2 == 0 ? join_plan.get() : agg_plan.get()));
  }
  for (int i = 0; i < kQueries; ++i) {
    auto rows = pending[i]->Await();
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    std::vector<std::string> got;
    for (const Tuple& t : *rows) got.push_back(TupleToString(t));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, i % 2 == 0 ? expect_join : expect_agg);
  }
}

}  // namespace
}  // namespace stagedb::engine
