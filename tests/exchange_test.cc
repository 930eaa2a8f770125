// Tests for the batched exchange ABI and the lock-free SPSC ring fast path
// (ctest label: exchange; the threaded cases are TSan-leg targets). Covers
// the ring protocol in isolation — wraparound at the capacity boundary,
// full/empty interleavings, EOF ordering around a final partial batch,
// cancellation — the mutex buffer's multi-consumer Close wakeup (lost-wakeup
// regression), the Submit builder's per-edge impl selection, the engine's
// tuples_per_page reaching the operator morsel size, and a DOP × morsel-size
// differential over joins/aggregations (results must be byte-identical).
// Both edge kinds also hand a consumer's drained rows back to the producer
// as spares, bounded at one morsel, and stay clean when cancelled with rows
// in flight.
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
using optimizer::PhysicalPlan;
using optimizer::Planner;
using optimizer::PlannerOptions;

RowBatch MakeBatch(int64_t start, int n) {
  RowBatch b;
  for (int i = 0; i < n; ++i) b.tuples.push_back({Value::Int(start + i)});
  return b;
}

// ---------------------------------------------------- SPSC ring protocol ----

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRingBuffer(1).ring_capacity(), 1u);
  EXPECT_EQ(SpscRingBuffer(2).ring_capacity(), 2u);
  EXPECT_EQ(SpscRingBuffer(5).ring_capacity(), 8u);
  EXPECT_EQ(SpscRingBuffer(8).ring_capacity(), 8u);
  // Capacity 0 would deadlock a producer forever; the ring clamps to 1.
  EXPECT_EQ(SpscRingBuffer(0).ring_capacity(), 1u);
  EXPECT_EQ(SpscRingBuffer(4).impl(), ExchangeBuffer::Impl::kSpscRing);
  EXPECT_EQ(ExchangeBuffer(4).impl(), ExchangeBuffer::Impl::kMutex);
}

TEST(SpscRingTest, WraparoundAtCapacityBoundaryPreservesFifo) {
  // Capacity-4 ring driven through many times its capacity so head/tail
  // cross the index mask repeatedly; order and payload must survive, and
  // the ring must report kFull at exactly ring_capacity() occupied slots.
  SpscRingBuffer ring(4);
  ASSERT_EQ(ring.ring_capacity(), 4u);
  int64_t next_push = 0, next_pop = 0;
  RowBatch out;
  bool eof = false;
  for (int round = 0; round < 37; ++round) {
    // Fill to the brim (occupancy varies per round to shift the boundary).
    while (true) {
      RowBatch b = MakeBatch(next_push, 1);
      if (ring.TryPush(&b) != ExchangeBuffer::PushResult::kOk) {
        ASSERT_EQ(b.tuples.size(), 1u);  // rejected batch stays with caller
        break;
      }
      ++next_push;
    }
    EXPECT_EQ(next_push - next_pop, 4);  // full means all 4 slots usable
    const int drain = 1 + round % 4;
    for (int i = 0; i < drain && next_pop < next_push; ++i) {
      ASSERT_TRUE(ring.TryPop(&out, &eof));
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out.tuples[0][0].int_value(), next_pop);
      ++next_pop;
    }
  }
  EXPECT_GT(next_push, 4 * 37 / 2);  // actually wrapped many times
  EXPECT_EQ(ring.pages_pushed(), next_push);
}

TEST(SpscRingTest, EofOnlyAfterFinalPartialBatch) {
  // The EOF flag must never overtake buffered data: a consumer that sees
  // eof=true with TryPop()==false has provably drained everything,
  // including a final batch smaller than the morsel size.
  SpscRingBuffer ring(8);
  RowBatch full = MakeBatch(0, 64);
  RowBatch partial = MakeBatch(64, 7);  // final short batch at EOF
  ASSERT_EQ(ring.TryPush(&full), ExchangeBuffer::PushResult::kOk);
  ASSERT_EQ(ring.TryPush(&partial), ExchangeBuffer::PushResult::kOk);
  ring.MarkEof();

  RowBatch out;
  bool eof = false;
  ASSERT_TRUE(ring.TryPop(&out, &eof));
  EXPECT_EQ(out.size(), 64u);
  EXPECT_FALSE(eof);  // data delivered, stream not reported over
  ASSERT_TRUE(ring.TryPop(&out, &eof));
  EXPECT_EQ(out.size(), 7u);
  EXPECT_FALSE(ring.TryPop(&out, &eof));
  EXPECT_TRUE(eof);  // only now, with the ring empty
  EXPECT_TRUE(ring.AtEof());
}

TEST(SpscRingTest, CloseAndForceEofCancelImmediately) {
  SpscRingBuffer ring(4);
  RowBatch b = MakeBatch(0, 2);
  ASSERT_EQ(ring.TryPush(&b), ExchangeBuffer::PushResult::kOk);
  ring.Close();  // cancellation: buffered pages are dropped
  b = MakeBatch(10, 2);
  EXPECT_EQ(ring.TryPush(&b), ExchangeBuffer::PushResult::kClosed);
  EXPECT_EQ(b.tuples.size(), 2u);  // batch retained by the caller
  RowBatch out;
  bool eof = false;
  EXPECT_FALSE(ring.TryPop(&out, &eof));
  EXPECT_TRUE(eof);

  SpscRingBuffer forced(4);
  forced.BindProducer(nullptr, nullptr);
  forced.BindProducer(nullptr, nullptr);
  forced.ForceEof();  // does not wait for the second producer's MarkEof
  EXPECT_TRUE(forced.AtEof());
}

TEST(SpscRingTest, ThreadedFullEmptyInterleavings) {
  // Producer and consumer hammer a capacity-2 ring so nearly every TryPush
  // hits kFull and nearly every TryPop hits empty at least once: the
  // park/wake Dekker protocol's racy edges, under TSan on that leg. FIFO
  // order is asserted on every delivered item.
  SpscRingBuffer ring(2);
  constexpr int64_t kItems = 20000;
  std::thread producer([&] {
    for (int64_t i = 0; i < kItems;) {
      RowBatch b = MakeBatch(i, 1);
      if (ring.TryPush(&b) == ExchangeBuffer::PushResult::kOk) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
    ring.MarkEof();
  });
  int64_t expect = 0;
  RowBatch out;
  bool eof = false;
  while (true) {
    if (ring.TryPop(&out, &eof)) {
      ASSERT_EQ(out.size(), 1u);
      ASSERT_EQ(out.tuples[0][0].int_value(), expect);
      ++expect;
    } else if (eof) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
  EXPECT_EQ(ring.pages_pushed(), kItems);
}

TEST(SpscRingTest, ThreadedForceEofUnblocksSpinningProducer) {
  // Consumer-side cancellation (LIMIT satisfied) must stop a producer
  // spinning on a full ring: after Close, TryPush reports kClosed.
  SpscRingBuffer ring(1);
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    int64_t i = 0;
    while (true) {
      RowBatch b = MakeBatch(i, 1);
      const auto r = ring.TryPush(&b);
      if (r == ExchangeBuffer::PushResult::kClosed) break;
      if (r == ExchangeBuffer::PushResult::kOk) ++i;
      std::this_thread::yield();
    }
    producer_done.store(true);
  });
  RowBatch out;
  bool eof = false;
  // Let the producer make some progress, then cancel.
  for (int popped = 0; popped < 100;) {
    if (ring.TryPop(&out, &eof)) ++popped;
  }
  ring.Close();
  producer.join();
  EXPECT_TRUE(producer_done.load());
}

// ------------------------------------------ spare rows on both edge kinds ----

constexpr size_t kSpareMorsel = 8;

/// Pushes batches three morsels long, each carrying a morsel of spares of
/// its own, and pops each one. Every push must hand back at most one morsel
/// of spares, all of them rows the producer pushed earlier.
void ExpectDrainedRowsReturnToProducer(ExchangeBuffer* edge) {
  std::set<const Value*> sent;  // the storage of every row pushed
  size_t recycled = 0;
  RowBatch out;
  bool eof = false;
  for (int64_t round = 0; round < 8; ++round) {
    const int64_t first = round * 4 * kSpareMorsel;
    RowBatch batch = MakeBatch(first, 3 * kSpareMorsel);
    batch.spares = MakeBatch(first + 3 * kSpareMorsel, kSpareMorsel).tuples;
    for (const Tuple& t : batch.tuples) sent.insert(t.data());
    for (const Tuple& t : batch.spares) sent.insert(t.data());
    ASSERT_EQ(edge->TryPush(&batch), ExchangeBuffer::PushResult::kOk);
    EXPECT_TRUE(batch.empty());
    EXPECT_LE(batch.spares.size(), kSpareMorsel);
    for (const Tuple& t : batch.spares) {
      EXPECT_EQ(sent.count(t.data()), 1u) << "a spare the producer never sent";
      ++recycled;
    }
    ASSERT_TRUE(edge->TryPop(&out, &eof));
    ASSERT_EQ(out.size(), 3 * kSpareMorsel);
    EXPECT_EQ(out.tuples[0][0].int_value(), first);
  }
  // After the first laps every push comes back with a full morsel.
  EXPECT_GE(recycled, 5 * kSpareMorsel);
}

/// A producer refilling its spares and a consumer draining race a
/// cancellation (Close + ForceEof, as StagedQuery::Fail sends) from a third
/// thread while rows are in flight in both directions. TSan checks the
/// slots are only touched by their owners; ASan's leak check that the rows
/// still in the edge are freed with it.
void CancelWithSparesInFlight(ExchangeBuffer* edge) {
  std::atomic<int64_t> popped{0};
  std::thread producer([&] {
    RowBatch batch;
    int64_t next = 0;
    while (true) {
      if (batch.empty()) {
        for (size_t i = 0; i < kSpareMorsel; ++i) {
          Tuple row = batch.TakeSpare();
          row.assign(1, Value::Int(next++));
          batch.push_back(std::move(row));
        }
      }
      const auto r = edge->TryPush(&batch);
      if (r == ExchangeBuffer::PushResult::kClosed) break;
      if (r == ExchangeBuffer::PushResult::kFull) std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    RowBatch out;
    bool eof = false;
    while (true) {
      if (edge->TryPop(&out, &eof)) {
        popped.fetch_add(1);
      } else if (eof) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });
  while (popped.load() < 200) std::this_thread::yield();
  edge->Close();
  edge->ForceEof();
  producer.join();
  consumer.join();
}

TEST(SpscRingTest, PopHandsDrainedRowsBackToTheProducer) {
  SpscRingBuffer ring(2, kSpareMorsel);
  ExpectDrainedRowsReturnToProducer(&ring);
}

TEST(MutexExchangeTest, PopHandsDrainedRowsBackToTheProducer) {
  ExchangeBuffer buffer(2, kSpareMorsel);
  ExpectDrainedRowsReturnToProducer(&buffer);
}

TEST(SpscRingTest, CancelWithSparesInFlightNeitherLeaksNorRaces) {
  SpscRingBuffer ring(2, kSpareMorsel);
  CancelWithSparesInFlight(&ring);
}

TEST(MutexExchangeTest, CancelWithSparesInFlightNeitherLeaksNorRaces) {
  ExchangeBuffer buffer(2, kSpareMorsel);
  CancelWithSparesInFlight(&buffer);
}

// ------------------------------------- mutex buffer multi-consumer wakes ----

/// A packet that drains one shared buffer and parks when it is empty, like
/// a real operator instance.
class DrainTask : public StageTask {
 public:
  DrainTask(ExchangeBuffer* buffer, std::atomic<int>* consumed)
      : buffer_(buffer), consumed_(consumed) {}

  RunOutcome Run() override {
    RowBatch out;
    bool eof = false;
    if (buffer_->TryPop(&out, &eof)) {
      consumed_->fetch_add(static_cast<int>(out.size()));
      return RunOutcome::kYield;
    }
    if (eof) {
      done_.store(true);
      return RunOutcome::kDone;
    }
    return RunOutcome::kBlocked;
  }
  bool CanMakeProgress() override {
    return buffer_->HasData() || buffer_->AtEof();
  }
  bool done() const { return done_.load(); }

 private:
  ExchangeBuffer* buffer_;
  std::atomic<int>* consumed_;
  std::atomic<bool> done_{false};
};

TEST(ExchangeCloseTest, CloseWakesEveryParkedConsumer) {
  // Lost-wakeup regression: two consumer packets park on an empty mutex
  // buffer; Close() (query cancellation) must wake BOTH so they observe
  // EOF and finish — a Close that only signals producers deadlocks here.
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("drain", 2);
  ExchangeBuffer buffer(4);
  std::atomic<int> consumed{0};
  DrainTask a(&buffer, &consumed), b(&buffer, &consumed);
  buffer.BindConsumer(stage, &a);
  buffer.BindConsumer(stage, &b);
  stage->Enqueue(&a);
  stage->Enqueue(&b);
  // Give both packets time to run once on the empty buffer and park.
  for (int i = 0; i < 100; ++i) std::this_thread::yield();
  buffer.Close();
  while (!a.done() || !b.done()) std::this_thread::yield();
  runtime.Shutdown();
  EXPECT_EQ(consumed.load(), 0);  // closed, not drained
}

TEST(ExchangeCloseTest, BatchedPushesWakeParkedConsumersUntilDrained) {
  // Empty→non-empty signaling under batched pushes: each push of a
  // multi-row batch must wake parked consumers; the pair together must
  // account for every row exactly once.
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("drain", 2);
  ExchangeBuffer buffer(2);  // tiny: pushes alternate full/empty
  std::atomic<int> consumed{0};
  DrainTask a(&buffer, &consumed), b(&buffer, &consumed);
  buffer.BindConsumer(stage, &a);
  buffer.BindConsumer(stage, &b);
  stage->Enqueue(&a);
  stage->Enqueue(&b);

  constexpr int kBatches = 500, kRows = 13;
  for (int i = 0; i < kBatches; ++i) {
    RowBatch batch = MakeBatch(i * kRows, kRows);
    while (buffer.TryPush(&batch) != ExchangeBuffer::PushResult::kOk) {
      std::this_thread::yield();
    }
  }
  buffer.MarkEof();
  while (!a.done() || !b.done()) std::this_thread::yield();
  runtime.Shutdown();
  EXPECT_EQ(consumed.load(), kBatches * kRows);
}

// ----------------------------------- engine wiring + batched differential ----

class ExchangeEngineTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 2000;

  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 8192);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    ASSERT_TRUE(
        workload::CreateWisconsinTable(catalog_.get(), "t1", kRows).ok());
    ASSERT_TRUE(
        workload::CreateWisconsinTable(catalog_.get(), "t2", kRows).ok());
  }

  std::unique_ptr<PhysicalPlan> PlanFor(const std::string& sql, int max_dop) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    PlannerOptions opts;
    opts.max_dop = max_dop;
    opts.parallel_min_rows = 1;
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

  StagedEngineOptions EngineOptions(int max_dop, size_t tuples_per_page) {
    StagedEngineOptions opts;
    opts.max_dop = max_dop;
    opts.tuples_per_page = tuples_per_page;
    opts.stage_pools["join"] = {max_dop, -1};
    opts.stage_pools["aggr"] = {max_dop, -1};
    return opts;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

constexpr int64_t ExchangeEngineTest::kRows;

TEST_F(ExchangeEngineTest, SubmitSelectsRingForSingleProducerEdges) {
  const std::string sql =
      "SELECT t1.unique1 FROM t1 JOIN t2 ON t1.unique1 = t2.unique2 "
      "WHERE t2.two = 0";
  auto plan = PlanFor(sql, 4);

  StagedEngine engine(catalog_.get(), EngineOptions(4, 64));
  auto query = engine.Submit(plan.get());
  ASSERT_TRUE(query->Await().ok());
  int rings = 0, mutexes = 0;
  for (const auto& buffer : query->buffers) {
    (buffer->impl() == ExchangeBuffer::Impl::kSpscRing ? rings : mutexes)++;
  }
  // Scan→join partition edges are single-producer (ring); the dop=4 join's
  // fan-in into the qual packet is 4-producer (mutex).
  EXPECT_GT(rings, 0);
  EXPECT_GT(mutexes, 0);
}

TEST_F(ExchangeEngineTest, TuplesPerPageControlsMorselSizeOnTheWire) {
  // The same scan on an engine with 8-row vs 256-row pages must move
  // correspondingly more vs fewer pages through its exchange edge.
  auto plan = PlanFor("SELECT unique1 FROM t1 WHERE unique1 >= 0", 1);
  auto count_pages = [&](size_t tuples_per_page) {
    StagedEngine engine(catalog_.get(), EngineOptions(1, tuples_per_page));
    auto query = engine.Submit(plan.get());
    EXPECT_TRUE(query->Await().ok());
    int64_t pages = 0;
    for (const auto& buffer : query->buffers) pages += buffer->pages_pushed();
    return pages;
  };
  const int64_t pages_small = count_pages(8);
  const int64_t pages_large = count_pages(256);
  // 2000 rows: ≥250 morsels at 8 rows, ≤9 at 256 (+EOF slack either way).
  EXPECT_GT(pages_small, 20 * pages_large);
  EXPECT_GE(pages_large, kRows / 256);
}

TEST_F(ExchangeEngineTest, DopAndBatchSizeDifferentialIsByteIdentical) {
  // Joins and aggregations across DOP ∈ {1,2,4} and 64- or 16-row pages must
  // reproduce the serial reference byte-for-byte. Single-producer edges run
  // the ring; the fan-in edges at DOP 2 and 4 run the mutex buffer.
  const std::vector<std::string> sqls = {
      "SELECT t1.unique1, t2.stringu1 FROM t1 JOIN t2 "
      "ON t1.unique1 = t2.unique2 WHERE t2.two = 0",
      "SELECT twenty, COUNT(*), SUM(unique1), AVG(unique2), MIN(unique1), "
      "MAX(unique1) FROM t1 GROUP BY twenty",
      "SELECT t1.twenty, COUNT(*) FROM t1 JOIN t2 "
      "ON t1.unique1 = t2.unique2 GROUP BY t1.twenty HAVING COUNT(*) > 1",
  };
  for (const std::string& sql : sqls) {
    StagedEngine serial(catalog_.get(), {});
    const auto expect = RunSorted(&serial, PlanFor(sql, 1).get());
    ASSERT_FALSE(expect.empty());
    for (const int dop : {1, 2, 4}) {
      for (const size_t tuples_per_page : {64, 16}) {
        StagedEngine engine(catalog_.get(),
                            EngineOptions(dop, tuples_per_page));
        EXPECT_EQ(expect, RunSorted(&engine, PlanFor(sql, dop).get()))
            << sql << " dop=" << dop << " tuples_per_page=" << tuples_per_page;
      }
    }
  }
}

}  // namespace
}  // namespace stagedb::engine
