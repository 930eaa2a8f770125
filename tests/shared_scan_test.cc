// Tests for cooperative shared scans (§5.4): the SharedScanManager elevator
// protocol (attach mid-scan, exactly-once delivery, cursor reset on last
// detach, window fallback), the engine integration (shared_scans knob,
// byte-for-byte equivalence when disabled), and consistency of concurrent
// scans and DML. The concurrent cases are the sanitizer-matrix targets.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/shared_scan.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/disk_manager.h"

namespace stagedb::engine {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::Tuple;
using catalog::TupleToString;
using catalog::TypeId;
using catalog::Value;
using optimizer::Planner;

/// Rows sized so the table spans a healthy number of pages (the varchar pads
/// each record to ~220 bytes -> ~35 records per 8 KiB page).
constexpr int kRows = 600;

class SharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 1024);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    auto t = catalog_->CreateTable(
        "t", Schema({{"a", TypeId::kInt64, ""},
                     {"pad", TypeId::kVarchar, ""}}));
    ASSERT_TRUE(t.ok());
    table_ = *t;
    const std::string pad(200, 'x');
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(table_, {Value::Int(i), Value::Varchar(pad)})
              .ok());
    }
  }

  std::unique_ptr<optimizer::PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  /// Every record in heap order, via the private iterator (the seed path).
  std::vector<std::string> IteratorRecords() const {
    std::vector<std::string> records;
    auto it = table_->heap->Scan();
    while (it.Next()) records.emplace_back(it.record());
    EXPECT_TRUE(it.status().ok());
    return records;
  }

  static void AppendRecords(const storage::PageRecords& page,
                            std::vector<std::string>* out) {
    for (size_t i = 0; i < page.size(); ++i) out->emplace_back(page[i]);
  }

  /// Drains `cursor` to completion, appending to `out`.
  static void Drain(SharedScanManager::Cursor* cursor,
                    std::vector<std::string>* out) {
    while (const storage::PageRecords* page = cursor->NextPage()) {
      AppendRecords(*page, out);
    }
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  catalog::TableInfo* table_ = nullptr;
};

// ----------------------------------------------------- elevator protocol ---

TEST_F(SharedScanTest, SingleReaderMatchesIteratorExactly) {
  SharedScanManager manager;
  auto cursor = manager.Attach(table_->heap.get());
  std::vector<std::string> got;
  Drain(&cursor, &got);
  EXPECT_EQ(got, IteratorRecords());  // same records, same order
  const SharedScanStats stats = manager.StatsFor(table_->heap.get());
  EXPECT_EQ(stats.attaches, 1);
  EXPECT_EQ(stats.active_readers, 0);
  EXPECT_EQ(stats.pages_delivered, stats.heap_page_reads);
  EXPECT_EQ(stats.cursor_resets, 1);
}

TEST_F(SharedScanTest, AttachMidScanSeesEveryRecordExactlyOnce) {
  const std::vector<std::string> all = IteratorRecords();
  SharedScanManager manager;
  auto lead = manager.Attach(table_->heap.get());

  // Lead consumes a few pages, then a second reader attaches mid-scan.
  std::vector<std::string> lead_got;
  for (int i = 0; i < 3; ++i) {
    const storage::PageRecords* page = lead.NextPage();
    ASSERT_NE(page, nullptr);
    AppendRecords(*page, &lead_got);
  }
  auto late = manager.Attach(table_->heap.get());
  EXPECT_EQ(manager.StatsFor(table_->heap.get()).active_readers, 2);

  std::vector<std::string> late_got;
  Drain(&late, &late_got);
  Drain(&lead, &lead_got);

  // Both readers saw every record exactly once; the late reader saw a pure
  // rotation of heap order, starting at the elevator's head (mid-file), not
  // at the first page.
  EXPECT_EQ(lead_got, all);
  ASSERT_EQ(late_got.size(), all.size());
  const auto pivot = std::find(all.begin(), all.end(), late_got.front());
  ASSERT_NE(pivot, all.end());
  EXPECT_NE(pivot, all.begin());  // attached mid-scan => rotated order
  std::vector<std::string> rotated(pivot, all.end());
  rotated.insert(rotated.end(), all.begin(), pivot);
  EXPECT_EQ(late_got, rotated);
}

TEST_F(SharedScanTest, LastReaderDetachResetsCursor) {
  SharedScanManager manager;
  auto reader = manager.Attach(table_->heap.get());
  ASSERT_NE(reader.NextPage(), nullptr);
  ASSERT_NE(reader.NextPage(), nullptr);
  reader.Detach();  // abandon mid-scan
  EXPECT_FALSE(reader.attached());

  const SharedScanStats stats = manager.StatsFor(table_->heap.get());
  EXPECT_EQ(stats.active_readers, 0);
  EXPECT_EQ(stats.cursor_resets, 1);

  // A fresh reader starts at the first page again, in seed iterator order.
  auto fresh = manager.Attach(table_->heap.get());
  std::vector<std::string> got;
  Drain(&fresh, &got);
  EXPECT_EQ(got, IteratorRecords());
}

TEST_F(SharedScanTest, LaggardBeyondWindowStillSeesEverything) {
  // Window of one page: the laggard's pages have long been evicted from the
  // reuse window and must be re-fetched through the buffer pool.
  SharedScanManager manager(/*window_pages=*/1);
  auto lead = manager.Attach(table_->heap.get());
  auto laggard = manager.Attach(table_->heap.get());

  std::vector<std::string> lead_got, laggard_got;
  for (int i = 0; i < 5; ++i) {
    const storage::PageRecords* page = lead.NextPage();
    ASSERT_NE(page, nullptr);
    AppendRecords(*page, &lead_got);
  }
  Drain(&laggard, &laggard_got);
  Drain(&lead, &lead_got);
  EXPECT_EQ(lead_got, IteratorRecords());
  EXPECT_EQ(laggard_got, IteratorRecords());
}

TEST_F(SharedScanTest, LockstepReadersShareTheWindow) {
  SharedScanManager manager;
  auto a = manager.Attach(table_->heap.get());
  auto b = manager.Attach(table_->heap.get());
  std::vector<std::string> a_got, b_got;
  // Alternate page-by-page: b's deliveries should all come from the window.
  while (true) {
    const storage::PageRecords* a_page = a.NextPage();
    if (a_page != nullptr) AppendRecords(*a_page, &a_got);
    const storage::PageRecords* b_page = b.NextPage();
    if (b_page != nullptr) AppendRecords(*b_page, &b_got);
    if (a_page == nullptr && b_page == nullptr) break;
  }
  EXPECT_EQ(a_got, IteratorRecords());
  EXPECT_EQ(b_got, IteratorRecords());
  const SharedScanStats stats = manager.StatsFor(table_->heap.get());
  EXPECT_EQ(stats.pages_delivered, 2 * stats.heap_page_reads);
  EXPECT_EQ(stats.window_hits, stats.heap_page_reads);
  EXPECT_GT(stats.DeliveriesPerRead(), 1.9);
}

TEST_F(SharedScanTest, WindowReusesOnlyImagesNoReaderHolds) {
  // A one-page window: every physical read drops the previous image, and
  // reads into it only when no cursor still holds it.
  SharedScanManager manager(/*window_pages=*/1);
  auto lead = manager.Attach(table_->heap.get());
  auto held = manager.Attach(table_->heap.get());
  const storage::PageRecords* first = lead.NextPage();
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(held.NextPage(), first);  // a window hit: the same image
  std::vector<std::string> first_records;
  AppendRecords(*first, &first_records);

  // The lead moves on twice while `held` keeps the first image: the first
  // read may not overwrite it, and the second reuses the lead's own image.
  std::vector<std::string> lead_got = first_records;
  const storage::PageRecords* second = lead.NextPage();
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  AppendRecords(*second, &lead_got);
  const storage::PageRecords* third = lead.NextPage();
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third, second);
  AppendRecords(*third, &lead_got);
  std::vector<std::string> still;
  AppendRecords(*first, &still);
  EXPECT_EQ(still, first_records);

  std::vector<std::string> held_got = first_records;
  Drain(&lead, &lead_got);
  Drain(&held, &held_got);
  EXPECT_EQ(lead_got, IteratorRecords());
  EXPECT_EQ(held_got, IteratorRecords());
}

TEST_F(SharedScanTest, WindowInvalidatedByDml) {
  // A reader caches pages in the window; a DELETE then lands on one of those
  // pages. A reader attaching afterwards must not be served the stale cached
  // copy: the deleted record may not re-surface.
  SharedScanManager manager;
  auto lead = manager.Attach(table_->heap.get());
  const storage::PageRecords* page = lead.NextPage();  // caches page one
  ASSERT_NE(page, nullptr);
  const std::string victim((*page)[0]);

  storage::Rid victim_rid;
  {
    auto it = table_->heap->Scan();
    ASSERT_TRUE(it.Next());
    ASSERT_EQ(it.record(), victim);
    victim_rid = it.rid();
  }
  ASSERT_TRUE(table_->heap->Delete(victim_rid).ok());

  auto late = manager.Attach(table_->heap.get());
  std::vector<std::string> late_got;
  Drain(&late, &late_got);
  EXPECT_EQ(late_got.size(), static_cast<size_t>(kRows - 1));
  EXPECT_EQ(std::count(late_got.begin(), late_got.end(), victim), 0)
      << "deleted record served from a stale window page";
  lead.Detach();
}

// ---------------------------------------------------- engine integration ---

TEST_F(SharedScanTest, DisabledMatchesVolcanoByteForByte) {
  StagedEngineOptions opts;
  opts.shared_scans = false;
  StagedEngine engine(catalog_.get(), opts);
  auto plan = Plan("SELECT * FROM t");
  exec::ExecContext ctx;
  ctx.catalog = catalog_.get();
  auto volcano = exec::ExecutePlan(plan.get(), &ctx);
  auto staged = engine.Execute(plan.get());
  ASSERT_TRUE(volcano.ok() && staged.ok());
  ASSERT_EQ(volcano->size(), staged->size());
  for (size_t i = 0; i < volcano->size(); ++i) {
    EXPECT_EQ(TupleToString((*volcano)[i]), TupleToString((*staged)[i]));
  }
  // The knob really is off: no reader ever attached.
  EXPECT_EQ(engine.shared_scans()->TotalStats().attaches, 0);
}

TEST_F(SharedScanTest, SharedSingleQueryMatchesVolcanoByteForByte) {
  // With no concurrent reader the elevator starts at the first page (the
  // cursor was reset by the last detach), so even row order matches.
  StagedEngineOptions opts;
  opts.shared_scans = true;
  StagedEngine engine(catalog_.get(), opts);
  auto plan = Plan("SELECT * FROM t");
  exec::ExecContext ctx;
  ctx.catalog = catalog_.get();
  auto volcano = exec::ExecutePlan(plan.get(), &ctx);
  auto staged = engine.Execute(plan.get());
  ASSERT_TRUE(volcano.ok() && staged.ok());
  ASSERT_EQ(volcano->size(), staged->size());
  for (size_t i = 0; i < volcano->size(); ++i) {
    EXPECT_EQ(TupleToString((*volcano)[i]), TupleToString((*staged)[i]));
  }
  EXPECT_EQ(engine.shared_scans()->TotalStats().attaches, 1);
}

TEST_F(SharedScanTest, ConcurrentSharedQueriesAllCorrect) {
  StagedEngineOptions opts;
  opts.shared_scans = true;
  StagedEngine engine(catalog_.get(), opts);
  auto plan = Plan("SELECT COUNT(*), MIN(a), MAX(a) FROM t");
  constexpr int kQueries = 12;
  std::vector<std::shared_ptr<StagedQuery>> inflight;
  inflight.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    inflight.push_back(engine.Submit(plan.get()));
  }
  for (auto& query : inflight) {
    auto rows = query->Await();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][0].int_value(), kRows);
    EXPECT_EQ((*rows)[0][1].int_value(), 0);
    EXPECT_EQ((*rows)[0][2].int_value(), kRows - 1);
  }
  const SharedScanStats stats = engine.shared_scans()->TotalStats();
  EXPECT_EQ(stats.attaches, kQueries);
  EXPECT_EQ(stats.active_readers, 0);
  // The point of the subsystem: far fewer physical reads than deliveries.
  EXPECT_GT(stats.pages_delivered, stats.heap_page_reads);
}

TEST_F(SharedScanTest, DmlDuringSharedScanStaysConsistent) {
  // Writers append new rows and delete some original ones while a stream of
  // shared scans runs. Every scan must observe an internally consistent
  // snapshot-ish view: no torn records (decode failures fail the query), no
  // duplicate keys, and a row count within the feasible envelope.
  StagedEngineOptions opts;
  opts.shared_scans = true;
  StagedEngine engine(catalog_.get(), opts);
  auto plan = Plan("SELECT a FROM t");

  // Rids of the first rows, for deletion.
  std::vector<storage::Rid> victim_rids;
  {
    auto it = table_->heap->Scan();
    for (int i = 0; i < 50 && it.Next(); ++i) victim_rids.push_back(it.rid());
  }

  constexpr int kInserts = 200;
  constexpr int kDeletes = 50;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    const std::string pad(200, 'y');
    for (int i = 0; i < kInserts; ++i) {
      if (!catalog_
               ->InsertTuple(table_,
                             {Value::Int(kRows + i), Value::Varchar(pad)})
               .ok()) {
        failed = true;
      }
      if (i % 4 == 0 && i / 4 < kDeletes) {
        if (!catalog_->DeleteTuple(table_, victim_rids[i / 4]).ok()) {
          failed = true;
        }
      }
    }
  });

  for (int round = 0; round < 8; ++round) {
    auto rows = engine.Execute(plan.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::set<int64_t> seen;
    for (const Tuple& t : *rows) seen.insert(t[0].int_value());
    EXPECT_EQ(seen.size(), rows->size()) << "duplicate rows in scan";
    EXPECT_GE((int64_t)rows->size(), kRows - kDeletes);
    EXPECT_LE((int64_t)rows->size(), kRows + kInserts);
  }
  writer.join();
  EXPECT_FALSE(failed.load());

  // Quiesced: the final scan sees exactly the surviving rows.
  auto rows = engine.Execute(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kRows + kInserts - kDeletes));
}

}  // namespace
}  // namespace stagedb::engine
