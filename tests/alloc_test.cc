// Allocation gates for the scan path (ctest label: storage). This binary
// replaces the global operator new with one that counts calls, so each case
// can state how many heap allocations a piece of the scan path makes:
//   * a heap scan of P pages allocates O(P), not O(rows): each page is one
//     image, and its records are views into it;
//   * a row a scan predicate rejects allocates nothing, compiled or
//     interpreted;
//   * a warm staged SELECT SUM(v), COUNT(*) allocates under a stated bound
//     per emitted row, because morsel rows circulate across the exchange
//     edge instead of being allocated by the scan and freed by the consumer.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "engine/shared_scan.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "scan_row_reader_test_peer.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace stagedb {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::PhysicalPlan;
using optimizer::PlanKind;

int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- heap scans --

class HeapScanAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 64);
    auto file = storage::HeapFile::Create(pool_.get());
    ASSERT_TRUE(file.ok());
    file_ = std::move(*file);
    for (int i = 0; i < kRows; ++i) {
      auto rid = file_->Insert("row " + std::to_string(i) +
                               std::string(24, 'x'));
      ASSERT_TRUE(rid.ok());
      pages_.insert(rid->page_id);
    }
    // Rows outnumber pages enough that a per-row allocation cannot hide
    // under a per-page bound.
    ASSERT_GT(kRows, 50 * static_cast<int64_t>(pages_.size()));
  }

  static constexpr int kRows = 6000;
  storage::MemDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::HeapFile> file_;
  std::set<storage::PageId> pages_;
};

TEST_F(HeapScanAllocTest, IteratorAllocatesPerPageNotPerRow) {
  const int64_t before = Allocations();
  int64_t rows = 0;
  size_t bytes = 0;
  auto it = file_->Scan();
  while (it.Next()) {
    ++rows;
    bytes += it.record().size();
  }
  const int64_t allocations = Allocations() - before;
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(rows, kRows);
  EXPECT_GT(bytes, 0u);
  // Per page: the buffer pool's LRU node for the pin, and at most one growth
  // of the record spans; the image lives in the iterator.
  EXPECT_LE(allocations, 2 * static_cast<int64_t>(pages_.size()));
}

TEST_F(HeapScanAllocTest, SharedScanWindowAllocatesPerPageNotPerRow) {
  engine::SharedScanManager scans;
  // The first attach builds the table's elevator; the second scan is the
  // steady state.
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t before = Allocations();
    auto cursor = scans.Attach(file_.get());
    std::shared_ptr<const storage::PageRecords> page;
    int64_t rows = 0;
    while (cursor.NextPage(&page)) rows += static_cast<int64_t>(page->size());
    page.reset();
    const int64_t allocations = Allocations() - before;
    ASSERT_TRUE(cursor.status().ok());
    EXPECT_EQ(rows, kRows);
    if (pass == 1) {
      // Per page read: the image, its span list and the pool's LRU node.
      EXPECT_LE(allocations, 3 * static_cast<int64_t>(pages_.size()) + 4);
    }
  }
}

// ------------------------------------------------------ scans, end to end --

class ScanAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    auto table = catalog_->CreateTable(
        "acct",
        Schema({{"id", TypeId::kInt64, ""}, {"v", TypeId::kInt64, ""}}));
    ASSERT_TRUE(table.ok());
    table_ = *table;
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(table_, {Value::Int(i), Value::Int(i % 97)})
              .ok());
    }
  }

  std::unique_ptr<PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    optimizer::Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  static const PhysicalPlan* FindSeqScan(const PhysicalPlan& plan) {
    if (plan.kind == PlanKind::kSeqScan) return &plan;
    for (const auto& child : plan.children) {
      if (const PhysicalPlan* scan = FindSeqScan(*child)) return scan;
    }
    return nullptr;
  }

  /// Allocations made by `reader` reading every record of the table, after
  /// the first record has warmed its decode target; every record must be
  /// rejected.
  int64_t RejectAllocations(exec::ScanRowReader* reader) {
    storage::PageRecords page;
    Tuple row;
    const storage::MvccReadView view;
    int64_t rejected = 0;
    int64_t allocations = 0;
    for (storage::PageId id = table_->heap->first_page();
         id != storage::kInvalidPageId; id = page.next_page()) {
      EXPECT_TRUE(table_->heap->ReadPage(id, &page).ok());
      for (size_t i = 0; i < page.size(); ++i) {
        const int64_t before = Allocations();
        auto r = reader->ReadRecord(view, page[i], &row);
        if (rejected > 0) allocations += Allocations() - before;
        EXPECT_TRUE(r.ok());
        if (r.ok() && *r == exec::ScanRow::kRejected) ++rejected;
      }
    }
    EXPECT_EQ(rejected, kRows);
    return allocations;
  }

  static constexpr int64_t kRows = 5000;
  storage::MemDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  catalog::TableInfo* table_ = nullptr;
};

TEST_F(ScanAllocTest, RejectedRowsAllocateNothing) {
  auto plan = Plan("SELECT id FROM acct WHERE v < 0");
  const PhysicalPlan* scan = FindSeqScan(*plan);
  ASSERT_NE(scan, nullptr);
  {
    exec::ScanRowReader compiled(*scan);
    EXPECT_EQ(RejectAllocations(&compiled), 0);
  }
  // The interpreted path decodes the predicate's column into the reused
  // row, which needs no new storage either.
  exec::ScanRowReaderTestPeer::InterpretPredicates interpret;
  exec::ScanRowReader interpreted(*scan);
  EXPECT_EQ(RejectAllocations(&interpreted), 0);
}

// The bound on a warm staged full-table aggregate: what a query costs
// beyond its rows (packets, edges, one image per page, the first laps of
// the ring before rows come back) spread over the 5,000 rows it emits.
// Allocating each row on the scan side costs at least 1 per row.
constexpr double kStagedSumAllocationsPerRow = 0.2;

TEST_F(ScanAllocTest, StagedSumAllocatesUnderBoundPerEmittedRow) {
  engine::StagedEngine engine(catalog_.get());
  auto plan = Plan("SELECT SUM(v), COUNT(*) FROM acct");
  exec::ExecContext ctx;
  ctx.catalog = catalog_.get();
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(engine.Execute(plan.get(), &ctx).ok());
  }
  constexpr int kQueries = 5;
  const int64_t before = Allocations();
  for (int q = 0; q < kQueries; ++q) {
    auto rows = engine.Execute(plan.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0][1].int_value(), kRows);
  }
  const double per_row = static_cast<double>(Allocations() - before) /
                         static_cast<double>(kQueries * kRows);
  EXPECT_LT(per_row, kStagedSumAllocationsPerRow);
  RecordProperty("allocations_per_row", std::to_string(per_row));
}

}  // namespace
}  // namespace stagedb
