// Allocation gates for the scan path (ctest label: storage). This binary
// replaces the global operator new with one that counts calls, so each case
// can state how many heap allocations a piece of the scan path makes:
//   * a heap scan of P pages allocates O(P), not O(rows): each page is one
//     image, and its records are views into it;
//   * a row a scan predicate rejects allocates nothing, compiled or
//     interpreted;
//   * a warm staged SELECT SUM(v), COUNT(*) allocates under a stated bound
//     per emitted row, because morsel rows circulate across the exchange
//     edge instead of being allocated by the scan and freed by the consumer;
//   * a hash join's build allocates only when its arena grows, O(log n) for
//     n build rows, and a warm staged join under an aggregate allocates
//     under a stated bound per joined row: build and probe rows stay in
//     their input batches, and joined rows are written into spare rows.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/shared_scan.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "exec/operators.h"
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
  // A pin allocates nothing (the pool's LRU list is intrusive), the image
  // lives in the iterator, and the record spans are reserved once, on the
  // first page, which no later page outgrows.
  EXPECT_LE(allocations, 1);
  RecordProperty("allocations", std::to_string(allocations));
}

TEST_F(HeapScanAllocTest, SharedScanWindowAllocatesPerPageNotPerRow) {
  // A window smaller than the table, so the scan wraps past it and each
  // read past the first kWindow reuses the image leaving the window.
  constexpr size_t kWindow = 4;
  ASSERT_GT(pages_.size(), 2 * kWindow);
  engine::SharedScanManager scans(kWindow);
  // The first attach builds the table's elevator; the second scan is the
  // steady state.
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t before = Allocations();
    auto cursor = scans.Attach(file_.get());
    int64_t rows = 0;
    while (const storage::PageRecords* page = cursor.NextPage()) {
      rows += static_cast<int64_t>(page->size());
    }
    const int64_t allocations = Allocations() - before;
    ASSERT_TRUE(cursor.status().ok());
    EXPECT_EQ(rows, kRows);
    if (pass == 1) {
      // The window's kWindow images and one span reserve each, and the
      // reader's attach; nothing per page beyond them.
      EXPECT_LE(allocations, 2 * static_cast<int64_t>(kWindow) + 1);
      RecordProperty("allocations", std::to_string(allocations));
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

// ------------------------------------------------------------ hash joins --

class JoinAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<storage::BufferPool>(&disk_, 512);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    for (const char* name : {"a", "b"}) {
      auto table = catalog_->CreateTable(
          name,
          Schema({{"k", TypeId::kInt64, ""}, {"v", TypeId::kInt64, ""}}));
      ASSERT_TRUE(table.ok());
      // Every key once on each side: n joined rows.
      for (int64_t i = 0; i < kRows; ++i) {
        ASSERT_TRUE(
            catalog_->InsertTuple(*table, {Value::Int(i), Value::Int(i % 7)})
                .ok());
      }
    }
  }

  std::unique_ptr<PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    optimizer::PlannerOptions opts;
    opts.join_algorithm = optimizer::PlannerOptions::JoinAlgo::kHash;
    optimizer::Planner planner(catalog_.get(), opts);
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  static const PhysicalPlan* FindHashJoin(const PhysicalPlan& plan) {
    if (plan.kind == PlanKind::kHashJoin) return &plan;
    for (const auto& child : plan.children) {
      if (const PhysicalPlan* join = FindHashJoin(*child)) return join;
    }
    return nullptr;
  }

  static constexpr int64_t kRows = 6000;
  storage::MemDiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

/// Allocations of a vector that doubles from one element until it holds
/// `n`: 1 + ceil(log2(n)).
int64_t DoublingGrowths(int64_t n) {
  int64_t growths = 1;
  for (int64_t capacity = 1; capacity < n; capacity *= 2) ++growths;
  return growths;
}

TEST_F(JoinAllocTest, BuildAllocatesOnlyForArenaGrowth) {
  auto plan = Plan("SELECT * FROM a JOIN b ON a.k = b.k");
  const PhysicalPlan* join = FindHashJoin(*plan);
  ASSERT_NE(join, nullptr);
  // The build rows as the staged driver hands them over: already decoded,
  // read in place.
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 7)});
  }
  const Tuple probe = {Value::Int(17), Value::Int(3)};
  exec::JoinTable table(*join);
  const int64_t before = Allocations();
  for (const Tuple& row : rows) ASSERT_TRUE(table.Build(row).ok());
  ASSERT_TRUE(table.Probe(probe).ok());  // ends the build: the bucket array
  const int64_t allocations = Allocations() - before;
  // The value arena (2 per row) and the hash-and-link vector each double as
  // they fill, and the first probe sizes the bucket array once.
  EXPECT_LE(allocations,
            DoublingGrowths(2 * kRows) + DoublingGrowths(kRows) + 1);
  RecordProperty("allocations", std::to_string(allocations));
  Tuple joined;
  auto match = table.NextMatch(&joined);
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(*match);
  EXPECT_EQ(joined, (Tuple{Value::Int(17), Value::Int(3), Value::Int(17),
                           Value::Int(3)}));
}

// The bound on a warm staged join under an aggregate, per joined row: what
// the query costs beyond its rows (packets, edges, one image per page, the
// first laps of each ring, the join table's arena growth) spread over the
// 6,000 rows it joins. A joined row allocated per match costs 1 per row, and
// a node-based build table at least 3 per build row more.
constexpr double kStagedJoinAllocationsPerRow = 0.4;

TEST_F(JoinAllocTest, StagedJoinAllocatesUnderBoundPerJoinedRow) {
  engine::StagedEngine engine(catalog_.get());
  auto plan = Plan("SELECT COUNT(*), SUM(b.v) FROM a JOIN b ON a.k = b.k");
  ASSERT_NE(FindHashJoin(*plan), nullptr);
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
    EXPECT_EQ((*rows)[0][0].int_value(), kRows);
  }
  const double per_row = static_cast<double>(Allocations() - before) /
                         static_cast<double>(kQueries * kRows);
  EXPECT_LT(per_row, kStagedJoinAllocationsPerRow);
  RecordProperty("allocations_per_row", std::to_string(per_row));
}

}  // namespace
}  // namespace stagedb
