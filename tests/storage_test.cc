// Tests for the storage manager: disk managers, buffer pool, slotted pages,
// heap files, B+-tree, WAL, and transactions.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "recording_applier.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/slotted_page.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace stagedb::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/stagedb_" + name + "_" +
         std::to_string(::getpid());
}

// ------------------------------------------------------------ DiskManager ---

TEST(MemDiskTest, AllocateReadWrite) {
  MemDiskManager disk;
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  char buf[kPageSize] = {};
  buf[0] = 'x';
  ASSERT_TRUE(disk.WritePage(*id, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(*id, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(disk.reads(), 1);
  EXPECT_EQ(disk.writes(), 1);
}

TEST(MemDiskTest, RejectsUnallocatedPage) {
  MemDiskManager disk;
  char buf[kPageSize];
  EXPECT_FALSE(disk.ReadPage(3, buf).ok());
  EXPECT_FALSE(disk.WritePage(-1, buf).ok());
}

TEST(MemDiskTest, LatencyInjection) {
  VirtualClock clock;
  MemDiskManager disk(/*latency_micros=*/500, &clock);
  auto id = disk.AllocatePage();
  char buf[kPageSize] = {};
  ASSERT_TRUE(disk.ReadPage(*id, buf).ok());
  EXPECT_EQ(clock.NowMicros(), 500);
  ASSERT_TRUE(disk.WritePage(*id, buf).ok());
  EXPECT_EQ(clock.NowMicros(), 1000);
}

TEST(FileDiskTest, PersistsAcrossReopen) {
  const std::string path = TempPath("filedisk");
  std::remove(path.c_str());
  {
    auto disk_or = FileDiskManager::Open(path);
    ASSERT_TRUE(disk_or.ok());
    auto& disk = *disk_or;
    auto id = disk->AllocatePage();
    ASSERT_TRUE(id.ok());
    char buf[kPageSize] = {};
    std::snprintf(buf, sizeof(buf), "persistent data");
    ASSERT_TRUE(disk->WritePage(*id, buf).ok());
  }
  {
    auto disk_or = FileDiskManager::Open(path);
    ASSERT_TRUE(disk_or.ok());
    EXPECT_EQ((*disk_or)->num_pages(), 1);
    char out[kPageSize];
    ASSERT_TRUE((*disk_or)->ReadPage(0, out).ok());
    EXPECT_STREQ(out, "persistent data");
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- BufferPool ---

TEST(BufferPoolTest, FetchCachesPages) {
  MemDiskManager disk;
  BufferPool pool(&disk, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  const PageId id = (*page)->page_id();
  (*page)->data()[0] = 'a';
  ASSERT_TRUE(pool.Unpin(id, true).ok());

  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->data()[0], 'a');
  EXPECT_EQ(pool.hits(), 1);
  ASSERT_TRUE(pool.Unpin(id, false).ok());
  EXPECT_EQ(disk.reads(), 0);  // never went to disk
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  MemDiskManager disk;
  BufferPool pool(&disk, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    (*page)->data()[0] = static_cast<char>('a' + i);
    ids.push_back((*page)->page_id());
    ASSERT_TRUE(pool.Unpin(ids.back(), true).ok());
  }
  // Page 0 was evicted; fetching it reads from disk with its data intact.
  auto page = pool.FetchPage(ids[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->data()[0], 'a');
  ASSERT_TRUE(pool.Unpin(ids[0], false).ok());
  EXPECT_GE(disk.writes(), 1);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  MemDiskManager disk;
  BufferPool pool(&disk, 2);
  auto p1 = pool.NewPage();
  auto p2 = pool.NewPage();
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Both pinned; a third page cannot be brought in.
  auto p3 = pool.NewPage();
  EXPECT_FALSE(p3.ok());
  EXPECT_TRUE(p3.status().IsResourceExhausted());
  ASSERT_TRUE(pool.Unpin((*p1)->page_id(), false).ok());
  auto p4 = pool.NewPage();
  EXPECT_TRUE(p4.ok());
}

TEST(BufferPoolTest, UnpinErrorsAreReported) {
  MemDiskManager disk;
  BufferPool pool(&disk, 2);
  EXPECT_FALSE(pool.Unpin(99, false).ok());
  auto p = pool.NewPage();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(pool.Unpin((*p)->page_id(), false).ok());
  EXPECT_FALSE(pool.Unpin((*p)->page_id(), false).ok());  // double unpin
}

TEST(BufferPoolTest, FlushAllPersistsEverything) {
  MemDiskManager disk;
  BufferPool pool(&disk, 8);
  auto p = pool.NewPage();
  ASSERT_TRUE(p.ok());
  (*p)->data()[10] = 'z';
  const PageId id = (*p)->page_id();
  ASSERT_TRUE(pool.Unpin(id, true).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(id, out).ok());
  EXPECT_EQ(out[10], 'z');
}

TEST(BufferPoolTest, ConcurrentFetchesAreSafe) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto p = pool.NewPage();
    ASSERT_TRUE(p.ok());
    ids.push_back((*p)->page_id());
    ASSERT_TRUE(pool.Unpin(ids.back(), true).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 500; ++i) {
        PageId id = ids[rng.Uniform(ids.size())];
        auto p = pool.FetchPage(id);
        if (!p.ok() || !pool.Unpin(id, false).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_pages(), 0);
}

// ------------------------------------------------------------ SlottedPage ---

TEST(SlottedPageTest, InsertAndGet) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  auto s1 = sp.Insert("hello");
  auto s2 = sp.Insert("world!");
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*sp.Get(*s1), "hello");
  EXPECT_EQ(*sp.Get(*s2), "world!");
  EXPECT_EQ(sp.num_slots(), 2);
  EXPECT_EQ(sp.live_records(), 2);
}

TEST(SlottedPageTest, DeleteKeepsOtherSlotsStable) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  auto s1 = sp.Insert("a");
  auto s2 = sp.Insert("b");
  ASSERT_TRUE(sp.Delete(*s1).ok());
  EXPECT_FALSE(sp.Get(*s1).ok());
  EXPECT_EQ(*sp.Get(*s2), "b");
  EXPECT_EQ(sp.live_records(), 1);
}

TEST(SlottedPageTest, FillsUntilResourceExhausted) {
  Page page;
  SlottedPage sp(&page);
  sp.Init();
  std::string record(100, 'x');
  int inserted = 0;
  while (true) {
    auto s = sp.Insert(record);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 8 KiB page, 100-byte records + 4-byte slots: expect ~78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
}

// --------------------------------------------------------------- HeapFile ---

TEST(HeapFileTest, InsertGetDeleteRoundTrip) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;

  auto rid = file->Insert("record one");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(file->Get(*rid, &out).ok());
  EXPECT_EQ(out, "record one");
  ASSERT_TRUE(file->Delete(*rid).ok());
  EXPECT_TRUE(file->Get(*rid, &out).IsNotFound());
}

TEST(HeapFileTest, SpillsAcrossPages) {
  MemDiskManager disk;
  BufferPool pool(&disk, 32);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  const std::string record(1000, 'r');
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    auto rid = file->Insert(record + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  std::set<PageId> pages;
  for (const Rid& r : rids) pages.insert(r.page_id);
  EXPECT_GT(pages.size(), 1u);  // more than one page used
  auto count = file->CountRecords();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 50);
}

TEST(HeapFileTest, ScanVisitsAllLiveRecordsInOrder) {
  MemDiskManager disk;
  BufferPool pool(&disk, 32);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  std::vector<Rid> rids;
  for (int i = 0; i < 20; ++i) {
    auto rid = file->Insert("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(file->Delete(rids[3]).ok());
  ASSERT_TRUE(file->Delete(rids[17]).ok());
  std::vector<std::string> seen;
  auto it = file->Scan();
  while (it.Next()) seen.emplace_back(it.record());
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(seen.size(), 18u);
  EXPECT_EQ(seen[0], "rec0");
  EXPECT_EQ(seen[3], "rec4");  // rec3 deleted
}

// ReadPage images the page once and lists its live records in slot order:
// deleted slots are skipped, and every span and slot matches a direct Get.
TEST(HeapFileTest, ReadPageSkipsDeletedSlots) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) {
    auto rid = file->Insert("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (int dead : {0, 4, 5, 9}) ASSERT_TRUE(file->Delete(rids[dead]).ok());

  PageRecords page;
  ASSERT_TRUE(file->ReadPage(file->first_page(), &page).ok());
  EXPECT_EQ(page.next_page(), kInvalidPageId);
  const std::vector<int> live = {1, 2, 3, 6, 7, 8};
  ASSERT_EQ(page.size(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(page.slot(i), rids[live[i]].slot);
    EXPECT_EQ(page[i], "rec" + std::to_string(live[i]));
  }
  EXPECT_EQ(pool.pinned_pages(), 0);
}

// A slot whose span leaves the page is Corruption, for the page walk, the
// iterator over it and a direct Get, instead of a read past the page. The
// forgery writes the slotted layout's directory entry by hand: a 2-byte
// slot count, 2-byte free end and 4-byte next page, then (offset, length)
// pairs of 2 bytes each.
TEST(HeapFileTest, ReadPageRejectsSlotSpanLeavingThePage) {
  MemDiskManager disk;
  BufferPool pool(&disk, 16);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  auto rid = file->Insert("victim");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(file->Insert("bystander").ok());
  const auto forge = [&](uint16_t offset, uint16_t length) {
    auto page_or = pool.FetchPage(rid->page_id);
    ASSERT_TRUE(page_or.ok());
    char* entry = (*page_or)->data() + 8 + 4 * rid->slot;
    std::memcpy(entry, &offset, sizeof(offset));
    std::memcpy(entry + 2, &length, sizeof(length));
    ASSERT_TRUE(pool.Unpin(rid->page_id, /*dirty=*/true).ok());
  };

  forge(static_cast<uint16_t>(kPageSize - 4), 64);  // runs off the end
  PageRecords page;
  EXPECT_EQ(file->ReadPage(rid->page_id, &page).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(page.empty());
  std::string out;
  EXPECT_EQ(file->Get(*rid, &out).code(), StatusCode::kCorruption);
  auto it = file->Scan();
  EXPECT_FALSE(it.Next());
  EXPECT_EQ(it.status().code(), StatusCode::kCorruption);

  forge(2, 6);  // inside the header and slot directory
  EXPECT_EQ(file->ReadPage(rid->page_id, &page).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(pool.pinned_pages(), 0);
}

// The iterator pins each page once and drains a copy of its live records,
// so a full scan costs one pool fetch per page, not one per row. Rids are
// reported per record, including around deleted slots.
TEST(HeapFileTest, IteratorFetchesEachPageOnce) {
  MemDiskManager disk;
  BufferPool pool(&disk, 64);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  std::vector<Rid> rids;
  std::set<PageId> pages;
  for (int i = 0; i < 600; ++i) {
    auto rid = file->Insert("row" + std::to_string(i) + std::string(100, '.'));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
    pages.insert(rid->page_id);
  }
  ASSERT_GT(pages.size(), 4u);
  std::vector<Rid> live;
  for (size_t i = 0; i < rids.size(); ++i) {
    if (i % 5 == 2) {
      ASSERT_TRUE(file->Delete(rids[i]).ok());
    } else {
      live.push_back(rids[i]);
    }
  }

  const int64_t fetches_before = pool.hits() + pool.misses();
  std::vector<Rid> seen;
  auto it = file->Scan();
  while (it.Next()) {
    seen.push_back(it.rid());
    std::string direct;
    ASSERT_TRUE(file->Get(it.rid(), &direct).ok());
    EXPECT_EQ(it.record(), direct);
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(seen, live);
  // One fetch per page for the scan plus one per Get above.
  EXPECT_EQ(pool.hits() + pool.misses() - fetches_before,
            static_cast<int64_t>(pages.size() + live.size()));

  const int64_t count_before = pool.hits() + pool.misses();
  auto count = file->CountRecords();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<int64_t>(live.size()));
  EXPECT_EQ(pool.hits() + pool.misses() - count_before,
            static_cast<int64_t>(pages.size()));
  EXPECT_EQ(pool.pinned_pages(), 0);
}

// A scan racing an appender sees every record whole, in insertion order,
// and at least every record appended before the scan started.
TEST(HeapFileTest, ScanWhileAppendingSeesWholeRecords) {
  MemDiskManager disk;
  BufferPool pool(&disk, 64);
  auto file_or = HeapFile::Create(&pool);
  ASSERT_TRUE(file_or.ok());
  auto& file = *file_or;
  const auto make = [](int i) {
    return std::to_string(i) + ":" + std::string(40 + i % 60, 'a' + i % 26);
  };
  constexpr int kRows = 1500;
  std::atomic<int> appended{0};
  std::thread writer([&] {
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(file->Insert(make(i)).ok());
      appended.store(i + 1, std::memory_order_release);
    }
  });
  int scans = 0;
  while (appended.load(std::memory_order_acquire) < kRows || scans < 2) {
    const int floor = appended.load(std::memory_order_acquire);
    int expect = 0;
    auto it = file->Scan();
    while (it.Next()) {
      ASSERT_EQ(it.record(), make(expect)) << "record " << expect;
      ++expect;
    }
    ASSERT_TRUE(it.status().ok());
    EXPECT_GE(expect, floor);
    ++scans;
  }
  writer.join();
}

TEST(HeapFileTest, OpenFindsExistingChain) {
  MemDiskManager disk;
  BufferPool pool(&disk, 32);
  PageId first;
  {
    auto file_or = HeapFile::Create(&pool);
    ASSERT_TRUE(file_or.ok());
    first = (*file_or)->first_page();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*file_or)->Insert(std::string(1000, 'x')).ok());
    }
  }
  auto reopened = HeapFile::Open(&pool, first);
  ASSERT_TRUE(reopened.ok());
  auto count = (*reopened)->CountRecords();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 30);
  // Appends go to the tail of the re-discovered chain.
  ASSERT_TRUE((*reopened)->Insert("tail").ok());
  EXPECT_EQ(*(*reopened)->CountRecords(), 31);
}

// ------------------------------------------------------------------ BTree ---

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<MemDiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 256);
    auto t = BPlusTree::Create(pool_.get());
    ASSERT_TRUE(t.ok());
    tree_ = std::move(*t);
  }
  std::unique_ptr<MemDiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BTreeTest, InsertAndGet) {
  ASSERT_TRUE(tree_->Insert(42, Rid{1, 2}).ok());
  auto rid = tree_->Get(42);
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid->page_id, 1);
  EXPECT_EQ(rid->slot, 2);
  EXPECT_TRUE(tree_->Get(43).status().IsNotFound());
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(7, Rid{1, 0}).ok());
  EXPECT_EQ(tree_->Insert(7, Rid{1, 1}).code(), StatusCode::kAlreadyExists);
}

TEST_F(BTreeTest, ManyKeysSplitAndRemainSorted) {
  constexpr int kN = 20000;
  Rng rng(3);
  std::vector<int64_t> keys(kN);
  for (int i = 0; i < kN; ++i) keys[i] = i;
  // Shuffle insert order.
  for (int i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree_->Insert(k, Rid{static_cast<PageId>(k), 0}).ok());
  }
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  for (int64_t k = 0; k < kN; k += 997) {
    auto rid = tree_->Get(k);
    ASSERT_TRUE(rid.ok()) << k;
    EXPECT_EQ(rid->page_id, static_cast<PageId>(k));
  }
}

TEST_F(BTreeTest, RangeScanReturnsSortedWindow) {
  for (int64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree_->Insert(k * 2, Rid{static_cast<PageId>(k), 0}).ok());
  }
  std::vector<std::pair<int64_t, Rid>> out;
  ASSERT_TRUE(tree_->Scan(100, 200, &out).ok());
  ASSERT_EQ(out.size(), 51u);  // 100,102,...,200
  EXPECT_EQ(out.front().first, 100);
  EXPECT_EQ(out.back().first, 200);
  EXPECT_TRUE(std::is_sorted(
      out.begin(), out.end(),
      [](auto& a, auto& b) { return a.first < b.first; }));
}

TEST_F(BTreeTest, ScanAcrossLeafBoundaries) {
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Rid{0, 0}).ok());
  }
  std::vector<std::pair<int64_t, Rid>> out;
  ASSERT_TRUE(tree_->Scan(0, 4999, &out).ok());
  EXPECT_EQ(out.size(), 5000u);
}

TEST_F(BTreeTest, DeleteRemovesKey) {
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree_->Insert(k, Rid{0, 0}).ok());
  }
  ASSERT_TRUE(tree_->Delete(500).ok());
  EXPECT_TRUE(tree_->Get(500).status().IsNotFound());
  EXPECT_TRUE(tree_->Delete(500).IsNotFound());
  std::vector<std::pair<int64_t, Rid>> out;
  ASSERT_TRUE(tree_->Scan(499, 501, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(BTreeTest, RandomisedDifferentialAgainstStdMap) {
  Rng rng(11);
  std::map<int64_t, Rid> model;
  for (int i = 0; i < 30000; ++i) {
    const int64_t key = rng.UniformRange(0, 4000);
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      Rid rid{static_cast<PageId>(key % 100), static_cast<uint16_t>(i % 100)};
      Status s = tree_->Insert(key, rid);
      if (model.count(key)) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(s.ok());
        model[key] = rid;
      }
    } else if (op == 1) {
      Status s = tree_->Delete(key);
      EXPECT_EQ(s.ok(), model.erase(key) > 0);
    } else {
      auto rid = tree_->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(rid.status().IsNotFound());
      } else {
        ASSERT_TRUE(rid.ok());
        EXPECT_EQ(*rid, it->second);
      }
    }
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  // Full scan equals the model.
  std::vector<std::pair<int64_t, Rid>> out;
  ASSERT_TRUE(tree_->Scan(INT64_MIN, INT64_MAX, &out).ok());
  ASSERT_EQ(out.size(), model.size());
  auto mit = model.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, mit->first);
    EXPECT_EQ(v, mit->second);
    ++mit;
  }
}

// -------------------------------------------------------------------- WAL ---

TEST(WalTest, AppendAssignsMonotonicLsns) {
  WriteAheadLog wal;
  WalRecord r;
  r.txn_id = 1;
  r.type = WalRecord::Type::kBegin;
  auto l1 = wal.Append(r);
  auto l2 = wal.Append(r);
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_LT(*l1, *l2);
  EXPECT_EQ(wal.num_records(), 2);
}

TEST(WalTest, ReplayVisitsInOrder) {
  WriteAheadLog wal;
  for (int i = 0; i < 5; ++i) {
    WalRecord r;
    r.txn_id = i;
    r.type = WalRecord::Type::kBegin;
    ASSERT_TRUE(wal.Append(r).ok());
  }
  int64_t last = 0;
  ASSERT_TRUE(wal.Replay([&](const WalRecord& r) {
                    EXPECT_GT(r.lsn, last);
                    last = r.lsn;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(last, 5);
}

TEST(WalTest, FileBackedSurvivesReopen) {
  const std::string path = TempPath("wal");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    WalRecord r;
    r.txn_id = 9;
    r.type = WalRecord::Type::kInsert;
    r.table_id = 3;
    r.after = "row-image";
    ASSERT_TRUE((*wal)->Append(r).ok());
    r.type = WalRecord::Type::kCommit;
    ASSERT_TRUE((*wal)->Append(r).ok());
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->num_records(), 2);
  auto committed = (*wal)->CommittedTxns();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0], 9);
  bool saw_insert = false;
  ASSERT_TRUE((*wal)
                  ->Replay([&](const WalRecord& r) {
                    if (r.type == WalRecord::Type::kInsert) {
                      saw_insert = true;
                      EXPECT_EQ(r.after, "row-image");
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_TRUE(saw_insert);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- Transactions ---

TEST(TxnTest, ExclusiveLockBlocksSecondWriter) {
  LockManager lm(/*timeout_micros=*/20000);
  ASSERT_TRUE(lm.AcquireExclusive(1, 0).ok());
  // While txn 1 holds table 0, txn 2 can neither write nor read it; the wait
  // times out as Aborted (the caller's deadlock resolution).
  EXPECT_TRUE(lm.AcquireExclusive(2, 0).IsAborted());
  EXPECT_TRUE(lm.AcquireShared(2, 0).IsAborted());
  // Locks are per table.
  ASSERT_TRUE(lm.AcquireExclusive(2, 1).ok());
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.AcquireExclusive(2, 0).ok());
  EXPECT_EQ(lm.locked_tables(), 2u);
  lm.ReleaseAll(2);
  EXPECT_EQ(lm.locked_tables(), 0u);
}

TEST(TxnTest, SharedLocksCoexistExclusiveWaits) {
  LockManager lm(/*timeout_micros=*/20000);
  ASSERT_TRUE(lm.AcquireShared(1, 5).ok());
  ASSERT_TRUE(lm.AcquireShared(2, 5).ok());
  EXPECT_TRUE(lm.AcquireExclusive(3, 5).IsAborted());
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  EXPECT_TRUE(lm.AcquireExclusive(3, 5).ok());
  EXPECT_EQ(lm.locked_tables(), 1u);
  lm.ReleaseAll(3);
  EXPECT_EQ(lm.locked_tables(), 0u);
}

TEST(TxnTest, SharedToExclusiveUpgrade) {
  LockManager lm(/*timeout_micros=*/20000);
  ASSERT_TRUE(lm.AcquireShared(1, 0).ok());
  ASSERT_TRUE(lm.AcquireExclusive(1, 0).ok());  // self-upgrade
  lm.ReleaseAll(1);
}

TEST(TxnTest, ExclusiveReleaseWakesWaiter) {
  LockManager lm(/*timeout_micros=*/2000000);
  ASSERT_TRUE(lm.AcquireExclusive(1, 0).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    if (lm.AcquireExclusive(2, 0).ok()) acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(TxnTest, WaitingWriterBlocksNewReaders) {
  // Writer preference: once a writer is queued, fresh shared requests must
  // wait behind it, or overlapping scans starve DML forever.
  LockManager lm(/*timeout_micros=*/5000000);
  ASSERT_TRUE(lm.AcquireShared(1, 0).ok());
  std::atomic<bool> writer_in{false};
  std::atomic<bool> reader_in{false};
  std::thread writer([&] {
    if (lm.AcquireExclusive(2, 0).ok()) writer_in = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread reader([&] {
    if (lm.AcquireShared(3, 0).ok()) reader_in = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Only a shared lock is held, yet the new reader must be queued behind
  // the waiting writer (without writer preference it is granted at once).
  EXPECT_FALSE(reader_in.load());
  EXPECT_FALSE(writer_in.load());
  lm.ReleaseAll(1);  // the writer goes first...
  writer.join();
  EXPECT_TRUE(writer_in.load());
  lm.ReleaseAll(2);  // ...then the queued reader
  reader.join();
  EXPECT_TRUE(reader_in.load());
  lm.ReleaseAll(3);
  EXPECT_EQ(lm.locked_tables(), 0u);
}

TEST(TxnTest, RecoveryReplaysOnlyCommittedTransactions) {
  using Type = WalRecord::Type;
  using test::TxnRecord;
  WriteAheadLog wal;
  // Txn 1 commits an insert, an update and a delete; txn 2 is still in
  // flight at the crash.
  for (WalRecord r :
       {TxnRecord(Type::kBegin, 1), TxnRecord(Type::kInsert, 1, "", "a"),
        TxnRecord(Type::kBegin, 2), TxnRecord(Type::kInsert, 2, "", "ghost"),
        TxnRecord(Type::kUpdate, 1, "a", "b"),
        TxnRecord(Type::kDelete, 1, "old"), TxnRecord(Type::kCommit, 1),
        TxnRecord(Type::kDelete, 2, "b")}) {
    ASSERT_TRUE(wal.Append(std::move(r)).ok());
  }
  TransactionManager recovered(&wal);
  test::RecordingApplier applier;
  RecoveryStats stats;
  ASSERT_TRUE(recovered.Recover(&applier, &stats).ok());
  EXPECT_EQ(applier.ops,
            (std::vector<std::string>{"insert 0 a", "update 0 a -> b",
                                      "delete 0 old"}));
  EXPECT_EQ(stats.committed_txns, 1);
  EXPECT_EQ(stats.loser_txns, 1);
  EXPECT_EQ(stats.applied_records, 3);
}

}  // namespace
}  // namespace stagedb::storage
