#include "engine/shared_scan.h"

#include <utility>
#include <vector>

namespace stagedb::engine {

/// Per-table elevator state. Lives for the lifetime of the manager; the heap
/// pointer is only dereferenced while a reader is attached (i.e. while a
/// query over the table is in flight, which keeps the table alive).
class TableScan {
 public:
  TableScan(const storage::HeapFile* heap, size_t window_pages)
      : heap_(heap),
        first_page_(heap->first_page()),
        window_pages_(window_pages),
        cursor_(heap->first_page()) {}

  /// An entry is only reusable for the heap file it was built from. Page ids
  /// are never recycled within a buffer pool, so a table dropped and
  /// recreated at the same HeapFile address always has a different first
  /// page — a mismatch tells the manager the entry is stale.
  bool ValidFor(storage::PageId first_page) const {
    return first_page_ == first_page;
  }

  int64_t Attach() {
    MutexLock lock(mu_);
    const int64_t id = next_reader_id_++;
    readers_[id] = Reader{cursor_, cursor_};
    ++stats_.attaches;
    ++stats_.active_readers;
    return id;
  }

  /// Detaches `reader_id` and drops the page it held, `*records`.
  void Detach(int64_t reader_id,
              std::shared_ptr<const storage::PageRecords>* records) {
    MutexLock lock(mu_);
    records->reset();
    DetachLocked(reader_id);
  }

  /// Replaces `*records`, the page `reader_id` held, with its next page.
  /// Returns false, with *records empty, at end-of-scan (reader detached)
  /// or on error (*status non-OK, reader stays attached).
  bool NextPage(int64_t reader_id,
                std::shared_ptr<const storage::PageRecords>* records,
                Status* status) {
    MutexLock lock(mu_);
    records->reset();  // under the mutex: see the image reuse below
    auto it = readers_.find(reader_id);
    if (it == readers_.end()) return false;  // completed earlier
    Reader& reader = it->second;
    const storage::PageId want = reader.next;
    std::shared_ptr<const storage::PageRecords> page;
    // A cached page is only served while the heap is at the version it was
    // read at: any DML since makes the image potentially stale, and the
    // reader must go back through the (latched) buffer-pool read.
    const uint64_t version = heap_->version();
    for (const CachedPage& cached : window_) {
      if (cached.id == want && cached.version == version) {
        page = cached.records;
        ++stats_.window_hits;
        break;
      }
    }
    if (page == nullptr) {
      // The elevator's physical read. Performed under the table mutex: a
      // heap-page read is short (buffer-pool hit or one I/O) and serializing
      // it keeps the window and cursor trivially consistent. A full window
      // drops its oldest image, and the read reuses it when no reader still
      // holds it. Readers get and drop pages only through their Cursor,
      // under this mutex, so a use count of one read here is exact and
      // every reader's last read of the image happened before it.
      std::shared_ptr<storage::PageRecords> fresh;
      if (window_.size() >= window_pages_) {
        if (window_.front().records.use_count() == 1) {
          fresh = std::move(window_.front().records);
        }
        window_.erase(window_.begin());
      }
      if (fresh == nullptr) fresh = std::make_shared<storage::PageRecords>();
      Status s = heap_->ReadPage(want, fresh.get());
      if (!s.ok()) {
        *status = std::move(s);
        return false;
      }
      window_.push_back(CachedPage{want, version, fresh});
      page = std::move(fresh);
      cursor_ = want;  // new readers attach at the elevator's head
      ++stats_.heap_page_reads;
    }
    // Advance circularly; wrapping back to the attach point ends the scan.
    const storage::PageId next = page->next_page();
    const storage::PageId wrapped =
        next == storage::kInvalidPageId ? first_page_ : next;
    if (wrapped == reader.attach) {
      DetachLocked(reader_id);  // this delivery is the reader's last page
    } else {
      reader.next = wrapped;
    }
    ++stats_.pages_delivered;
    *records = std::move(page);
    return true;
  }

  SharedScanStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  struct Reader {
    storage::PageId attach = storage::kInvalidPageId;
    storage::PageId next = storage::kInvalidPageId;
  };
  struct CachedPage {
    storage::PageId id;
    uint64_t version;  // heap version the page was read at
    std::shared_ptr<storage::PageRecords> records;  // readers get it const
  };

  void DetachLocked(int64_t reader_id) REQUIRES(mu_) {
    if (readers_.erase(reader_id) == 0) return;
    --stats_.active_readers;
    if (readers_.empty()) {
      // Last reader gone: drop the window and rewind the elevator so the
      // next (possibly solitary) scan starts at the first page, exactly like
      // a private scan.
      window_.clear();
      cursor_ = first_page_;
      ++stats_.cursor_resets;
    }
  }

  const storage::HeapFile* heap_;
  const storage::PageId first_page_;
  const size_t window_pages_;

  mutable Mutex mu_;
  // Attach point: last page physically read.
  storage::PageId cursor_ GUARDED_BY(mu_);
  std::map<int64_t, Reader> readers_ GUARDED_BY(mu_);
  /// Oldest first, at most window_pages_ entries: dropping the oldest moves
  /// a few pointers, and the vector keeps its storage across scans.
  std::vector<CachedPage> window_ GUARDED_BY(mu_);
  int64_t next_reader_id_ GUARDED_BY(mu_) = 1;
  SharedScanStats stats_ GUARDED_BY(mu_);
};

// ----------------------------------------------------------------- Cursor ---

SharedScanManager::Cursor& SharedScanManager::Cursor::operator=(
    Cursor&& o) noexcept {
  if (this != &o) {
    Detach();
    table_ = o.table_;
    reader_id_ = o.reader_id_;
    page_ = std::move(o.page_);
    status_ = std::move(o.status_);
    o.table_ = nullptr;
    o.reader_id_ = -1;
  }
  return *this;
}

const storage::PageRecords* SharedScanManager::Cursor::NextPage() {
  if (table_ == nullptr) return nullptr;
  Status status;
  if (table_->NextPage(reader_id_, &page_, &status)) return page_.get();
  if (!status.ok()) {
    status_ = std::move(status);
    Detach();
  } else {
    table_ = nullptr;  // clean end-of-scan: TableScan already detached us
    reader_id_ = -1;
  }
  return nullptr;
}

void SharedScanManager::Cursor::Detach() {
  if (table_ == nullptr) return;
  table_->Detach(reader_id_, &page_);
  table_ = nullptr;
  reader_id_ = -1;
}

// ------------------------------------------------------- SharedScanManager --

SharedScanManager::SharedScanManager(size_t window_pages)
    : window_pages_(window_pages == 0 ? 1 : window_pages) {}

SharedScanManager::~SharedScanManager() = default;

SharedScanManager::Cursor SharedScanManager::Attach(
    const storage::HeapFile* heap) {
  TableScan* table = nullptr;
  {
    MutexLock lock(mu_);
    auto& slot = tables_[heap];
    // Replace entries left behind by a dropped table whose HeapFile address
    // was reused by a new table (detected via the first page id; see
    // TableScan::ValidFor). Such an entry necessarily has no live readers —
    // they would have kept the old table alive.
    if (slot == nullptr || !slot->ValidFor(heap->first_page())) {
      slot = std::make_unique<TableScan>(heap, window_pages_);
    }
    table = slot.get();
  }
  Cursor cursor;
  cursor.table_ = table;
  cursor.reader_id_ = table->Attach();
  return cursor;
}

SharedScanStats SharedScanManager::StatsFor(
    const storage::HeapFile* heap) const {
  MutexLock lock(mu_);
  auto it = tables_.find(heap);
  return it == tables_.end() ? SharedScanStats{} : it->second->stats();
}

SharedScanStats SharedScanManager::TotalStats() const {
  MutexLock lock(mu_);
  SharedScanStats total;
  for (const auto& [heap, table] : tables_) {
    const SharedScanStats s = table->stats();
    total.attaches += s.attaches;
    total.active_readers += s.active_readers;
    total.heap_page_reads += s.heap_page_reads;
    total.pages_delivered += s.pages_delivered;
    total.window_hits += s.window_hits;
    total.cursor_resets += s.cursor_resets;
  }
  return total;
}

}  // namespace stagedb::engine
