// Heap files: unordered collections of records in a chain of slotted pages.
// One heap file per table; the fscan stages of the execution engine iterate
// these page by page.
#ifndef STAGEDB_STORAGE_HEAP_FILE_H_
#define STAGEDB_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace stagedb::storage {

/// A heap file over a buffer pool. Thread-safe for concurrent readers with a
/// single writer per call (internal mutex serializes structural changes).
class HeapFile {
 public:
  /// Creates a new empty heap file; allocates its first page.
  static StatusOr<std::unique_ptr<HeapFile>> Create(BufferPool* pool);
  /// Opens an existing heap file rooted at `first_page`.
  static StatusOr<std::unique_ptr<HeapFile>> Open(BufferPool* pool,
                                                  PageId first_page);

  /// Appends a record; returns its Rid.
  StatusOr<Rid> Insert(std::string_view record);
  /// Reads a record into `out`.
  Status Get(const Rid& rid, std::string* out) const;
  /// Deletes a record (Rids of other records stay valid).
  Status Delete(const Rid& rid);

  /// Overwrites the first `prefix.size()` bytes of the record at `rid` in
  /// place (exclusive page latch; the record must be at least that long).
  /// MVCC commit/abort uses this to rewrite version headers; it bumps
  /// version() so shared-scan page caches never serve a stale header.
  Status OverwritePrefix(const Rid& rid, std::string_view prefix);

  PageId first_page() const { return first_page_; }

  /// Monotone *data* mutation counter, bumped by every successful Insert /
  /// Delete / OverwritePrefix. Lets page-content caches (the
  /// shared-scan reuse window in engine/shared_scan.cc) detect that a cached
  /// copy may predate a mutation and fall back to the pool.
  ///
  /// Not to be confused with Catalog::version(), the *schema* epoch bumped by
  /// DDL that plan-cache validation keys on. This counter tracks row bytes
  /// only; MVCC visibility never reads it (visibility lives in the per-row
  /// version headers), and a schema change alone never bumps it.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Forward iterator over live records. Not stable under concurrent
  /// structural modification of the same pages.
  class Iterator {
   public:
    Iterator(const HeapFile* file, PageId page_id);
    /// Advances to the next live record; returns false at end.
    bool Next();
    const Rid& rid() const { return rid_; }
    const std::string& record() const { return record_; }
    /// Non-OK when iteration stopped because of an error (not end-of-file).
    const Status& status() const { return status_; }

   private:
    const HeapFile* file_;
    PageId page_id_;
    int next_slot_ = 0;
    Rid rid_;
    std::string record_;
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, first_page_); }

  /// Position-aware page read for cooperative scans: copies every live record
  /// of `page_id` into `records` (slot order) and reports the successor page
  /// in `*next` (kInvalidPageId at the tail). The page is fetched through the
  /// buffer pool on every call, so a cursor built on ReadPage survives page
  /// eviction between calls; the page latch is held shared for the copy, so
  /// concurrent DML never yields a torn record.
  Status ReadPage(PageId page_id, std::vector<std::string>* records,
                  PageId* next) const;

  /// Number of live records (walks the file).
  StatusOr<int64_t> CountRecords() const;

 private:
  HeapFile(BufferPool* pool, PageId first_page, PageId last_page)
      : pool_(pool), first_page_(first_page), last_page_(last_page) {}

  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }

  BufferPool* pool_;
  PageId first_page_;
  /// Tail of the page chain; moved only by Insert while appending.
  PageId last_page_ GUARDED_BY(append_mu_);
  std::atomic<uint64_t> version_{0};
  Mutex append_mu_;

  friend class Iterator;
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_HEAP_FILE_H_
