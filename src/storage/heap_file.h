// Heap files: unordered collections of records in a chain of slotted pages.
// One heap file per table. Every scan (the fscan stages of the execution
// engine, the Volcano SeqScan, DML, index backfill, vacuum and recovery)
// reads it a page at a time through HeapFile::ReadPage, as one private image
// of the page whose live records are views into that image.
#ifndef STAGEDB_STORAGE_HEAP_FILE_H_
#define STAGEDB_STORAGE_HEAP_FILE_H_

#include <array>
#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/slotted_page.h"

namespace stagedb::storage {

/// The live records of one heap page, as HeapFile::ReadPage left them: a
/// private image of the page and a span per live record into that image.
/// Reusable: each ReadPage into it overwrites the image and the spans, so a
/// scan that keeps one PageRecords allocates nothing per record, and per
/// page only when the span list grows.
class PageRecords {
 public:
  // User-provided so that value-initialization (make_shared) does not zero
  // the image: ReadPage overwrites it before any record is read.
  PageRecords() {}

  size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }
  /// Record i's bytes; valid while this object is neither destroyed nor
  /// read into again.
  std::string_view operator[](size_t i) const {
    return std::string_view(image_.data() + spans_[i].offset,
                            spans_[i].length);
  }
  /// Record i's slot on its page.
  uint16_t slot(size_t i) const { return spans_[i].slot; }
  /// The page's successor in the heap chain (kInvalidPageId at the tail).
  PageId next_page() const { return next_page_; }

 private:
  friend class HeapFile;
  std::array<char, kPageSize> image_;
  std::vector<RecordSpan> spans_;
  PageId next_page_ = kInvalidPageId;
};

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

  /// Forward iterator over live records: a thin cursor over ReadPage. Each
  /// page is pinned once and imaged under the shared page latch, and Next()
  /// then walks that image without touching the pool. The records of one
  /// page are therefore a consistent snapshot of that page; a record added
  /// to a page after its image was taken is not returned.
  class Iterator {
   public:
    Iterator(const HeapFile* file, PageId page_id);
    /// Advances to the next live record; returns false at end.
    bool Next();
    /// The current record and its rid; the record is valid until the next
    /// call to Next().
    Rid rid() const { return Rid{page_id_, page_.slot(pos_ - 1)}; }
    std::string_view record() const { return page_[pos_ - 1]; }
    /// Non-OK when iteration stopped because of an error (not end-of-file).
    const Status& status() const { return status_; }

   private:
    const HeapFile* file_;
    PageId page_id_ = kInvalidPageId;  // page that page_ images
    PageId next_page_;                 // next page to read
    PageRecords page_;
    size_t pos_ = 0;  // page_[pos_ - 1] is the current record
    Status status_;
  };

  Iterator Scan() const { return Iterator(this, first_page_); }

  /// Reads `page_id` into `*records`: one copy of the page image, then the
  /// live records in slot order and the successor page. This is the only
  /// walk over a heap page's slots: Iterator, the staged fscan driver and
  /// the shared-scan window all read a page at a time through it. The page
  /// is pinned for the copy only, so a cursor built on ReadPage survives
  /// page eviction between calls; the page latch is held shared for the
  /// copy, so concurrent DML never yields a torn record. A slot whose span
  /// leaves the page is Corruption. On any error `*records` is left empty.
  Status ReadPage(PageId page_id, PageRecords* records) const;

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
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_HEAP_FILE_H_
