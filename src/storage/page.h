// Fixed-size pages: the unit of storage I/O and buffering.
#ifndef STAGEDB_STORAGE_PAGE_H_
#define STAGEDB_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "common/mutex.h"

namespace stagedb::storage {

using PageId = int32_t;
constexpr PageId kInvalidPageId = -1;
constexpr size_t kPageSize = 8192;

/// A record identifier: page + slot within the page.
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool operator==(const Rid& o) const {
    return page_id == o.page_id && slot == o.slot;
  }
  bool operator<(const Rid& o) const {
    return page_id != o.page_id ? page_id < o.page_id : slot < o.slot;
  }
  bool valid() const { return page_id != kInvalidPageId; }
};

/// An in-memory page frame. Pin counts and dirty bits are managed by the
/// buffer pool; operators access the raw bytes through data().
class Page {
 public:
  Page() { Reset(); }

  /// Empties the frame and zeroes its bytes (a new page starts blank).
  void Reset() {
    ResetHeader();
    std::memset(data_, 0, kPageSize);
  }
  /// Empties the frame but leaves its bytes, for a frame a disk read is
  /// about to overwrite whole.
  void ResetHeader() {
    page_id_ = kInvalidPageId;
    pin_count_ = 0;
    dirty_ = false;
  }

  char* data() { return data_; }
  const char* data() const { return data_; }

  PageId page_id() const { return page_id_; }
  void set_page_id(PageId id) { page_id_ = id; }

  int pin_count() const { return pin_count_; }
  void set_pin_count(int c) { pin_count_ = c; }

  bool dirty() const { return dirty_; }
  void set_dirty(bool d) { dirty_ = d; }

  /// Content latch: heap-file readers take it shared, mutators exclusive, so
  /// a scan never observes a half-written slot array. Held only between
  /// FetchPage and Unpin (the pin keeps the frame from being recycled while
  /// latched). The latch belongs to the frame, not the on-disk page, which is
  /// safe precisely because it is only ever held under a pin.
  SharedMutex& latch() const { return latch_; }

 private:
  char data_[kPageSize];
  PageId page_id_;
  int pin_count_;
  bool dirty_;
  mutable SharedMutex latch_;
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_PAGE_H_
