// Slotted-page layout for variable-length records.
//
// Layout:
//   [ header | slot array -> ...      ... <- record data ]
// Records grow from the end of the page backwards; the slot array grows
// forwards. A slot with length 0 is a deleted record (slot ids stay stable so
// Rids remain valid).
#ifndef STAGEDB_STORAGE_SLOTTED_PAGE_H_
#define STAGEDB_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "storage/page.h"

namespace stagedb::storage {

/// A view over a Page interpreting it with the slotted layout. Does not own
/// the page; latching is the caller's concern.
class SlottedPage {
 public:
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Formats a fresh page.
  void Init();

  /// Inserts a record; returns the slot id or ResourceExhausted if it does
  /// not fit.
  StatusOr<uint16_t> Insert(std::string_view record);

  /// Returns the record bytes in `slot` (NotFound for deleted/out-of-range).
  StatusOr<std::string_view> Get(uint16_t slot) const;

  /// Marks the slot deleted.
  Status Delete(uint16_t slot);

  /// Overwrites the first `prefix.size()` bytes of a live record in place
  /// (InvalidArgument if the record is shorter). MVCC uses this to rewrite
  /// the version header without relocating the row.
  Status OverwritePrefix(uint16_t slot, std::string_view prefix);

  uint16_t num_slots() const;
  /// Number of live (non-deleted) records.
  uint16_t live_records() const;
  /// Free bytes available for a new record (including its slot entry).
  size_t FreeSpace() const;

  PageId next_page() const;
  void set_next_page(PageId id);

 private:
  struct Header {
    uint16_t num_slots;
    uint16_t free_end;  // offset one past the end of free space
    PageId next_page;
  };
  struct Slot {
    uint16_t offset;
    uint16_t length;  // 0 = deleted
  };

  Header* header() { return reinterpret_cast<Header*>(page_->data()); }
  const Header* header() const {
    return reinterpret_cast<const Header*>(page_->data());
  }
  Slot* slot(uint16_t i) {
    return reinterpret_cast<Slot*>(page_->data() + sizeof(Header)) + i;
  }
  const Slot* slot(uint16_t i) const {
    return reinterpret_cast<const Slot*>(page_->data() + sizeof(Header)) + i;
  }

  Page* page_;
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_SLOTTED_PAGE_H_
