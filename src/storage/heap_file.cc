#include "storage/heap_file.h"

#include "storage/slotted_page.h"

namespace stagedb::storage {

// Latching protocol: every access to a page's bytes happens between FetchPage
// and Unpin with the frame latch held — shared for readers (Get, scans,
// ReadPage), exclusive for mutators (Insert, Delete, OverwritePrefix). The pin is what
// keeps the frame from being recycled while the latch is held.

StatusOr<std::unique_ptr<HeapFile>> HeapFile::Create(BufferPool* pool) {
  auto page_or = pool->NewPage();
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  sp.Init();
  const PageId id = page->page_id();
  STAGEDB_RETURN_IF_ERROR(pool->Unpin(id, /*dirty=*/true));
  return std::unique_ptr<HeapFile>(new HeapFile(pool, id, id));
}

StatusOr<std::unique_ptr<HeapFile>> HeapFile::Open(BufferPool* pool,
                                                   PageId first_page) {
  // Find the last page by walking the chain.
  PageId last = first_page;
  while (true) {
    auto page_or = pool->FetchPage(last);
    if (!page_or.ok()) return page_or.status();
    SlottedPage sp(*page_or);
    const PageId next = sp.next_page();
    STAGEDB_RETURN_IF_ERROR(pool->Unpin(last, false));
    if (next == kInvalidPageId) break;
    last = next;
  }
  return std::unique_ptr<HeapFile>(new HeapFile(pool, first_page, last));
}

StatusOr<Rid> HeapFile::Insert(std::string_view record) {
  MutexLock lock(append_mu_);
  auto page_or = pool_->FetchPage(last_page_);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  StatusOr<uint16_t> slot_or = uint16_t{0};
  {
    ExclusiveLock latch(page->latch());
    slot_or = sp.Insert(record);
  }
  if (slot_or.ok()) {
    const Rid rid{page->page_id(), *slot_or};
    STAGEDB_RETURN_IF_ERROR(pool_->Unpin(page->page_id(), true));
    BumpVersion();
    return rid;
  }
  if (!slot_or.status().IsResourceExhausted()) {
    STAGEDB_RETURN_IF_ERROR(pool_->Unpin(page->page_id(), false));
    return slot_or.status();
  }
  // Page full: chain a new page. The fresh page is formatted and filled
  // before set_next_page publishes it to in-flight scans.
  auto new_or = pool_->NewPage();
  if (!new_or.ok()) {
    STAGEDB_RETURN_IF_ERROR(pool_->Unpin(page->page_id(), false));
    return new_or.status();
  }
  Page* fresh = *new_or;
  SlottedPage fresh_sp(fresh);
  StatusOr<uint16_t> slot2_or = uint16_t{0};
  {
    ExclusiveLock latch(fresh->latch());
    fresh_sp.Init();
    slot2_or = fresh_sp.Insert(record);
  }
  {
    ExclusiveLock latch(page->latch());
    sp.set_next_page(fresh->page_id());
  }
  STAGEDB_RETURN_IF_ERROR(pool_->Unpin(page->page_id(), true));
  last_page_ = fresh->page_id();
  if (!slot2_or.ok()) {
    STAGEDB_RETURN_IF_ERROR(pool_->Unpin(fresh->page_id(), true));
    return slot2_or.status();
  }
  const Rid rid{fresh->page_id(), *slot2_or};
  STAGEDB_RETURN_IF_ERROR(pool_->Unpin(fresh->page_id(), true));
  BumpVersion();
  return rid;
}

Status HeapFile::Get(const Rid& rid, std::string* out) const {
  auto page_or = pool_->FetchPage(rid.page_id);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  Status status;
  {
    SharedLock latch(page->latch());
    auto rec_or = sp.Get(rid.slot);
    if (rec_or.ok()) {
      out->assign(rec_or->data(), rec_or->size());
    } else {
      status = rec_or.status();
    }
  }
  if (!status.ok()) {
    STAGEDB_RETURN_IF_ERROR(pool_->Unpin(rid.page_id, false));
    return status;
  }
  return pool_->Unpin(rid.page_id, false);
}

Status HeapFile::Delete(const Rid& rid) {
  auto page_or = pool_->FetchPage(rid.page_id);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  Status s;
  {
    ExclusiveLock latch(page->latch());
    s = sp.Delete(rid.slot);
  }
  STAGEDB_RETURN_IF_ERROR(pool_->Unpin(rid.page_id, s.ok()));
  if (s.ok()) BumpVersion();
  return s;
}

Status HeapFile::OverwritePrefix(const Rid& rid, std::string_view prefix) {
  auto page_or = pool_->FetchPage(rid.page_id);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  Status s;
  {
    ExclusiveLock latch(page->latch());
    s = sp.OverwritePrefix(rid.slot, prefix);
  }
  STAGEDB_RETURN_IF_ERROR(pool_->Unpin(rid.page_id, s.ok()));
  if (s.ok()) BumpVersion();
  return s;
}

StatusOr<int64_t> HeapFile::CountRecords() const {
  int64_t n = 0;
  Iterator it = Scan();
  while (it.Next()) ++n;
  if (!it.status().ok()) return it.status();
  return n;
}

HeapFile::Iterator::Iterator(const HeapFile* file, PageId page_id)
    : file_(file), page_id_(page_id) {}

bool HeapFile::Iterator::Next() {
  while (page_id_ != kInvalidPageId) {
    auto page_or = file_->pool_->FetchPage(page_id_);
    if (!page_or.ok()) {
      status_ = page_or.status();
      return false;
    }
    Page* page = *page_or;
    SlottedPage sp(page);
    bool found = false;
    PageId next = kInvalidPageId;
    {
      SharedLock latch(page->latch());
      const uint16_t slots = sp.num_slots();
      while (next_slot_ < slots) {
        const uint16_t slot = static_cast<uint16_t>(next_slot_++);
        auto rec_or = sp.Get(slot);
        if (rec_or.ok()) {
          rid_ = Rid{page_id_, slot};
          record_.assign(rec_or->data(), rec_or->size());
          found = true;
          break;
        }
      }
      if (!found) next = sp.next_page();
    }
    status_ = file_->pool_->Unpin(page_id_, false);
    if (found || !status_.ok()) return found && status_.ok();
    page_id_ = next;
    next_slot_ = 0;
  }
  return false;
}

Status HeapFile::ReadPage(PageId page_id, std::vector<std::string>* records,
                          PageId* next) const {
  records->clear();
  *next = kInvalidPageId;
  auto page_or = pool_->FetchPage(page_id);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  SlottedPage sp(page);
  {
    SharedLock latch(page->latch());
    const uint16_t slots = sp.num_slots();
    records->reserve(slots);
    for (uint16_t slot = 0; slot < slots; ++slot) {
      auto rec_or = sp.Get(slot);
      if (rec_or.ok()) records->emplace_back(rec_or->data(), rec_or->size());
    }
    *next = sp.next_page();
  }
  return pool_->Unpin(page_id, false);
}

}  // namespace stagedb::storage
