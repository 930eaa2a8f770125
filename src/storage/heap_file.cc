#include "storage/heap_file.h"

#include <cstring>

namespace stagedb::storage {

// Latching protocol: every access to a page's bytes happens between FetchPage
// and Unpin with the frame latch held — shared for readers (Get, ReadPage),
// exclusive for mutators (Insert, Delete, OverwritePrefix). The pin is what
// keeps the frame from being recycled while the latch is held. Scans hold
// neither across pages: ReadPage pins a page once, copies its image under
// the shared latch and unpins it, so a scan sees each page as it was at one
// instant and a writer appending to that page waits for one memcpy only.

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
    : file_(file), next_page_(page_id) {}

bool HeapFile::Iterator::Next() {
  while (pos_ == page_.size()) {
    if (next_page_ == kInvalidPageId) return false;
    page_id_ = next_page_;
    pos_ = 0;
    status_ = file_->ReadPage(page_id_, &page_);  // empty on failure
    if (!status_.ok()) {
      next_page_ = kInvalidPageId;  // stay at the end
      return false;
    }
    next_page_ = page_.next_page();
  }
  ++pos_;
  return true;
}

Status HeapFile::ReadPage(PageId page_id, PageRecords* records) const {
  records->spans_.clear();
  records->next_page_ = kInvalidPageId;
  auto page_or = pool_->FetchPage(page_id);
  if (!page_or.ok()) return page_or.status();
  Page* page = *page_or;
  {
    SharedLock latch(page->latch());
    std::memcpy(records->image_.data(), page->data(), kPageSize);
  }
  STAGEDB_RETURN_IF_ERROR(pool_->Unpin(page_id, false));
  Status s = SlottedPage::WalkLiveRecords(records->image_.data(),
                                          &records->spans_,
                                          &records->next_page_);
  if (!s.ok()) {
    records->spans_.clear();
    records->next_page_ = kInvalidPageId;
  }
  return s;
}

}  // namespace stagedb::storage
