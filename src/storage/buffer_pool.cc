#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/string_util.h"

namespace stagedb::storage {

BufferPool::BufferPool(DiskManager* disk, size_t capacity) : disk_(disk) {
  frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(static_cast<int>(i));
  }
  lru_pos_.assign(capacity, lru_.end());
}

int BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    int f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (lru_.empty()) return -1;
  int f = lru_.front();
  lru_.pop_front();
  lru_pos_[f] = lru_.end();
  return f;
}

void BufferPool::TouchLru(int frame) {
  UnlinkLru(frame);
  lru_.push_back(frame);
  lru_pos_[frame] = std::prev(lru_.end());
}

void BufferPool::UnlinkLru(int frame) {
  if (lru_pos_[frame] != lru_.end()) {
    lru_.erase(lru_pos_[frame]);
    lru_pos_[frame] = lru_.end();
  }
}

StatusOr<Page*> BufferPool::FetchPage(PageId id) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++hits_;
    Page* page = frames_[it->second].get();
    if (page->pin_count() == 0) UnlinkLru(it->second);
    page->set_pin_count(page->pin_count() + 1);
    return page;
  }
  ++misses_;
  int frame = FindVictim();
  if (frame < 0) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  Page* page = frames_[frame].get();
  if (page->page_id() != kInvalidPageId) {
    if (page->dirty()) {
      STAGEDB_RETURN_IF_ERROR(disk_->WritePage(page->page_id(), page->data()));
    }
    page_table_.erase(page->page_id());
  }
  page->Reset();
  STAGEDB_RETURN_IF_ERROR(disk_->ReadPage(id, page->data()));
  page->set_page_id(id);
  page->set_pin_count(1);
  page_table_[id] = frame;
  return page;
}

StatusOr<Page*> BufferPool::NewPage() {
  PageId id;
  {
    auto id_or = disk_->AllocatePage();
    if (!id_or.ok()) return id_or.status();
    id = *id_or;
  }
  MutexLock lock(mu_);
  int frame = FindVictim();
  if (frame < 0) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  Page* page = frames_[frame].get();
  if (page->page_id() != kInvalidPageId) {
    if (page->dirty()) {
      STAGEDB_RETURN_IF_ERROR(disk_->WritePage(page->page_id(), page->data()));
    }
    page_table_.erase(page->page_id());
  }
  page->Reset();
  page->set_page_id(id);
  page->set_pin_count(1);
  page->set_dirty(true);  // new pages must reach disk eventually
  page_table_[id] = frame;
  return page;
}

Status BufferPool::Unpin(PageId id, bool dirty) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) {
    return Status::InvalidArgument(
        StrFormat("unpin of non-resident page %d", id));
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count() <= 0) {
    return Status::InvalidArgument(StrFormat("unpin of unpinned page %d", id));
  }
  if (dirty) page->set_dirty(true);
  page->set_pin_count(page->pin_count() - 1);
  if (page->pin_count() == 0) TouchLru(it->second);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  MutexLock lock(mu_);
  auto it = page_table_.find(id);
  if (it == page_table_.end()) return Status::OK();
  Page* page = frames_[it->second].get();
  if (page->dirty()) {
    STAGEDB_RETURN_IF_ERROR(disk_->WritePage(id, page->data()));
    page->set_dirty(false);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  for (auto& frame : frames_) {
    if (frame->page_id() != kInvalidPageId && frame->dirty()) {
      STAGEDB_RETURN_IF_ERROR(
          disk_->WritePage(frame->page_id(), frame->data()));
      frame->set_dirty(false);
    }
  }
  return Status::OK();
}

int64_t BufferPool::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

int64_t BufferPool::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

int64_t BufferPool::pinned_pages() const {
  MutexLock lock(mu_);
  int64_t n = 0;
  for (const auto& frame : frames_) {
    if (frame->page_id() != kInvalidPageId && frame->pin_count() > 0) ++n;
  }
  return n;
}

}  // namespace stagedb::storage
