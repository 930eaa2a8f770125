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
  const int sentinel = static_cast<int>(capacity);
  lru_prev_.assign(capacity + 1, kUnlinked);
  lru_next_.assign(capacity + 1, kUnlinked);
  lru_prev_[sentinel] = lru_next_[sentinel] = sentinel;
}

int BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    int f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  const int f = lru_next_[frames_.size()];
  if (f == static_cast<int>(frames_.size())) return -1;  // list is empty
  UnlinkLru(f);
  return f;
}

void BufferPool::TouchLru(int frame) {
  UnlinkLru(frame);
  const int sentinel = static_cast<int>(frames_.size());
  const int last = lru_prev_[sentinel];
  lru_prev_[frame] = last;
  lru_next_[frame] = sentinel;
  lru_next_[last] = frame;
  lru_prev_[sentinel] = frame;
}

void BufferPool::UnlinkLru(int frame) {
  if (lru_next_[frame] == kUnlinked) return;
  lru_next_[lru_prev_[frame]] = lru_next_[frame];
  lru_prev_[lru_next_[frame]] = lru_prev_[frame];
  lru_prev_[frame] = lru_next_[frame] = kUnlinked;
}

Status BufferPool::Remap(int frame, PageId id) {
  Page* page = frames_[frame].get();
  if (page->page_id() == kInvalidPageId) {
    page_table_[id] = frame;
    return Status::OK();
  }
  if (page->dirty()) {
    Status s = disk_->WritePage(page->page_id(), page->data());
    if (!s.ok()) {
      TouchLru(frame);  // the old page stays resident and evictable
      return s;
    }
  }
  auto node = page_table_.extract(page->page_id());
  node.key() = id;
  page_table_.insert(std::move(node));
  return Status::OK();
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
  STAGEDB_RETURN_IF_ERROR(Remap(frame, id));
  Page* page = frames_[frame].get();
  // The read overwrites every byte, so only the header needs resetting.
  page->ResetHeader();
  Status s = disk_->ReadPage(id, page->data());
  if (!s.ok()) {
    page_table_.erase(id);
    free_frames_.push_back(frame);
    return s;
  }
  page->set_page_id(id);
  page->set_pin_count(1);
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
  STAGEDB_RETURN_IF_ERROR(Remap(frame, id));
  Page* page = frames_[frame].get();
  page->Reset();
  page->set_page_id(id);
  page->set_pin_count(1);
  page->set_dirty(true);  // new pages must reach disk eventually
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
