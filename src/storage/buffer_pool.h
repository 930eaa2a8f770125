// Buffer pool: caches disk pages in memory with LRU replacement and pin/unpin
// semantics. Thread-safe; shared by all stages (Table 1: "shared" data).
#ifndef STAGEDB_STORAGE_BUFFER_POOL_H_
#define STAGEDB_STORAGE_BUFFER_POOL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace stagedb::storage {

/// Fixed-capacity page cache over a DiskManager.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity);

  /// Returns the page pinned; caller must Unpin.
  StatusOr<Page*> FetchPage(PageId id);
  /// Allocates a new page on disk and returns it pinned.
  StatusOr<Page*> NewPage();
  /// Releases one pin; marks dirty if the caller modified the page.
  Status Unpin(PageId id, bool dirty);
  /// Writes a page back if dirty.
  Status FlushPage(PageId id);
  /// Writes all dirty pages back.
  Status FlushAll();

  size_t capacity() const { return frames_.size(); }
  /// Fetches served from / missing the pool (read under the pool mutex, so
  /// a monitor may sample them while queries run).
  int64_t hits() const;
  int64_t misses() const;
  /// Number of currently pinned pages (for leak tests).
  int64_t pinned_pages() const;

 private:
  /// Finds a victim frame (free list first, then LRU unpinned). Returns -1 if
  /// every frame is pinned.
  int FindVictim() REQUIRES(mu_);
  /// Moves a frame to the MRU end of the LRU list. O(1), allocation-free.
  void TouchLru(int frame) REQUIRES(mu_);
  /// Removes a frame from the LRU list if present. O(1).
  void UnlinkLru(int frame) REQUIRES(mu_);
  /// Takes frame `frame` off its old page (writing it back if dirty) and
  /// maps `id` to it, reusing the page table's node when there was one.
  Status Remap(int frame, PageId id) REQUIRES(mu_);

  DiskManager* disk_;
  mutable Mutex mu_;
  // frames_ itself is sized once in the constructor; the Page objects it
  // points to are pinned/unpinned under mu_ (their *contents* are protected
  // by the per-frame latch, see Page::latch()).
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, int> page_table_ GUARDED_BY(mu_);
  /// The LRU list of unpinned frames, least recently used first: circular
  /// and doubly linked through these arrays, indexed by frame id, with the
  /// sentinel at index capacity(). An unlinked frame's links are kUnlinked.
  static constexpr int kUnlinked = -1;
  std::vector<int> lru_prev_ GUARDED_BY(mu_);
  std::vector<int> lru_next_ GUARDED_BY(mu_);
  std::vector<int> free_frames_ GUARDED_BY(mu_);
  int64_t hits_ GUARDED_BY(mu_) = 0;
  int64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_BUFFER_POOL_H_
