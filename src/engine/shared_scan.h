// Cooperative ("elevator") shared table scans — the run-time multiple-query
// optimization of §5.4: "queries queued up at the same [fscan] stage can
// share the results of ongoing operations".
//
// Each table has one circular scan cursor over its heap-file page chain. A
// newly activated fscan packet *attaches* at the cursor's current position,
// receives pages until the scan wraps back around to its attach point, then
// *detaches*. N concurrent scans of a table therefore cost about one physical
// pass instead of N: the lead reader performs the page reads and lagging
// readers are served from a bounded window of recently read pages (and,
// beyond the window, from buffer-pool hits on still-resident pages).
//
// The cursor is position-aware, not page-pinning: every heap read goes
// through HeapFile::ReadPage, which re-fetches via the buffer pool, so the
// elevator survives page eviction between deliveries.
#ifndef STAGEDB_ENGINE_SHARED_SCAN_H_
#define STAGEDB_ENGINE_SHARED_SCAN_H_

#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace stagedb::engine {

/// The engine's reuse window: recently read pages each elevator keeps, as
/// page images (storage::PageRecords), for lagging readers.
inline constexpr size_t kSharedScanWindowPages = 32;

/// Monitoring counters for one table's elevator (or the sum over all
/// tables) — the fscan-stage half of §5.2's per-stage monitoring.
struct SharedScanStats {
  int64_t attaches = 0;         ///< readers that ever attached
  int64_t active_readers = 0;   ///< readers currently attached
  int64_t heap_page_reads = 0;  ///< pages physically read from the heap file
  int64_t pages_delivered = 0;  ///< page deliveries to readers (>= heap reads)
  int64_t window_hits = 0;      ///< deliveries served from the reuse window
  int64_t cursor_resets = 0;  ///< last-reader detaches (cursor to page 0)

  /// Pages handed out per physical heap read — the sharing factor.
  double DeliveriesPerRead() const {
    return heap_page_reads == 0
               ? 0.0
               : static_cast<double>(pages_delivered) / heap_page_reads;
  }
};

/// One elevator per table, shared by every fscan packet of that table's
/// stage. Owned by the StagedEngine; thread-safe.
class SharedScanManager {
 public:
  /// `window_pages` bounds the per-table reuse window; tests shrink it to
  /// push readers past the window.
  // Both special members are out of line: TableScan is incomplete here.
  explicit SharedScanManager(size_t window_pages = kSharedScanWindowPages);
  ~SharedScanManager();

  SharedScanManager(const SharedScanManager&) = delete;
  SharedScanManager& operator=(const SharedScanManager&) = delete;

  /// A reader's handle on a table elevator. Movable; detaches on destruction
  /// (or when the scan completes its full circle).
  class Cursor {
   public:
    Cursor() = default;
    Cursor(Cursor&& o) noexcept { *this = std::move(o); }
    Cursor& operator=(Cursor&& o) noexcept;
    ~Cursor() { Detach(); }

    /// Delivers the live records of the next page in elevator order. The
    /// cursor holds the page, which stays valid until the next NextPage or
    /// Detach. Returns nullptr when the scan has wrapped to its attach point
    /// (end of scan) or on error — distinguish via status(). End-of-scan
    /// detaches the reader.
    const storage::PageRecords* NextPage();

    /// Non-OK when NextPage stopped because of an error.
    const Status& status() const { return status_; }
    bool attached() const { return table_ != nullptr; }

    /// Early detach (e.g. the consumer cancelled the query mid-scan).
    void Detach();

   private:
    friend class SharedScanManager;
    class TableScan* table_ = nullptr;
    int64_t reader_id_ = -1;
    /// The page last delivered. Only the table's mutex ever copies or drops
    /// a delivered page, which is what lets the elevator reuse an image no
    /// reader holds.
    std::shared_ptr<const storage::PageRecords> page_;
    Status status_;
  };

  /// Attaches a reader to `heap`'s elevator at the cursor's current position.
  Cursor Attach(const storage::HeapFile* heap);

  /// Counters for one table's elevator (zeros if the table was never
  /// scanned).
  SharedScanStats StatsFor(const storage::HeapFile* heap) const;
  /// Counters summed over every table.
  SharedScanStats TotalStats() const;

 private:
  const size_t window_pages_;
  mutable Mutex mu_;  // guards the table map only
  std::map<const storage::HeapFile*, std::unique_ptr<class TableScan>> tables_
      GUARDED_BY(mu_);
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_SHARED_SCAN_H_
