// Write-ahead log with logical records (before/after images) used for
// transaction undo and for logical redo at recovery.
//
// On-disk framing (PR 6): every record is `[u32 len][u32 crc32][payload]`
// where `crc32` covers the payload bytes. A crash can leave the final frame
// short or torn; `Open` detects either (short header/payload or CRC
// mismatch), warns, and truncates the log back to the last whole record
// instead of failing startup. Durability is explicit: `Append` only buffers;
// `Sync()` is the fdatasync barrier that advances `durable_lsn()` — the
// group-commit stage's whole job is issuing as few of those as possible.
#ifndef STAGEDB_STORAGE_WAL_H_
#define STAGEDB_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace stagedb::storage {

/// One log record. `before`/`after` are serialized row images for data
/// records; DDL records reuse them for name/schema payloads (see database.cc).
struct WalRecord {
  enum class Type : uint8_t {
    kBegin = 0,
    kCommit,
    kAbort,
    kInsert,
    kDelete,
    kUpdate,
    // DDL records make the log self-contained: recovery can rebuild the
    // schema before replaying row operations. txn_id is 0 (auto-committed).
    kCreateTable,  // before = table name, after = serialized schema
    kCreateIndex,  // before = index name, after = "table\x1fcolumn"
    kDropTable,    // before = table name
  };

  int64_t lsn = 0;
  int64_t txn_id = 0;
  Type type = Type::kBegin;
  int32_t table_id = -1;
  Rid rid;
  std::string before;
  std::string after;
  /// MVCC commit timestamp (kCommit records of writing transactions); recovery
  /// restores the timestamp high-water mark from the max over these. 0 for
  /// pre-MVCC logs and non-commit records (the field is a trailing optional
  /// in the frame encoding, so old logs decode cleanly).
  int64_t ts = 0;
};

const char* WalRecordTypeName(WalRecord::Type type);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data` — the per-record
/// checksum used by the log framing. Exposed for tests that build corrupt
/// frames by hand.
uint32_t WalCrc32(const void* data, size_t len);

/// Serializes `record` into its on-disk frame (header + payload); appending
/// this string to a log file yields a valid record. Exposed for tests.
std::string EncodeWalFrame(const WalRecord& record);

/// Append-only log. Records are kept in memory and optionally mirrored to a
/// LogDevice (CRC-framed) so recovery can replay them after a restart.
class WriteAheadLog {
 public:
  /// In-memory-only log.
  WriteAheadLog() = default;

  /// Opens (or creates) a file-backed log and loads existing records. A
  /// partially-written final record (torn tail) is truncated with a warning,
  /// not an error — see truncated_tail_bytes().
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path);

  /// Appends a record (assigning its lsn) and returns the lsn. File-backed
  /// logs buffer the frame; it is not durable until Sync().
  StatusOr<int64_t> Append(WalRecord record);

  /// Durability barrier (fdatasync on the backing device). On return every
  /// previously appended record is stable and durable_lsn() reflects that.
  /// No-op success for memory-only logs (durable_lsn still advances so
  /// callers need not special-case).
  Status Sync();

  /// Applies `fn` to every record in lsn order.
  Status Replay(const std::function<Status(const WalRecord&)>& fn) const;

  /// The set of txn ids with a commit record.
  std::vector<int64_t> CommittedTxns() const;

  int64_t num_records() const;
  int64_t next_lsn() const;
  /// Highest lsn guaranteed on stable storage (0 = none).
  int64_t durable_lsn() const;
  /// Number of Sync() barriers issued (fsyncs for file-backed logs).
  int64_t syncs() const;
  /// Bytes dropped from the tail at Open because the final record was
  /// incomplete or failed its CRC (0 = the log was clean).
  int64_t truncated_tail_bytes() const;

  /// Fault-injection passthrough for crash tests (file-backed logs only;
  /// ignored otherwise). Injector is not owned.
  void set_fault_injector(WriteFaultInjector* injector);

 private:
  Status LoadFromDevice();

  mutable Mutex mu_;
  std::vector<WalRecord> records_ GUARDED_BY(mu_);
  int64_t next_lsn_ GUARDED_BY(mu_) = 1;
  int64_t durable_lsn_ GUARDED_BY(mu_) = 0;
  // Sync() count for memory-only logs.
  int64_t mem_syncs_ GUARDED_BY(mu_) = 0;
  int64_t truncated_tail_bytes_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<LogDevice> device_;  // null = memory-only; self-locking
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_WAL_H_
