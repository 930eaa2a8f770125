// Multi-version concurrency control primitives: the per-row version header,
// visibility rules, and the bookkeeping a transaction carries between the
// executor and TransactionManager.
//
// Every heap record is prefixed with a fixed 24-byte version header:
//
//   [ begin_ts : int64 | end_ts : int64 | prev_page : int32 |
//     prev_slot : uint16 | pad : uint16 ]
//
// Timestamps are commit timestamps handed out by TransactionManager in commit
// order. A *negative* value in begin_ts/end_ts is an uncommitted marker: the
// writer stored -txn_id there and will rewrite it to the positive commit
// timestamp at commit (or undo it on abort). end_ts == kMaxTs means "live".
//
// `prev` points at the version this one superseded (the back-chain). It is
// written once at install time and never mutated afterwards: index entries
// always reference the newest version of a key, and index readers walk the
// prev-chain until they find a visible version. Because chain links are
// immutable, vacuum can physically delete old versions without relinking —
// a dangling prev simply terminates the walk (deeper versions are strictly
// older, so anything reclaimed was invisible to every live snapshot anyway).
#ifndef STAGEDB_STORAGE_MVCC_H_
#define STAGEDB_STORAGE_MVCC_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "storage/page.h"

namespace stagedb::storage {

/// Transaction id (shared with txn.h; defined here so the MVCC structs do not
/// pull in the lock manager).
using TxnId = int64_t;

/// Commit timestamp type. Positive values are committed timestamps; negative
/// values inside a version header are uncommitted -txn_id markers.
using Ts = int64_t;

/// end_ts of a live (not yet superseded) version.
inline constexpr Ts kMaxTs = INT64_MAX;

/// Size of the version header prepended to every heap record.
inline constexpr size_t kVersionHeaderSize =
    sizeof(int64_t) * 2 + sizeof(int32_t) + sizeof(uint16_t) * 2;

/// Decoded form of the in-row version header.
struct VersionHeader {
  Ts begin = 0;
  Ts end = kMaxTs;
  /// Previous (older) version of the same logical row, or kInvalidPageId.
  Rid prev{kInvalidPageId, 0};

  bool has_prev() const { return prev.page_id != kInvalidPageId; }
};

inline void EncodeVersionHeader(const VersionHeader& h, char* out) {
  std::memcpy(out, &h.begin, sizeof(h.begin));
  std::memcpy(out + 8, &h.end, sizeof(h.end));
  std::memcpy(out + 16, &h.prev.page_id, sizeof(h.prev.page_id));
  std::memcpy(out + 20, &h.prev.slot, sizeof(h.prev.slot));
  std::memset(out + 22, 0, 2);
}

inline std::string EncodeVersionHeader(const VersionHeader& h) {
  std::string out(kVersionHeaderSize, '\0');
  EncodeVersionHeader(h, out.data());
  return out;
}

/// Decodes the header from the front of a record. The caller guarantees
/// `record.size() >= kVersionHeaderSize` (every catalog insert prepends one).
inline VersionHeader DecodeVersionHeader(std::string_view record) {
  assert(record.size() >= kVersionHeaderSize);
  VersionHeader h;
  std::memcpy(&h.begin, record.data(), sizeof(h.begin));
  std::memcpy(&h.end, record.data() + 8, sizeof(h.end));
  std::memcpy(&h.prev.page_id, record.data() + 16, sizeof(h.prev.page_id));
  std::memcpy(&h.prev.slot, record.data() + 20, sizeof(h.prev.slot));
  return h;
}

/// The tuple bytes of an MVCC record (everything after the version header).
inline std::string_view RowPayload(std::string_view record) {
  return record.substr(kVersionHeaderSize);
}

/// A reader's view of the database: everything committed at or before
/// `snapshot`, plus its own uncommitted writes (`self` > 0 for DML
/// statements; 0 for pure readers, which then see committed state only).
struct MvccReadView {
  Ts snapshot = 0;
  TxnId self = 0;
};

/// Visibility under snapshot isolation. A version is visible iff it was
/// committed at or before the snapshot (or written by the reader itself) and
/// not superseded/deleted at or before the snapshot (again, own deletes are
/// seen immediately).
inline bool VersionVisible(const VersionHeader& h, const MvccReadView& view) {
  if (h.begin < 0) {
    // Uncommitted install: visible only to the installing transaction.
    if (-h.begin != view.self) return false;
  } else if (h.begin > view.snapshot) {
    return false;  // committed after the snapshot was taken
  }
  if (h.end < 0) {
    // Uncommitted delete: hides the row from the deleter only.
    return -h.end != view.self;
  }
  return h.end == kMaxTs || h.end > view.snapshot;
}

enum class MvccWriteOp : uint8_t { kInsert, kMarkDelete };

/// Undo information for one index entry touched by an MVCC insert.
struct MvccIndexUndo {
  int32_t index_id = 0;
  int64_t key = 0;
  /// True when the insert replaced an existing (dead) head entry; abort must
  /// restore `old_head` instead of deleting the key outright.
  bool replaced = false;
  Rid old_head{kInvalidPageId, 0};
};

/// One entry in a transaction's write set, sufficient to undo it on abort and
/// to rewrite its timestamp markers at commit.
struct MvccWrite {
  int32_t table_id = 0;
  Rid rid{kInvalidPageId, 0};
  MvccWriteOp op = MvccWriteOp::kInsert;
  std::vector<MvccIndexUndo> index_undo;
};

/// Per-statement (auto-commit) or per-transaction MVCC state, threaded through
/// ExecContext so scans resolve visibility and DML records its write set.
struct MvccTxn {
  /// Writer transaction id (> 0) or 0 for read-only statements.
  TxnId id = 0;
  /// Snapshot timestamp: the largest commit timestamp visible to this txn.
  Ts snapshot = 0;
  /// Whether `snapshot` is registered with the TransactionManager (and must
  /// be released exactly once).
  bool registered = false;
  std::vector<MvccWrite> writes;

  MvccReadView View() const { return MvccReadView{snapshot, id}; }
};

}  // namespace stagedb::storage

#endif  // STAGEDB_STORAGE_MVCC_H_
