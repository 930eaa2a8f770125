// Volcano-style (iterator model) execution engine.
//
// This is the execution model of the traditional architectures the paper
// criticizes: one worker thread pulls tuples through the whole plan. It is
// the baseline against which the staged engine is compared. Each Executor is
// a thin pull adapter over the operator kernels in exec/operators.h (and the
// scans over ScanRowReader below), the same kernels the staged engine's
// packets drive, so the two engines differ only in who runs an operator and
// when: one thread pulling a row at a time here, stage workers pushing
// morsels there.
#ifndef STAGEDB_EXEC_EXECUTOR_H_
#define STAGEDB_EXEC_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "exec/scan_predicate.h"
#include "optimizer/plan.h"

namespace stagedb::exec {

/// Per-operator activity record: how much work each module performed for one
/// query. The virtual-time replayer converts these counts into CPU demand
/// segments (see DESIGN.md E2).
struct OperatorTraceEntry {
  optimizer::PlanKind kind;
  std::string detail;     // e.g. table name
  int64_t tuples_out = 0;
  int64_t invocations = 0;
  /// Scans only: visible rows read, before the scan's own predicate drops
  /// any (tuples_out counts the survivors).
  int64_t rows_read = 0;
};

/// Collects operator activity for one query execution.
class OperatorTrace {
 public:
  size_t Register(optimizer::PlanKind kind, std::string detail) {
    entries_.push_back({kind, std::move(detail), 0, 0, 0});
    return entries_.size() - 1;
  }
  void CountTuple(size_t id) { ++entries_[id].tuples_out; }
  void CountRead(size_t id) { ++entries_[id].rows_read; }
  void CountInvocation(size_t id) { ++entries_[id].invocations; }
  const std::vector<OperatorTraceEntry>& entries() const { return entries_; }

 private:
  std::vector<OperatorTraceEntry> entries_;
};

/// Receives row-level mutations for write-ahead logging. The DML executors
/// call this after each successful catalog mutation; the Database facade
/// implements it over the storage WAL. Kept abstract so exec does not depend
/// on the storage log.
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual Status LogInsert(catalog::TableInfo* table,
                           const catalog::Tuple& tuple) = 0;
  virtual Status LogDelete(catalog::TableInfo* table,
                           const catalog::Tuple& tuple) = 0;
  virtual Status LogUpdate(catalog::TableInfo* table,
                           const catalog::Tuple& before,
                           const catalog::Tuple& after) = 0;
};

/// Per-query execution context.
struct ExecContext {
  catalog::Catalog* catalog = nullptr;
  OperatorTrace* trace = nullptr;  // optional (activity tracing)
  WalSink* wal = nullptr;          // optional (durable database)
  /// The statement's MVCC transaction: scans filter versions through
  /// mvcc->View() and DML records its write set (the undo log) here. Null
  /// means "no registered snapshot"; readers then fall back to
  /// last-committed visibility and DML installs bootstrap versions.
  storage::MvccTxn* mvcc = nullptr;
};

/// The visibility view for a scan: the context's transaction view when
/// present, otherwise everything committed so far (internal readers that run
/// without a registered snapshot). A catalog without a timestamp authority
/// holds only bootstrap versions, which the view at timestamp 0 sees.
inline storage::MvccReadView MvccViewFor(const ExecContext* ctx) {
  if (ctx != nullptr && ctx->mvcc != nullptr) return ctx->mvcc->View();
  if (ctx != nullptr && ctx->catalog != nullptr &&
      ctx->catalog->timestamp_authority() != nullptr) {
    return storage::MvccReadView{
        ctx->catalog->timestamp_authority()->last_committed(), 0};
  }
  return storage::MvccReadView{0, 0};
}

/// What a scan made of one heap record or index entry.
enum class ScanRow {
  kInvisible,  // no version visible in the reader's snapshot
  kRejected,   // visible, but the node's predicate dropped it
  kQualified,  // visible and kept
};

/// Reads the rows of one scan-like node: a kSeqScan or kIndexScan, or the
/// target search of a kDelete/kUpdate. For each row it checks visibility,
/// locates every column of the record in one bounds-checked walk, and runs
/// the node's predicate: on the raw bytes when the whole predicate compiles
/// to a ScanPredicate, so a rejected row never becomes Values, otherwise by
/// decoding the predicate's columns and interpreting it. Only a qualifying
/// row has the rest of its read set decoded, from the offsets the walk
/// found. The row it emits holds the read set's columns in table order,
/// which is the layout the planner gave the node's schema and its predicate
/// (a node without a read set, such as a DML target search, reads whole
/// rows for WAL before-images and new versions). Shared by the volcano
/// scans, the staged fscan/iscan drivers and the DML target collector, so
/// every engine reads rows identically.
class ScanRowReader {
 public:
  explicit ScanRowReader(const optimizer::PhysicalPlan& node);
  ~ScanRowReader();
  ScanRowReader(const ScanRowReader&) = delete;
  ScanRowReader& operator=(const ScanRowReader&) = delete;

  /// One heap record (version header + payload) of a sequential scan.
  StatusOr<ScanRow> ReadRecord(const storage::MvccReadView& view,
                               std::string_view record, catalog::Tuple* out);

  /// One index entry `key` -> `head`: `head` is the key's newest version,
  /// and the walk down its `prev` chain stops at the version visible in
  /// `view`, whose rid lands in `*rid`.
  StatusOr<ScanRow> ReadIndexed(const storage::MvccReadView& view,
                                int64_t key, storage::Rid head,
                                storage::Rid* rid, catalog::Tuple* out);

 private:
  friend class ScanRowReaderTestPeer;  // decode counts, program suppression

  /// Runs the predicate on a record whose columns are in offsets_ and
  /// decodes a qualifying row into `*out`.
  StatusOr<ScanRow> Qualify(std::string_view payload, catalog::Tuple* out);

  const optimizer::PhysicalPlan& node_;
  size_t width_ = 0;            // columns in an emitted row
  std::optional<ScanPredicate> program_;  // when the predicate compiles
  /// Decoded first: an interpreted predicate's columns, else the read set.
  catalog::SlotMap first_;
  catalog::SlotMap rest_;       // decoded once the row qualifies
  bool has_rest_ = false;
  catalog::ColumnOffsets offsets_;  // the current record's columns
  std::string record_;          // the index path's fetched record
  int64_t rows_decoded_ = 0;    // rows that became Values

  /// Every reader's rows_decoded_, added when the reader is destroyed.
  static std::atomic<int64_t> rows_decoded_total_;
  /// Makes readers constructed while set interpret every predicate.
  static std::atomic<bool> suppress_program_;
};

/// Pull-based operator.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Prepares the operator (may consume blocking inputs, e.g. sort).
  virtual Status Init() = 0;
  /// Produces the next tuple; returns false at end of stream.
  virtual StatusOr<bool> Next(catalog::Tuple* out) = 0;
  const catalog::Schema& schema() const { return schema_; }

 protected:
  explicit Executor(catalog::Schema schema) : schema_(std::move(schema)) {}
  catalog::Schema schema_;
};

/// Builds the executor tree for a physical plan.
StatusOr<std::unique_ptr<Executor>> CreateExecutor(
    const optimizer::PhysicalPlan* plan, ExecContext* ctx);

/// Runs a plan to completion and returns all result tuples.
StatusOr<std::vector<catalog::Tuple>> ExecutePlan(
    const optimizer::PhysicalPlan* plan, ExecContext* ctx);

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_EXECUTOR_H_
