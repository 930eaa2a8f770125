// Volcano-style (iterator model) execution engine.
//
// This is the execution model of the traditional architectures the paper
// criticizes: one worker thread pulls tuples through the whole plan. It is
// the baseline against which the staged engine is compared, and its operator
// kernels define the behaviour the staged drivers must match (the two engines
// are differential-tested against each other).
#ifndef STAGEDB_EXEC_EXECUTOR_H_
#define STAGEDB_EXEC_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/tuple.h"
#include "common/status.h"
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
};

/// Collects operator activity for one query execution.
class OperatorTrace {
 public:
  size_t Register(optimizer::PlanKind kind, std::string detail) {
    entries_.push_back({kind, std::move(detail), 0, 0});
    return entries_.size() - 1;
  }
  void CountTuple(size_t id) { ++entries_[id].tuples_out; }
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

/// Decodes a heap record into `*out` when its version is visible in `view`
/// (returns false to skip it). Shared by the volcano executors and the
/// staged scan drivers so both engines filter identically.
inline StatusOr<bool> DecodeVisibleRecord(const storage::MvccReadView& view,
                                          const catalog::Schema& schema,
                                          std::string_view record,
                                          catalog::Tuple* out) {
  if (!storage::VersionVisible(storage::DecodeVersionHeader(record), view)) {
    return false;
  }
  auto tuple = catalog::DecodeTuple(schema, storage::RowPayload(record));
  if (!tuple.ok()) return tuple.status();
  *out = std::move(*tuple);
  return true;
}

/// Resolves one entry of `index` (`key` -> `head`) to the row version
/// visible in `view`, returning its rid and tuple. `head` is the newest
/// version of the key; the walk follows `prev` links to the (unique) visible
/// version. A dangling
/// prev (vacuumed tail) ends the walk: deeper versions are strictly older
/// than the vacuum horizon, hence invisible to us anyway. Key recheck: with
/// several indexes a chain can cross keys (DESIGN.md §12), so a visible
/// version whose key is not `key` does not match in this view. Shared by the
/// volcano index scan, the staged iscan driver and the DML target collector.
inline StatusOr<bool> FetchVisibleVersion(const catalog::TableInfo& table,
                                          const catalog::IndexInfo& index,
                                          const storage::MvccReadView& view,
                                          int64_t key, storage::Rid head,
                                          storage::Rid* rid_out,
                                          catalog::Tuple* out) {
  storage::Rid rid = head;
  std::string record;
  while (true) {
    Status s = table.heap->Get(rid, &record);
    if (s.IsNotFound()) return false;  // deleted/vacuumed after lookup
    STAGEDB_RETURN_IF_ERROR(s);
    const storage::VersionHeader h = storage::DecodeVersionHeader(record);
    if (!storage::VersionVisible(h, view)) {
      if (!h.has_prev()) return false;
      rid = h.prev;
      continue;
    }
    auto tuple =
        catalog::DecodeTuple(table.schema, storage::RowPayload(record));
    if (!tuple.ok()) return tuple.status();
    const catalog::Value& v = (*tuple)[index.column];
    if (v.is_null() || v.int_value() != key) return false;
    *rid_out = rid;
    *out = std::move(*tuple);
    return true;
  }
}

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
