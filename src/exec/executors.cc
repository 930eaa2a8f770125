#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "optimizer/bound_expr.h"

namespace stagedb::exec {

using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::Eval;
using optimizer::EvalPredicate;
using optimizer::PhysicalPlan;
using optimizer::PlanKind;

// ---------------------------------------------------------- ScanRowReader --

std::atomic<int64_t> ScanRowReader::rows_decoded_total_{0};
std::atomic<bool> ScanRowReader::suppress_program_{false};

ScanRowReader::ScanRowReader(const PhysicalPlan& node) : node_(node) {
  const Schema& schema = node.table->schema;
  const size_t columns = schema.num_columns();
  // Where each table column lands in the emitted row (its rank in the read
  // set, every column when the node has none), and the table column at
  // each emitted slot.
  catalog::SlotMap slots(columns, catalog::kSkipColumn);
  std::vector<size_t> slot_columns;
  for (size_t i = 0; i < columns; ++i) {
    if (!node.read_set.empty() && !node.read_set[i]) continue;
    slots[i] = slot_columns.size();
    slot_columns.push_back(i);
  }
  width_ = slot_columns.size();
  if (node.predicate != nullptr && !suppress_program_) {
    program_ = ScanPredicate::Compile(*node.predicate, schema, slot_columns);
  }
  // An interpreted predicate needs its columns (emitted slots) decoded
  // before it runs; otherwise a qualifying row's read set is decoded at
  // once.
  const bool interpret = node.predicate != nullptr && !program_.has_value();
  catalog::ColumnSet early(width_, !interpret);
  if (interpret) node.predicate->MarkColumns(&early);
  first_.assign(columns, catalog::kSkipColumn);
  rest_.assign(columns, catalog::kSkipColumn);
  for (size_t i = 0; i < columns; ++i) {
    if (slots[i] == catalog::kSkipColumn) continue;
    if (early[slots[i]]) {
      first_[i] = slots[i];
    } else {
      rest_[i] = slots[i];
      has_rest_ = true;
    }
  }
}

ScanRowReader::~ScanRowReader() { rows_decoded_total_ += rows_decoded_; }

StatusOr<ScanRow> ScanRowReader::ReadRecord(const storage::MvccReadView& view,
                                            std::string_view record,
                                            Tuple* out) {
  if (!storage::VersionVisible(storage::DecodeVersionHeader(record), view)) {
    return ScanRow::kInvisible;
  }
  const std::string_view payload = storage::RowPayload(record);
  STAGEDB_RETURN_IF_ERROR(
      catalog::LocateColumns(node_.table->schema, payload, &offsets_));
  return Qualify(payload, out);
}

StatusOr<ScanRow> ScanRowReader::ReadIndexed(const storage::MvccReadView& view,
                                             int64_t key, storage::Rid head,
                                             storage::Rid* rid, Tuple* out) {
  // The walk follows `prev` links from the newest version to the (unique)
  // visible one. A dangling prev (vacuumed tail) ends it: deeper versions
  // are strictly older than the vacuum horizon, hence invisible to us
  // anyway.
  storage::Rid at = head;
  while (true) {
    Status s = node_.table->heap->Get(at, &record_);
    if (s.IsNotFound()) return ScanRow::kInvisible;  // deleted after lookup
    STAGEDB_RETURN_IF_ERROR(s);
    const storage::VersionHeader h = storage::DecodeVersionHeader(record_);
    if (storage::VersionVisible(h, view)) break;
    if (!h.has_prev()) return ScanRow::kInvisible;
    at = h.prev;
  }
  const std::string_view payload = storage::RowPayload(record_);
  STAGEDB_RETURN_IF_ERROR(
      catalog::LocateColumns(node_.table->schema, payload, &offsets_));
  // Key recheck, on the record's bytes (index keys are int64): with several
  // indexes a chain can cross keys (DESIGN.md §12), so a visible version
  // whose key is not `key` does not match in this view.
  const uint32_t key_at = offsets_[node_.index->column];
  if (key_at == catalog::kNullColumn) return ScanRow::kInvisible;
  int64_t found;
  std::memcpy(&found, payload.data() + key_at, sizeof(found));
  if (found != key) return ScanRow::kInvisible;
  *rid = at;
  return Qualify(payload, out);
}

StatusOr<ScanRow> ScanRowReader::Qualify(std::string_view payload,
                                         Tuple* out) {
  if (program_.has_value() && !program_->Matches(payload, offsets_)) {
    return ScanRow::kRejected;
  }
  // No clear: every slot a qualifying row emits is decoded below, so a
  // recycled row keeps its Values' storage.
  const Schema& schema = node_.table->schema;
  out->resize(width_);
  ++rows_decoded_;
  STAGEDB_RETURN_IF_ERROR(
      catalog::DecodeLocated(schema, payload, offsets_, first_, out));
  if (node_.predicate == nullptr || program_.has_value()) {
    return ScanRow::kQualified;
  }
  auto pass = EvalPredicate(*node_.predicate, *out);
  if (!pass.ok()) return pass.status();
  if (!*pass) return ScanRow::kRejected;
  if (has_rest_) {
    STAGEDB_RETURN_IF_ERROR(
        catalog::DecodeLocated(schema, payload, offsets_, rest_, out));
  }
  return ScanRow::kQualified;
}

namespace {

/// Feeds every row `child` produces to `fn`, which returns a Status.
template <typename Fn>
Status ForEachRow(Executor* child, Fn fn) {
  Tuple t;
  while (true) {
    auto more = child->Next(&t);
    if (!more.ok()) return more.status();
    if (!*more) return Status::OK();
    STAGEDB_RETURN_IF_ERROR(fn(std::move(t)));
  }
}

/// An operator that reports to the activity trace: its plan node, the
/// query's context, and its trace entry.
class TracedExec : public Executor {
 protected:
  TracedExec(const PhysicalPlan* plan, ExecContext* ctx,
             std::string detail = "")
      : Executor(plan->schema), plan_(plan), ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(plan->kind, std::move(detail));
    }
  }
  void CountTuple() {
    if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
  }
  void CountRead() {
    if (ctx_->trace != nullptr) ctx_->trace->CountRead(trace_id_);
  }
  void CountInvocation() {
    if (ctx_->trace != nullptr) ctx_->trace->CountInvocation(trace_id_);
  }

  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  size_t trace_id_ = 0;
};

// --------------------------------------------------------------- SeqScan ---

class SeqScanExec : public TracedExec {
 public:
  SeqScanExec(const PhysicalPlan* plan, ExecContext* ctx)
      : TracedExec(plan, ctx, plan->table->name),
        iter_(plan->table->heap->Scan()),
        reader_(*plan) {}
  Status Init() override {
    view_ = MvccViewFor(ctx_);
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    CountInvocation();
    while (iter_.Next()) {
      auto row = reader_.ReadRecord(view_, iter_.record(), out);
      if (!row.ok()) return row.status();
      if (*row == ScanRow::kInvisible) continue;  // outside our snapshot
      CountRead();
      if (*row == ScanRow::kRejected) continue;
      CountTuple();
      return true;
    }
    STAGEDB_RETURN_IF_ERROR(iter_.status());
    return false;
  }

 private:
  storage::HeapFile::Iterator iter_;
  ScanRowReader reader_;
  storage::MvccReadView view_;
};

// -------------------------------------------------------------- IndexScan --

class IndexScanExec : public TracedExec {
 public:
  IndexScanExec(const PhysicalPlan* plan, ExecContext* ctx)
      : TracedExec(plan, ctx, plan->table->name), reader_(*plan) {}
  Status Init() override {
    view_ = MvccViewFor(ctx_);
    return plan_->index->tree->Scan(plan_->index_lo, plan_->index_hi,
                                    &matches_);
  }
  StatusOr<bool> Next(Tuple* out) override {
    CountInvocation();
    while (pos_ < matches_.size()) {
      const auto& [key, head] = matches_[pos_++];
      storage::Rid rid;
      auto row = reader_.ReadIndexed(view_, key, head, &rid, out);
      if (!row.ok()) return row.status();
      if (*row == ScanRow::kInvisible) continue;
      CountRead();
      if (*row == ScanRow::kRejected) continue;
      CountTuple();
      return true;
    }
    return false;
  }

 private:
  ScanRowReader reader_;
  std::vector<std::pair<int64_t, storage::Rid>> matches_;
  size_t pos_ = 0;
  storage::MvccReadView view_;
};

// ----------------------------------------------------------------- Filter --

class FilterExec : public TracedExec {
 public:
  FilterExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
             ExecContext* ctx)
      : TracedExec(plan, ctx), child_(std::move(child)) {}
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      auto more = child_->Next(out);
      if (!more.ok()) return more;
      if (!*more) return false;
      auto pass = EvalPredicate(*plan_->predicate, *out);
      if (!pass.ok()) return pass.status();
      if (*pass) {
        CountTuple();
        return true;
      }
    }
  }

 private:
  std::unique_ptr<Executor> child_;
};

// ---------------------------------------------------------------- Project --

class ProjectExec : public TracedExec {
 public:
  ProjectExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
              ExecContext* ctx)
      : TracedExec(plan, ctx), child_(std::move(child)) {}
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    auto more = child_->Next(&in_);
    if (!more.ok() || !*more) return more;
    STAGEDB_RETURN_IF_ERROR(ProjectRow(*plan_, in_, out));
    CountTuple();
    return true;
  }

 private:
  std::unique_ptr<Executor> child_;
  Tuple in_;
};

// ------------------------------------------------- HashJoin, NestedLoopJoin --

/// Builds a JoinTable over the whole right input, then probes it with the
/// left input a row at a time.
class HashJoinExec : public TracedExec {
 public:
  HashJoinExec(const PhysicalPlan* plan, std::unique_ptr<Executor> left,
               std::unique_ptr<Executor> right, ExecContext* ctx)
      : TracedExec(plan, ctx), left_(std::move(left)),
        right_(std::move(right)), table_(*plan) {}
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(left_->Init());
    STAGEDB_RETURN_IF_ERROR(right_->Init());
    return ForEachRow(right_.get(),
                      [this](const Tuple& t) { return table_.Build(t); });
  }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      auto match = table_.NextMatch(out);
      if (!match.ok()) return match;
      if (*match) {
        CountTuple();
        return true;
      }
      auto more = left_->Next(&probe_);
      if (!more.ok() || !*more) return more;
      STAGEDB_RETURN_IF_ERROR(table_.Probe(probe_));
    }
  }

 private:
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  JoinTable table_;
  Tuple probe_;  // the table reads the probe row here, in place
};

// -------------------------------------------------------------- MergeJoin --

class MergeJoinExec : public TracedExec {
 public:
  MergeJoinExec(const PhysicalPlan* plan, std::unique_ptr<Executor> left,
                std::unique_ptr<Executor> right, ExecContext* ctx)
      : TracedExec(plan, ctx), left_(std::move(left)),
        right_(std::move(right)), merge_(*plan) {}
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(left_->Init());
    STAGEDB_RETURN_IF_ERROR(right_->Init());
    Executor* sides[2] = {left_.get(), right_.get()};
    for (int side = 0; side < 2; ++side) {
      STAGEDB_RETURN_IF_ERROR(ForEachRow(sides[side], [&](Tuple t) {
        merge_.Add(side, std::move(t));
        return Status::OK();
      }));
    }
    merge_.Sort();
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    auto joined = merge_.Next(out);
    if (joined.ok() && *joined) CountTuple();
    return joined;
  }

 private:
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  MergeJoin merge_;
};

// ---------------------------------------------------- Sort, HashAggregate --

/// The blocking operators: Init drains the child through the kernel into
/// rows_, which Next hands out.
class MaterializedExec : public TracedExec {
 public:
  MaterializedExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
                   ExecContext* ctx)
      : TracedExec(plan, ctx), child_(std::move(child)) {}
  StatusOr<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_++]);
    CountTuple();
    return true;
  }

 protected:
  std::unique_ptr<Executor> child_;
  std::vector<Tuple> rows_;

 private:
  size_t pos_ = 0;
};

class SortExec : public MaterializedExec {
 public:
  using MaterializedExec::MaterializedExec;
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(child_->Init());
    STAGEDB_RETURN_IF_ERROR(ForEachRow(child_.get(), [this](Tuple t) {
      rows_.push_back(std::move(t));
      return Status::OK();
    }));
    return SortRows(plan_->sort_keys, &rows_);
  }
};

class HashAggExec : public MaterializedExec {
 public:
  using MaterializedExec::MaterializedExec;
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(child_->Init());
    HashAggregator agg(*plan_);
    STAGEDB_RETURN_IF_ERROR(ForEachRow(
        child_.get(), [&agg](const Tuple& t) { return agg.Add(t); }));
    rows_ = agg.Finish();
    return Status::OK();
  }
};

// ------------------------------------------------------------------ Limit --

class LimitExec : public Executor {
 public:
  LimitExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)) {}
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    if (produced_ >= plan_->limit) return false;
    auto more = child_->Next(out);
    if (!more.ok()) return more;
    if (!*more) return false;
    ++produced_;
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  int64_t produced_ = 0;
};

// ----------------------------------------------------------------- Values --

class ValuesExec : public Executor {
 public:
  ValuesExec(const PhysicalPlan* plan, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan) {
    (void)ctx;
  }
  Status Init() override { return Status::OK(); }
  StatusOr<bool> Next(Tuple* out) override {
    if (pos_ >= plan_->rows.size()) return false;
    *out = plan_->rows[pos_++];
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  size_t pos_ = 0;
};

// -------------------------------------------------------------- mutations --

class InsertExec : public Executor {
 public:
  InsertExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
             ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {}
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    int64_t count = 0;
    Tuple t;
    while (true) {
      auto more = child_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      auto rid = ctx_->catalog->InsertTuple(plan_->table, t, ctx_->mvcc);
      if (!rid.ok()) return rid.status();
      if (ctx_->wal != nullptr) {
        STAGEDB_RETURN_IF_ERROR(ctx_->wal->LogInsert(plan_->table, t));
      }
      ++count;
    }
    *out = {Value::Int(count)};
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  bool done_ = false;
};

/// One row a DELETE or UPDATE acts on: its rid and its visible image.
struct DmlTarget {
  storage::Rid rid;
  Tuple tuple;
};

/// Collects every row of a DELETE/UPDATE node's table that is visible in the
/// statement's view and passes the node's full WHERE, before any row is
/// modified (so a key-changing UPDATE never meets its own new versions).
///
/// With an index range the candidates come from the B+-tree and are returned
/// in rid order, which is heap-scan order (pages are only ever appended), so
/// the mutations, and the first conflict or duplicate a statement hits, are
/// the heap scan's. With one index every version chain holds a single key,
/// so a walk that finds no visible version is exact. With several, a
/// version's prev link follows only the first index whose head it replaced,
/// so a row still visible here can be unreachable from this index's head
/// (DESIGN.md §12): such an inconclusive walk falls back to the heap scan,
/// as does a statement with no usable index range.
Status CollectDmlTargets(const PhysicalPlan* plan, ExecContext* ctx,
                         std::vector<DmlTarget>* out) {
  const catalog::TableInfo& table = *plan->table;
  const storage::MvccReadView view = MvccViewFor(ctx);
  ScanRowReader reader(*plan);
  if (plan->index != nullptr) {
    const bool walk_exact = table.indexes.size() == 1;
    std::vector<std::pair<int64_t, storage::Rid>> matches;
    STAGEDB_RETURN_IF_ERROR(
        plan->index->tree->Scan(plan->index_lo, plan->index_hi, &matches));
    bool exact = true;
    for (const auto& [key, head] : matches) {
      storage::Rid rid;
      Tuple tuple;
      auto row = reader.ReadIndexed(view, key, head, &rid, &tuple);
      if (!row.ok()) return row.status();
      if (*row == ScanRow::kQualified) {
        out->push_back({rid, std::move(tuple)});
      } else if (*row == ScanRow::kInvisible && !walk_exact) {
        exact = false;
        break;
      }
    }
    if (exact) {
      std::sort(out->begin(), out->end(),
                [](const DmlTarget& a, const DmlTarget& b) {
                  return a.rid < b.rid;
                });
      return Status::OK();
    }
    out->clear();
  }
  auto it = table.heap->Scan();
  while (it.Next()) {
    Tuple tuple;
    auto row = reader.ReadRecord(view, it.record(), &tuple);
    if (!row.ok()) return row.status();
    if (*row == ScanRow::kQualified) {
      out->push_back({it.rid(), std::move(tuple)});
    }
  }
  return it.status();
}

class DeleteExec : public Executor {
 public:
  DeleteExec(const PhysicalPlan* plan, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), ctx_(ctx) {}
  Status Init() override { return Status::OK(); }
  StatusOr<bool> Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    std::vector<DmlTarget> victims;
    STAGEDB_RETURN_IF_ERROR(CollectDmlTargets(plan_, ctx_, &victims));
    for (const auto& [rid, tuple] : victims) {
      STAGEDB_RETURN_IF_ERROR(
          ctx_->catalog->DeleteTuple(plan_->table, rid, ctx_->mvcc));
      if (ctx_->wal != nullptr) {
        STAGEDB_RETURN_IF_ERROR(ctx_->wal->LogDelete(plan_->table, tuple));
      }
    }
    *out = {Value::Int(static_cast<int64_t>(victims.size()))};
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  bool done_ = false;
};

class UpdateExec : public Executor {
 public:
  UpdateExec(const PhysicalPlan* plan, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), ctx_(ctx) {}
  Status Init() override { return Status::OK(); }
  StatusOr<bool> Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    std::vector<DmlTarget> targets;
    STAGEDB_RETURN_IF_ERROR(CollectDmlTargets(plan_, ctx_, &targets));
    // Every new image is computed before the first mutation, so a SET
    // expression error leaves the table untouched.
    std::vector<Tuple> updated;
    updated.reserve(targets.size());
    for (const DmlTarget& target : targets) {
      Tuple row = target.tuple;
      for (size_t i = 0; i < plan_->update_columns.size(); ++i) {
        auto v = Eval(*plan_->exprs[i], target.tuple);
        if (!v.ok()) return v.status();
        Value value = *v;
        const TypeId want =
            plan_->table->schema.column(plan_->update_columns[i]).type;
        if (want == TypeId::kDouble && value.type() == TypeId::kInt64) {
          value = Value::Double(static_cast<double>(value.int_value()));
        }
        if (!catalog::TypesCompatible(value.type(), want)) {
          return Status::InvalidArgument("UPDATE value type mismatch");
        }
        row[plan_->update_columns[i]] = std::move(value);
      }
      updated.push_back(std::move(row));
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      const DmlTarget& target = targets[i];
      // Delete + reinsert keeps indexes and stats consistent: the old
      // version is marked deleted and the new tuple installed as a fresh
      // version, both stamped with the statement's transaction.
      STAGEDB_RETURN_IF_ERROR(
          ctx_->catalog->DeleteTuple(plan_->table, target.rid, ctx_->mvcc));
      auto new_rid =
          ctx_->catalog->InsertTuple(plan_->table, updated[i], ctx_->mvcc);
      if (!new_rid.ok()) return new_rid.status();
      if (ctx_->wal != nullptr) {
        // One UPDATE record carrying both images (redo finds the victim by
        // before-image, undo restores it).
        STAGEDB_RETURN_IF_ERROR(
            ctx_->wal->LogUpdate(plan_->table, target.tuple, updated[i]));
      }
    }
    *out = {Value::Int(static_cast<int64_t>(targets.size()))};
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  bool done_ = false;
};

}  // namespace

StatusOr<std::unique_ptr<Executor>> CreateExecutor(const PhysicalPlan* plan,
                                                   ExecContext* ctx) {
  std::vector<std::unique_ptr<Executor>> children;
  for (const auto& child : plan->children) {
    auto exec = CreateExecutor(child.get(), ctx);
    if (!exec.ok()) return exec.status();
    children.push_back(std::move(*exec));
  }
  switch (plan->kind) {
    case PlanKind::kSeqScan:
      return std::unique_ptr<Executor>(new SeqScanExec(plan, ctx));
    case PlanKind::kIndexScan:
      return std::unique_ptr<Executor>(new IndexScanExec(plan, ctx));
    case PlanKind::kFilter:
      return std::unique_ptr<Executor>(
          new FilterExec(plan, std::move(children[0]), ctx));
    case PlanKind::kProject:
      return std::unique_ptr<Executor>(
          new ProjectExec(plan, std::move(children[0]), ctx));
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
      return std::unique_ptr<Executor>(new HashJoinExec(
          plan, std::move(children[0]), std::move(children[1]), ctx));
    case PlanKind::kMergeJoin:
      return std::unique_ptr<Executor>(new MergeJoinExec(
          plan, std::move(children[0]), std::move(children[1]), ctx));
    case PlanKind::kSort:
      return std::unique_ptr<Executor>(
          new SortExec(plan, std::move(children[0]), ctx));
    case PlanKind::kHashAggregate:
      return std::unique_ptr<Executor>(
          new HashAggExec(plan, std::move(children[0]), ctx));
    case PlanKind::kLimit:
      return std::unique_ptr<Executor>(
          new LimitExec(plan, std::move(children[0])));
    case PlanKind::kValues:
      return std::unique_ptr<Executor>(new ValuesExec(plan, ctx));
    case PlanKind::kInsert:
      return std::unique_ptr<Executor>(
          new InsertExec(plan, std::move(children[0]), ctx));
    case PlanKind::kDelete:
      return std::unique_ptr<Executor>(new DeleteExec(plan, ctx));
    case PlanKind::kUpdate:
      return std::unique_ptr<Executor>(new UpdateExec(plan, ctx));
  }
  return Status::Internal("unknown plan kind");
}

StatusOr<std::vector<Tuple>> ExecutePlan(const PhysicalPlan* plan,
                                         ExecContext* ctx) {
  auto exec = CreateExecutor(plan, ctx);
  if (!exec.ok()) return exec.status();
  STAGEDB_RETURN_IF_ERROR((*exec)->Init());
  std::vector<Tuple> out;
  Tuple t;
  while (true) {
    auto more = (*exec)->Next(&t);
    if (!more.ok()) return more.status();
    if (!*more) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace stagedb::exec
