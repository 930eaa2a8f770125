#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "exec/executor.h"
#include "exec/row_utils.h"
#include "optimizer/bound_expr.h"

namespace stagedb::exec {

using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;
using optimizer::BoundExpr;
using optimizer::Eval;
using optimizer::EvalPredicate;
using optimizer::PhysicalPlan;
using optimizer::PlanKind;
using parser::AggFunc;

// ---------------------------------------------------------- ScanRowReader --

ScanRowReader::ScanRowReader(const PhysicalPlan& node) : node_(node) {
  const size_t columns = node.table->schema.num_columns();
  // Where each table column lands in the emitted row: its rank in the read
  // set (every column when the node has none).
  catalog::SlotMap slots(columns);
  for (size_t i = 0; i < columns; ++i) {
    const bool read = node.read_set.empty() || node.read_set[i];
    slots[i] = read ? width_++ : catalog::kSkipColumn;
  }
  // The predicate names emitted slots; an index read rechecks the entry's
  // key before anything else.
  catalog::ColumnSet early(width_, node.predicate == nullptr);
  if (node.predicate != nullptr) node.predicate->MarkColumns(&early);
  if (node.index != nullptr) {
    key_slot_ = slots[node.index->column];
    if (key_slot_ < width_) early[key_slot_] = true;
  }
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

StatusOr<ScanRow> ScanRowReader::ReadRecord(const storage::MvccReadView& view,
                                            std::string_view record,
                                            Tuple* out) const {
  if (!storage::VersionVisible(storage::DecodeVersionHeader(record), view)) {
    return ScanRow::kInvisible;
  }
  const std::string_view payload = storage::RowPayload(record);
  out->clear();
  out->resize(width_);
  STAGEDB_RETURN_IF_ERROR(
      catalog::DecodeTuple(node_.table->schema, payload, first_, out));
  return Qualify(payload, out);
}

StatusOr<ScanRow> ScanRowReader::ReadIndexed(const storage::MvccReadView& view,
                                             int64_t key, storage::Rid head,
                                             storage::Rid* rid, Tuple* out) {
  if (key_slot_ >= width_) {
    return Status::Internal("index scan does not read its key column");
  }
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
  out->clear();
  out->resize(width_);
  STAGEDB_RETURN_IF_ERROR(
      catalog::DecodeTuple(node_.table->schema, payload, first_, out));
  // Key recheck: with several indexes a chain can cross keys (DESIGN.md
  // §12), so a visible version whose key is not `key` does not match in
  // this view.
  const Value& v = (*out)[key_slot_];
  if (v.is_null() || v.int_value() != key) return ScanRow::kInvisible;
  *rid = at;
  return Qualify(payload, out);
}

StatusOr<ScanRow> ScanRowReader::Qualify(std::string_view payload,
                                         Tuple* out) const {
  if (node_.predicate != nullptr) {
    auto pass = EvalPredicate(*node_.predicate, *out);
    if (!pass.ok()) return pass.status();
    if (!*pass) return ScanRow::kRejected;
  }
  if (has_rest_) {
    STAGEDB_RETURN_IF_ERROR(
        catalog::DecodeTuple(node_.table->schema, payload, rest_, out));
  }
  return ScanRow::kQualified;
}

namespace {

// ------------------------------------------------------------ group keys ---

struct GroupKey {
  std::vector<Value> values;
  bool operator==(const GroupKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].Compare(o.values[i]) != 0) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : k.values) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

StatusOr<GroupKey> KeyFromColumns(const Tuple& tuple,
                                  const std::vector<size_t>& columns) {
  GroupKey key;
  key.values.reserve(columns.size());
  for (size_t c : columns) {
    if (c >= tuple.size()) return Status::Internal("join key out of range");
    key.values.push_back(tuple[c]);
  }
  return key;
}

// --------------------------------------------------------------- SeqScan ---

class SeqScanExec : public Executor {
 public:
  SeqScanExec(const PhysicalPlan* plan, ExecContext* ctx)
      : Executor(plan->schema),
        plan_(plan),
        ctx_(ctx),
        iter_(plan->table->heap->Scan()),
        reader_(*plan) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kSeqScan, plan->table->name);
    }
  }
  Status Init() override {
    view_ = MvccViewFor(ctx_);
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    if (ctx_->trace != nullptr) ctx_->trace->CountInvocation(trace_id_);
    while (iter_.Next()) {
      auto row = reader_.ReadRecord(view_, iter_.record(), out);
      if (!row.ok()) return row.status();
      if (*row == ScanRow::kInvisible) continue;  // outside our snapshot
      if (ctx_->trace != nullptr) ctx_->trace->CountRead(trace_id_);
      if (*row == ScanRow::kRejected) continue;
      if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
      return true;
    }
    STAGEDB_RETURN_IF_ERROR(iter_.status());
    return false;
  }

 private:
  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  storage::HeapFile::Iterator iter_;
  ScanRowReader reader_;
  storage::MvccReadView view_;
  size_t trace_id_ = 0;
};

// -------------------------------------------------------------- IndexScan --

class IndexScanExec : public Executor {
 public:
  IndexScanExec(const PhysicalPlan* plan, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), ctx_(ctx), reader_(*plan) {
    if (ctx_->trace != nullptr) {
      trace_id_ =
          ctx_->trace->Register(PlanKind::kIndexScan, plan->table->name);
    }
  }
  Status Init() override {
    view_ = MvccViewFor(ctx_);
    return plan_->index->tree->Scan(plan_->index_lo, plan_->index_hi,
                                    &matches_);
  }
  StatusOr<bool> Next(Tuple* out) override {
    if (ctx_->trace != nullptr) ctx_->trace->CountInvocation(trace_id_);
    while (pos_ < matches_.size()) {
      const auto& [key, head] = matches_[pos_++];
      storage::Rid rid;
      auto row = reader_.ReadIndexed(view_, key, head, &rid, out);
      if (!row.ok()) return row.status();
      if (*row == ScanRow::kInvisible) continue;
      if (ctx_->trace != nullptr) ctx_->trace->CountRead(trace_id_);
      if (*row == ScanRow::kRejected) continue;
      if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
      return true;
    }
    return false;
  }

 private:
  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  ScanRowReader reader_;
  std::vector<std::pair<int64_t, storage::Rid>> matches_;
  size_t pos_ = 0;
  storage::MvccReadView view_;
  size_t trace_id_ = 0;
};

// ----------------------------------------------------------------- Filter --

class FilterExec : public Executor {
 public:
  FilterExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
             ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kFilter, "");
    }
  }
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      auto more = child_->Next(out);
      if (!more.ok()) return more;
      if (!*more) return false;
      auto pass = EvalPredicate(*plan_->predicate, *out);
      if (!pass.ok()) return pass.status();
      if (*pass) {
        if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
        return true;
      }
    }
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  size_t trace_id_ = 0;
};

// ---------------------------------------------------------------- Project --

class ProjectExec : public Executor {
 public:
  ProjectExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
              ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kProject, "");
    }
  }
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    Tuple in;
    auto more = child_->Next(&in);
    if (!more.ok()) return more;
    if (!*more) return false;
    out->clear();
    out->reserve(plan_->exprs.size());
    for (const auto& expr : plan_->exprs) {
      auto v = Eval(*expr, in);
      if (!v.ok()) return v.status();
      out->push_back(std::move(*v));
    }
    if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  size_t trace_id_ = 0;
};

// ---------------------------------------------------------- NestedLoopJoin --

class NestedLoopJoinExec : public Executor {
 public:
  NestedLoopJoinExec(const PhysicalPlan* plan, std::unique_ptr<Executor> left,
                     std::unique_ptr<Executor> right, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), left_(std::move(left)),
        right_(std::move(right)), ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kNestedLoopJoin, "");
    }
  }
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(left_->Init());
    STAGEDB_RETURN_IF_ERROR(right_->Init());
    // Block nested loop: materialize the inner (right) side once.
    Tuple t;
    while (true) {
      auto more = right_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      inner_.push_back(t);
    }
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      if (!outer_valid_) {
        auto more = left_->Next(&outer_);
        if (!more.ok()) return more;
        if (!*more) return false;
        outer_valid_ = true;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_.size()) {
        const Tuple& inner = inner_[inner_pos_++];
        Tuple joined = JoinRows(outer_, inner);
        bool pass = true;
        if (plan_->predicate) {
          auto ok = EvalPredicate(*plan_->predicate, joined);
          if (!ok.ok()) return ok.status();
          pass = *ok;
        }
        if (pass) {
          *out = std::move(joined);
          if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
          return true;
        }
      }
      outer_valid_ = false;
    }
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ExecContext* ctx_;
  std::vector<Tuple> inner_;
  Tuple outer_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
  size_t trace_id_ = 0;
};

// --------------------------------------------------------------- HashJoin --

class HashJoinExec : public Executor {
 public:
  HashJoinExec(const PhysicalPlan* plan, std::unique_ptr<Executor> left,
               std::unique_ptr<Executor> right, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), left_(std::move(left)),
        right_(std::move(right)), ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kHashJoin, "");
    }
  }
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(left_->Init());
    STAGEDB_RETURN_IF_ERROR(right_->Init());
    // Build on the right input.
    Tuple t;
    while (true) {
      auto more = right_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      auto key = KeyFromColumns(t, plan_->right_keys);
      if (!key.ok()) return key.status();
      bool has_null = false;
      for (const Value& v : key->values) has_null |= v.is_null();
      if (has_null) continue;  // NULL keys never match
      table_[*key].push_back(t);
    }
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        const Tuple& inner = (*matches_)[match_pos_++];
        Tuple joined = JoinRows(probe_, inner);
        if (plan_->predicate) {
          auto ok = EvalPredicate(*plan_->predicate, joined);
          if (!ok.ok()) return ok.status();
          if (!*ok) continue;
        }
        *out = std::move(joined);
        if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
        return true;
      }
      auto more = left_->Next(&probe_);
      if (!more.ok()) return more;
      if (!*more) return false;
      auto key = KeyFromColumns(probe_, plan_->left_keys);
      if (!key.ok()) return key.status();
      auto it = table_.find(*key);
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ExecContext* ctx_;
  std::unordered_map<GroupKey, std::vector<Tuple>, GroupKeyHash> table_;
  Tuple probe_;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
  size_t trace_id_ = 0;
};

// -------------------------------------------------------------- MergeJoin --

class MergeJoinExec : public Executor {
 public:
  MergeJoinExec(const PhysicalPlan* plan, std::unique_ptr<Executor> left,
                std::unique_ptr<Executor> right, ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), left_(std::move(left)),
        right_(std::move(right)), ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kMergeJoin, "");
    }
  }
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(left_->Init());
    STAGEDB_RETURN_IF_ERROR(right_->Init());
    STAGEDB_RETURN_IF_ERROR(Materialize(left_.get(), &lrows_));
    STAGEDB_RETURN_IF_ERROR(Materialize(right_.get(), &rrows_));
    SortBy(&lrows_, plan_->left_keys);
    SortBy(&rrows_, plan_->right_keys);
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    while (true) {
      // Emit the cross product of the current key groups.
      if (li_ < lgroup_end_ && ri_ < rgroup_end_) {
        Tuple joined = JoinRows(lrows_[li_], rrows_[ri_]);
        ++ri_;
        if (ri_ == rgroup_end_) {
          ri_ = rgroup_begin_;
          ++li_;
          if (li_ == lgroup_end_) {
            li_ = lgroup_end_;
            ri_ = rgroup_end_;
          }
        }
        if (plan_->predicate) {
          auto ok = EvalPredicate(*plan_->predicate, joined);
          if (!ok.ok()) return ok.status();
          if (!*ok) continue;
        }
        *out = std::move(joined);
        if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
        return true;
      }
      // Advance to the next matching key group.
      if (lgroup_end_ >= lrows_.size() || rgroup_end_ >= rrows_.size()) {
        if (!AdvanceGroups()) return false;
      } else if (!AdvanceGroups()) {
        return false;
      }
    }
  }

 private:
  static Status Materialize(Executor* exec, std::vector<Tuple>* out) {
    Tuple t;
    while (true) {
      auto more = exec->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
      out->push_back(t);
    }
  }
  void SortBy(std::vector<Tuple>* rows, const std::vector<size_t>& keys) {
    std::stable_sort(rows->begin(), rows->end(),
                     [&](const Tuple& a, const Tuple& b) {
                       for (size_t k : keys) {
                         const int c = a[k].Compare(b[k]);
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
  }
  int CompareKeys(const Tuple& l, const Tuple& r) const {
    for (size_t i = 0; i < plan_->left_keys.size(); ++i) {
      const int c = l[plan_->left_keys[i]].Compare(r[plan_->right_keys[i]]);
      if (c != 0) return c;
    }
    return 0;
  }
  bool KeyHasNull(const Tuple& t, const std::vector<size_t>& keys) const {
    for (size_t k : keys) {
      if (t[k].is_null()) return true;
    }
    return false;
  }
  /// Positions the group cursors on the next pair of equal keys.
  bool AdvanceGroups() {
    size_t l = lgroup_end_, r = rgroup_end_;
    while (l < lrows_.size() && r < rrows_.size()) {
      if (KeyHasNull(lrows_[l], plan_->left_keys)) {
        ++l;
        continue;
      }
      if (KeyHasNull(rrows_[r], plan_->right_keys)) {
        ++r;
        continue;
      }
      const int c = CompareKeys(lrows_[l], rrows_[r]);
      if (c < 0) {
        ++l;
      } else if (c > 0) {
        ++r;
      } else {
        // Found matching groups; find their extents.
        lgroup_begin_ = l;
        lgroup_end_ = l + 1;
        while (lgroup_end_ < lrows_.size() &&
               CompareKeys(lrows_[lgroup_end_], rrows_[r]) == 0) {
          ++lgroup_end_;
        }
        rgroup_begin_ = r;
        rgroup_end_ = r + 1;
        while (rgroup_end_ < rrows_.size() &&
               CompareKeys(lrows_[l], rrows_[rgroup_end_]) == 0) {
          ++rgroup_end_;
        }
        li_ = lgroup_begin_;
        ri_ = rgroup_begin_;
        return true;
      }
    }
    return false;
  }

  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ExecContext* ctx_;
  std::vector<Tuple> lrows_, rrows_;
  size_t lgroup_begin_ = 0, lgroup_end_ = 0;
  size_t rgroup_begin_ = 0, rgroup_end_ = 0;
  size_t li_ = 0, ri_ = 0;
  size_t trace_id_ = 0;
};

// ------------------------------------------------------------------- Sort --

class SortExec : public Executor {
 public:
  SortExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
           ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kSort, "");
    }
  }
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(child_->Init());
    Tuple t;
    while (true) {
      auto more = child_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      rows_.push_back(t);
    }
    // Precompute sort keys, then sort.
    std::vector<std::vector<Value>> keys(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) {
      for (const auto& key : plan_->sort_keys) {
        auto v = Eval(*key.expr, rows_[i]);
        if (!v.ok()) return v.status();
        keys[i].push_back(std::move(*v));
      }
    }
    std::vector<size_t> order(rows_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < plan_->sort_keys.size(); ++k) {
        int c = keys[a][k].Compare(keys[b][k]);
        if (plan_->sort_keys[k].descending) c = -c;
        if (c != 0) return c < 0;
      }
      return false;
    });
    std::vector<Tuple> sorted;
    sorted.reserve(rows_.size());
    for (size_t i : order) sorted.push_back(std::move(rows_[i]));
    rows_ = std::move(sorted);
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_++]);
    if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
  size_t trace_id_ = 0;
};

// ---------------------------------------------------------- HashAggregate --

/// Aggregate accumulator (one per aggregate function per group).
struct AggAccumulator {
  int64_t count = 0;
  double sum = 0;
  Value min, max;
  bool any = false;
};

class HashAggExec : public Executor {
 public:
  HashAggExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
              ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {
    if (ctx_->trace != nullptr) {
      trace_id_ = ctx_->trace->Register(PlanKind::kHashAggregate, "");
    }
  }
  Status Init() override {
    STAGEDB_RETURN_IF_ERROR(child_->Init());
    Tuple t;
    while (true) {
      auto more = child_->Next(&t);
      if (!more.ok()) return more.status();
      if (!*more) break;
      GroupKey key;
      for (const auto& expr : plan_->exprs) {
        auto v = Eval(*expr, t);
        if (!v.ok()) return v.status();
        key.values.push_back(std::move(*v));
      }
      auto& accs = groups_[key];
      if (accs.empty()) accs.resize(plan_->aggregates.size());
      for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
        const optimizer::AggSpec& spec = plan_->aggregates[i];
        Value v = Value::Int(1);  // COUNT(*) counts rows
        if (spec.arg) {
          auto val = Eval(*spec.arg, t);
          if (!val.ok()) return val.status();
          v = std::move(*val);
          if (v.is_null()) continue;  // SQL: aggregates skip NULLs
        }
        AggAccumulator& acc = accs[i];
        acc.any = true;
        ++acc.count;
        if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
          acc.sum += v.AsDouble();
        }
        if (spec.func == AggFunc::kMin &&
            (acc.min.is_null() || v.Compare(acc.min) < 0)) {
          acc.min = v;
        }
        if (spec.func == AggFunc::kMax &&
            (acc.max.is_null() || v.Compare(acc.max) > 0)) {
          acc.max = v;
        }
      }
    }
    // Global aggregation over zero rows still yields one output row.
    if (groups_.empty() && plan_->exprs.empty()) {
      groups_[GroupKey{}] =
          std::vector<AggAccumulator>(plan_->aggregates.size());
    }
    iter_ = groups_.begin();
    return Status::OK();
  }
  StatusOr<bool> Next(Tuple* out) override {
    if (iter_ == groups_.end()) return false;
    out->clear();
    for (const Value& v : iter_->first.values) out->push_back(v);
    for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
      const optimizer::AggSpec& spec = plan_->aggregates[i];
      const AggAccumulator& acc = iter_->second[i];
      switch (spec.func) {
        case AggFunc::kCount:
          out->push_back(Value::Int(acc.count));
          break;
        case AggFunc::kSum:
          if (!acc.any) {
            out->push_back(Value::Null());
          } else if (spec.result_type == TypeId::kInt64) {
            out->push_back(Value::Int(static_cast<int64_t>(acc.sum)));
          } else {
            out->push_back(Value::Double(acc.sum));
          }
          break;
        case AggFunc::kAvg:
          out->push_back(acc.any ? Value::Double(acc.sum / acc.count)
                                 : Value::Null());
          break;
        case AggFunc::kMin:
          out->push_back(acc.min);
          break;
        case AggFunc::kMax:
          out->push_back(acc.max);
          break;
      }
    }
    ++iter_;
    if (ctx_->trace != nullptr) ctx_->trace->CountTuple(trace_id_);
    return true;
  }

 private:
  const PhysicalPlan* plan_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  std::unordered_map<GroupKey, std::vector<AggAccumulator>, GroupKeyHash>
      groups_;
  std::unordered_map<GroupKey, std::vector<AggAccumulator>,
                     GroupKeyHash>::iterator iter_;
  size_t trace_id_ = 0;
};

// ------------------------------------------------------------------ Limit --

class LimitExec : public Executor {
 public:
  LimitExec(const PhysicalPlan* plan, std::unique_ptr<Executor> child,
            ExecContext* ctx)
      : Executor(plan->schema), plan_(plan), child_(std::move(child)),
        ctx_(ctx) {}
  Status Init() override { return child_->Init(); }
  StatusOr<bool> Next(Tuple* out) override {
    (void)ctx_;
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
  ExecContext* ctx_;
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
      return std::unique_ptr<Executor>(new NestedLoopJoinExec(
          plan, std::move(children[0]), std::move(children[1]), ctx));
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
      // The partial/merge split of a dop>1 aggregation exists only for the
      // staged engine's partition packets; the volcano engine always plans
      // at max_dop=1 (see DatabaseOptions), so seeing one here is a wiring
      // bug, not a user error.
      if (plan->agg_mode != optimizer::AggMode::kComplete) {
        return Status::Internal(
            "partial/merge aggregation requires the staged engine");
      }
      return std::unique_ptr<Executor>(
          new HashAggExec(plan, std::move(children[0]), ctx));
    case PlanKind::kLimit:
      return std::unique_ptr<Executor>(
          new LimitExec(plan, std::move(children[0]), ctx));
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
