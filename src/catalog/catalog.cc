#include "catalog/catalog.h"

#include "common/string_util.h"

namespace stagedb::catalog {

StatusOr<TableInfo*> Catalog::CreateTable(const std::string& name,
                                          const Schema& schema) {
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists(StrFormat("table '%s'", name.c_str()));
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table must have at least one column");
  }
  auto heap_or = storage::HeapFile::Create(pool_);
  if (!heap_or.ok()) return heap_or.status();
  auto info = std::make_unique<TableInfo>();
  info->id = next_table_id_++;
  info->name = name;
  info->schema = schema.Qualified(name);
  info->heap = std::move(*heap_or);
  info->stats = std::make_unique<TableStats>(schema.num_columns());
  symbols_.Intern(name);
  for (const Column& c : schema.columns()) symbols_.Intern(c.name);
  TableInfo* ptr = info.get();
  tables_[name] = std::move(info);
  BumpVersion();
  return ptr;
}

StatusOr<TableInfo*> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s'", name.c_str()));
  }
  return it->second.get();
}

StatusOr<TableInfo*> Catalog::GetTableById(TableId id) const {
  MutexLock lock(mu_);
  for (const auto& [name, info] : tables_) {
    if (info->id == id) return info.get();
  }
  return Status::NotFound(StrFormat("table id %d", id));
}

Status Catalog::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(StrFormat("table '%s'", name.c_str()));
  }
  // Drop dependent indexes.
  const TableId id = it->second->id;
  for (auto iit = indexes_.begin(); iit != indexes_.end();) {
    if (iit->second->table_id == id) {
      iit = indexes_.erase(iit);
    } else {
      ++iit;
    }
  }
  tables_.erase(it);
  BumpVersion();
  return Status::OK();
}

StatusOr<IndexInfo*> Catalog::CreateIndex(const std::string& index_name,
                                          const std::string& table_name,
                                          const std::string& column_name) {
  TableInfo* table;
  {
    auto t = GetTable(table_name);
    if (!t.ok()) return t.status();
    table = *t;
  }
  MutexLock lock(mu_);
  if (indexes_.count(index_name)) {
    return Status::AlreadyExists(StrFormat("index '%s'", index_name.c_str()));
  }
  auto col_or = table->schema.Find(column_name);
  if (!col_or.ok()) return col_or.status();
  const size_t col = *col_or;
  if (table->schema.column(col).type != TypeId::kInt64) {
    return Status::NotSupported("indexes require an INTEGER column");
  }
  auto tree_or = storage::BPlusTree::Create(pool_);
  if (!tree_or.ok()) return tree_or.status();
  auto info = std::make_unique<IndexInfo>();
  info->id = next_index_id_++;
  info->name = index_name;
  info->table_id = table->id;
  info->column = col;
  info->tree = std::move(*tree_or);
  // Backfill from existing rows. Only chain heads are indexed (end == kMax,
  // or an in-flight delete mark which is still the newest version). Two
  // heads sharing a key are a duplicate unless exactly one is live and the
  // other carries an in-flight delete mark: then the live one owns the key,
  // whichever the scan meets first.
  auto it = table->heap->Scan();
  while (it.Next()) {
    const storage::VersionHeader h = storage::DecodeVersionHeader(it.record());
    if (h.end != storage::kMaxTs && h.end >= 0) continue;  // dead version
    auto tuple_or =
        DecodeTuple(table->schema, storage::RowPayload(it.record()));
    if (!tuple_or.ok()) return tuple_or.status();
    const Value& key = (*tuple_or)[col];
    if (key.is_null()) continue;
    const int64_t k = key.int_value();
    Status inserted = info->tree->Insert(k, it.rid());
    if (inserted.code() != StatusCode::kAlreadyExists) {
      STAGEDB_RETURN_IF_ERROR(inserted);
      continue;
    }
    auto earlier_or = info->tree->Get(k);
    if (!earlier_or.ok()) return earlier_or.status();
    std::string earlier;
    STAGEDB_RETURN_IF_ERROR(table->heap->Get(*earlier_or, &earlier));
    const bool earlier_live =
        storage::DecodeVersionHeader(earlier).end == storage::kMaxTs;
    const bool live = h.end == storage::kMaxTs;
    if (earlier_live == live) {
      return Status::AlreadyExists(
          StrFormat("duplicate key %lld in index '%s'",
                    static_cast<long long>(k), index_name.c_str()));
    }
    if (live) {
      STAGEDB_RETURN_IF_ERROR(info->tree->Delete(k));
      STAGEDB_RETURN_IF_ERROR(info->tree->Insert(k, it.rid()));
    }
  }
  STAGEDB_RETURN_IF_ERROR(it.status());
  IndexInfo* ptr = info.get();
  indexes_[index_name] = std::move(info);
  table->indexes.push_back(ptr);
  BumpVersion();
  return ptr;
}

StatusOr<IndexInfo*> Catalog::GetIndex(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound(StrFormat("index '%s'", name.c_str()));
  }
  return it->second.get();
}

IndexInfo* Catalog::FindIndexOn(TableId table, size_t column) const {
  MutexLock lock(mu_);
  for (const auto& [name, info] : indexes_) {
    if (info->table_id == table && info->column == column) return info.get();
  }
  return nullptr;
}

StatusOr<storage::Rid> Catalog::InsertTuple(TableInfo* table,
                                            const Tuple& tuple,
                                            storage::MvccTxn* txn) {
  if (tuple.size() != table->schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu values, got %zu",
                  table->schema.num_columns(), tuple.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!TypesCompatible(tuple[i].type(), table->schema.column(i).type)) {
      return Status::InvalidArgument(
          StrFormat("type mismatch in column '%s'",
                    table->schema.column(i).name.c_str()));
    }
  }
  const std::string bytes = EncodeTuple(table->schema, tuple);
  if (txn != nullptr) {
    storage::Rid rid;
    STAGEDB_RETURN_IF_ERROR(
        MvccInsertIndexes(table, tuple, bytes, txn, &rid));
    return rid;
  }
  // Bootstrap/recovery install: committed before every snapshot (begin = 0).
  std::string record = storage::EncodeVersionHeader(storage::VersionHeader{});
  record.append(bytes);
  auto rid_or = table->heap->Insert(record);
  if (!rid_or.ok()) return rid_or.status();
  table->stats->RecordInsert(tuple);
  for (IndexInfo* index : table->indexes) {
    const Value& key = tuple[index->column];
    if (key.is_null()) continue;
    STAGEDB_RETURN_IF_ERROR(index->tree->Insert(key.int_value(), *rid_or));
  }
  return *rid_or;
}

Status Catalog::MvccInsertIndexes(TableInfo* table, const Tuple& tuple,
                                  std::string_view payload,
                                  storage::MvccTxn* txn,
                                  storage::Rid* out_rid) {
  const storage::MvccReadView view = txn->View();
  storage::VersionHeader header;
  header.begin = -txn->id;

  // Unindexed fast path: no key uniqueness to defend, so no structural lock.
  if (table->indexes.empty()) {
    std::string record = storage::EncodeVersionHeader(header);
    record.append(payload);
    auto rid_or = table->heap->Insert(record);
    if (!rid_or.ok()) return rid_or.status();
    table->stats->RecordInsert(tuple);
    storage::MvccWrite w;
    w.table_id = table->id;
    w.rid = *rid_or;
    w.op = storage::MvccWriteOp::kInsert;
    txn->writes.push_back(std::move(w));
    *out_rid = *rid_or;
    return Status::OK();
  }

  MutexLock lock(structural_mu_);
  // Phase 1: classify each index head for the new keys. First-updater-wins:
  // a head carrying another transaction's marker, or one whose install or
  // delete committed after our snapshot, is a write-write conflict; a head
  // live in our view is a genuine duplicate; a head dead in our view gets
  // its entry replaced and becomes the new version's prev link.
  struct IndexPlan {
    IndexInfo* index;
    int64_t key;
    bool replace;
    storage::Rid old_head;
  };
  std::vector<IndexPlan> plans;
  plans.reserve(table->indexes.size());
  for (IndexInfo* index : table->indexes) {
    const Value& key = tuple[index->column];
    if (key.is_null()) continue;
    const int64_t k = key.int_value();
    auto head_or = index->tree->Get(k);
    if (!head_or.ok()) {
      if (!head_or.status().IsNotFound()) return head_or.status();
      plans.push_back(IndexPlan{index, k, false, {}});
      continue;
    }
    std::string head_record;
    STAGEDB_RETURN_IF_ERROR(table->heap->Get(*head_or, &head_record));
    const storage::VersionHeader h =
        storage::DecodeVersionHeader(head_record);
    const bool foreign_marker = (h.begin < 0 && -h.begin != view.self) ||
                                (h.end < 0 && -h.end != view.self);
    if (foreign_marker || h.begin > view.snapshot ||
        (h.end > 0 && h.end != storage::kMaxTs && h.end > view.snapshot)) {
      return Status::Aborted("write-write conflict");
    }
    if (h.end == storage::kMaxTs) {
      return Status::AlreadyExists(
          StrFormat("duplicate key %lld in index '%s'",
                    static_cast<long long>(k), index->name.c_str()));
    }
    plans.push_back(IndexPlan{index, k, true, *head_or});
  }
  // The prev link comes from the first replacing index. With multiple
  // indexes a key re-bound to a different logical row would need one chain
  // per index; that history loss is a documented limitation (DESIGN.md §12).
  for (const IndexPlan& p : plans) {
    if (p.replace) {
      header.prev = p.old_head;
      break;
    }
  }
  std::string record = storage::EncodeVersionHeader(header);
  record.append(payload);
  auto rid_or = table->heap->Insert(record);
  if (!rid_or.ok()) return rid_or.status();
  // Record the write before touching the trees so a mid-apply error still
  // leaves MvccAbort enough undo information for what actually happened.
  storage::MvccWrite w;
  w.table_id = table->id;
  w.rid = *rid_or;
  w.op = storage::MvccWriteOp::kInsert;
  txn->writes.push_back(std::move(w));
  storage::MvccWrite& recorded = txn->writes.back();
  table->stats->RecordInsert(tuple);
  for (const IndexPlan& p : plans) {
    if (p.replace) {
      STAGEDB_RETURN_IF_ERROR(p.index->tree->Delete(p.key));
    }
    STAGEDB_RETURN_IF_ERROR(p.index->tree->Insert(p.key, *rid_or));
    storage::MvccIndexUndo undo;
    undo.index_id = p.index->id;
    undo.key = p.key;
    undo.replaced = p.replace;
    undo.old_head = p.old_head;
    recorded.index_undo.push_back(undo);
  }
  *out_rid = *rid_or;
  return Status::OK();
}

Status Catalog::DeleteTuple(TableInfo* table, const storage::Rid& rid,
                            storage::MvccTxn* txn) {
  if (txn != nullptr) {
    // Mark-only delete: the version (and its index entries) stays in place
    // for older snapshots; FinalizeCommit stamps the end timestamp and
    // MvccVacuum reclaims it once no snapshot can see it.
    STAGEDB_RETURN_IF_ERROR(
        mvcc_->MarkDeleteVersion(txn, table->id, table->heap.get(), rid));
    table->stats->RecordDelete();
    return Status::OK();
  }
  std::string record;
  STAGEDB_RETURN_IF_ERROR(table->heap->Get(rid, &record));
  auto tuple_or = DecodeTuple(table->schema, storage::RowPayload(record));
  if (!tuple_or.ok()) return tuple_or.status();
  STAGEDB_RETURN_IF_ERROR(table->heap->Delete(rid));
  table->stats->RecordDelete();
  for (IndexInfo* index : table->indexes) {
    const Value& key = (*tuple_or)[index->column];
    if (key.is_null()) continue;
    // The entry may already point at a newer version of this key.
    auto head_or = index->tree->Get(key.int_value());
    if (head_or.ok() && !(*head_or == rid)) continue;
    STAGEDB_RETURN_IF_ERROR(index->tree->Delete(key.int_value()));
  }
  return Status::OK();
}

Status Catalog::MvccCommit(storage::MvccTxn* txn, storage::Ts cts) {
  return mvcc_->FinalizeCommit(
      txn, cts, [this](int32_t table_id) -> storage::HeapFile* {
        auto table_or = GetTableById(table_id);
        return table_or.ok() ? (*table_or)->heap.get() : nullptr;
      });
}

Status Catalog::MvccAbort(storage::MvccTxn* txn) {
  Status status;
  const auto keep_first = [&status](const Status& s) {
    if (!s.ok() && status.ok()) status = s;
  };
  for (auto it = txn->writes.rbegin(); it != txn->writes.rend(); ++it) {
    const storage::MvccWrite& w = *it;
    auto table_or = GetTableById(w.table_id);
    if (!table_or.ok()) {
      keep_first(table_or.status());
      continue;
    }
    TableInfo* table = *table_or;
    if (w.op == storage::MvccWriteOp::kInsert) {
      MutexLock lock(structural_mu_);
      for (auto uit = w.index_undo.rbegin(); uit != w.index_undo.rend();
           ++uit) {
        IndexInfo* index = nullptr;
        for (IndexInfo* candidate : table->indexes) {
          if (candidate->id == uit->index_id) index = candidate;
        }
        if (index == nullptr) continue;  // index dropped since
        keep_first(index->tree->Delete(uit->key));
        if (uit->replaced) {
          keep_first(index->tree->Insert(uit->key, uit->old_head));
        }
      }
      keep_first(table->heap->Delete(w.rid));
      table->stats->RecordDelete();
    } else {
      // Clear the delete mark so the version is live again.
      std::string record;
      Status s = table->heap->Get(w.rid, &record);
      if (!s.ok()) {
        keep_first(s);
        continue;
      }
      storage::VersionHeader h = storage::DecodeVersionHeader(record);
      if (h.end != -txn->id) continue;  // never marked (failed statement)
      h.end = storage::kMaxTs;
      keep_first(table->heap->OverwritePrefix(
          w.rid, storage::EncodeVersionHeader(h)));
      auto tuple_or =
          DecodeTuple(table->schema, storage::RowPayload(record));
      if (tuple_or.ok()) {
        table->stats->RecordInsert(*tuple_or);
      } else {
        keep_first(tuple_or.status());
      }
    }
  }
  return status;
}

StatusOr<int64_t> Catalog::MvccVacuum() {
  const storage::Ts horizon = mvcc_->VacuumHorizon();
  const auto dead_at_horizon = [horizon](const storage::VersionHeader& h) {
    return h.end >= 0 && h.end != storage::kMaxTs && h.end <= horizon;
  };
  int64_t reclaimed = 0;
  for (const std::string& name : TableNames()) {
    auto table_or = GetTable(name);
    if (!table_or.ok()) continue;  // dropped since listing
    TableInfo* table = *table_or;
    // Collect candidates without the structural lock; each is re-verified
    // under it before being touched. Committed end timestamps are immutable,
    // so a candidate can only disappear (another vacuum pass), never revive.
    std::vector<storage::Rid> candidates;
    auto it = table->heap->Scan();
    while (it.Next()) {
      if (dead_at_horizon(storage::DecodeVersionHeader(it.record()))) {
        candidates.push_back(it.rid());
      }
    }
    STAGEDB_RETURN_IF_ERROR(it.status());
    for (const storage::Rid& rid : candidates) {
      MutexLock lock(structural_mu_);
      std::string record;
      Status s = table->heap->Get(rid, &record);
      if (s.IsNotFound()) continue;
      STAGEDB_RETURN_IF_ERROR(s);
      if (!dead_at_horizon(storage::DecodeVersionHeader(record))) continue;
      if (!table->indexes.empty()) {
        // A dead head means the whole chain is dead (older versions ended
        // even earlier), so the tree entry goes too. Entries pointing at a
        // newer version stay: their prev link will dangle, which readers
        // treat as end-of-chain.
        auto tuple_or =
            DecodeTuple(table->schema, storage::RowPayload(record));
        if (!tuple_or.ok()) return tuple_or.status();
        for (IndexInfo* index : table->indexes) {
          const Value& key = (*tuple_or)[index->column];
          if (key.is_null()) continue;
          auto head_or = index->tree->Get(key.int_value());
          if (head_or.ok() && *head_or == rid) {
            STAGEDB_RETURN_IF_ERROR(index->tree->Delete(key.int_value()));
          }
        }
      }
      STAGEDB_RETURN_IF_ERROR(table->heap->Delete(rid));
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::vector<std::string> Catalog::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

}  // namespace stagedb::catalog
