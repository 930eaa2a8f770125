#include "server/database.h"

#include <utility>

#include "catalog/tuple.h"
#include "common/string_util.h"
#include "engine/commit_stage.h"
#include "engine/staged_engine.h"
#include "engine/vacuum_stage.h"
#include "parser/parser.h"
#include "storage/mvcc.h"

namespace stagedb::server {

using catalog::Schema;
using catalog::TypeId;
using optimizer::PhysicalPlan;
using optimizer::Planner;

namespace {

// --- WAL schema payloads -----------------------------------------------------
// kCreateTable records carry the table's schema in `after` so recovery can
// rebuild it without any external catalog file. Unit separator / record
// separator framing: "name \x1f type" per column, columns joined by \x1e.

constexpr char kUnitSep = '\x1f';
constexpr char kColSep = '\x1e';

std::string SerializeSchema(const std::vector<catalog::Column>& cols) {
  std::string out;
  for (const auto& col : cols) {
    if (!out.empty()) out.push_back(kColSep);
    out += col.name;
    out.push_back(kUnitSep);
    out += std::to_string(static_cast<int>(col.type));
  }
  return out;
}

StatusOr<std::vector<catalog::Column>> DeserializeSchema(
    const std::string& payload) {
  std::vector<catalog::Column> cols;
  size_t pos = 0;
  while (pos <= payload.size()) {
    size_t end = payload.find(kColSep, pos);
    if (end == std::string::npos) end = payload.size();
    const std::string entry = payload.substr(pos, end - pos);
    const size_t sep = entry.find(kUnitSep);
    if (sep == std::string::npos) {
      return Status::Corruption("wal: malformed schema payload");
    }
    catalog::Column col;
    col.name = entry.substr(0, sep);
    col.type = static_cast<TypeId>(std::stoi(entry.substr(sep + 1)));
    cols.push_back(std::move(col));
    if (end == payload.size()) break;
    pos = end + 1;
  }
  return cols;
}

}  // namespace

// -------------------------------------------------------- DatabaseWalSink ---

/// The exec::WalSink over the database's WAL: encodes tuples with the
/// table's schema and appends logical records under one wal txn id. Appends
/// only — durability comes from the commit path's Sync barrier.
class DatabaseWalSink : public exec::WalSink {
 public:
  DatabaseWalSink(Database* db, int64_t txn_id) : db_(db), txn_id_(txn_id) {}

  Status LogInsert(catalog::TableInfo* table,
                   const catalog::Tuple& tuple) override {
    storage::WalRecord r;
    r.txn_id = txn_id_;
    r.type = storage::WalRecord::Type::kInsert;
    r.table_id = table->id;
    r.after = catalog::EncodeTuple(table->schema, tuple);
    return Append(std::move(r));
  }

  Status LogDelete(catalog::TableInfo* table,
                   const catalog::Tuple& tuple) override {
    storage::WalRecord r;
    r.txn_id = txn_id_;
    r.type = storage::WalRecord::Type::kDelete;
    r.table_id = table->id;
    r.before = catalog::EncodeTuple(table->schema, tuple);
    return Append(std::move(r));
  }

  Status LogUpdate(catalog::TableInfo* table, const catalog::Tuple& before,
                   const catalog::Tuple& after) override {
    storage::WalRecord r;
    r.txn_id = txn_id_;
    r.type = storage::WalRecord::Type::kUpdate;
    r.table_id = table->id;
    r.before = catalog::EncodeTuple(table->schema, before);
    r.after = catalog::EncodeTuple(table->schema, after);
    return Append(std::move(r));
  }

 private:
  Status Append(storage::WalRecord r) {
    auto lsn_or = db_->wal_->Append(std::move(r));
    return lsn_or.ok() ? Status::OK() : lsn_or.status();
  }

  Database* db_;
  const int64_t txn_id_;
};

// -------------------------------------------------- CatalogRecoveryApplier ---

/// Routes recovery through the catalog (not raw heap files) so indexes and
/// statistics are rebuilt alongside the rows, and DDL records recreate
/// tables with the same sequentially-assigned ids they had before the crash.
class CatalogRecoveryApplier : public storage::RecoveryApplier {
 public:
  explicit CatalogRecoveryApplier(Database* db) : db_(db) {}

  Status ApplyDdl(const storage::WalRecord& r) override {
    switch (r.type) {
      case storage::WalRecord::Type::kCreateTable: {
        auto cols = DeserializeSchema(r.after);
        if (!cols.ok()) return cols.status();
        auto table =
            db_->catalog_->CreateTable(r.before, Schema(std::move(*cols)));
        return table.ok() ? Status::OK() : table.status();
      }
      case storage::WalRecord::Type::kCreateIndex: {
        const size_t sep = r.after.find(kUnitSep);
        if (sep == std::string::npos) {
          return Status::Corruption("wal: malformed index payload");
        }
        auto index = db_->catalog_->CreateIndex(
            r.before, r.after.substr(0, sep), r.after.substr(sep + 1));
        return index.ok() ? Status::OK() : index.status();
      }
      case storage::WalRecord::Type::kDropTable:
        return db_->catalog_->DropTable(r.before);
      default:
        return Status::Internal("recover: non-DDL record in ApplyDdl");
    }
  }

  Status ApplyInsert(int32_t table_id, const std::string& row) override {
    auto table = db_->catalog_->GetTableById(table_id);
    if (!table.ok()) return table.status();
    auto tuple = catalog::DecodeTuple((*table)->schema, row);
    if (!tuple.ok()) return tuple.status();
    auto rid = db_->catalog_->InsertTuple(*table, *tuple);
    return rid.ok() ? Status::OK() : rid.status();
  }

  Status ApplyDelete(int32_t table_id, const std::string& before) override {
    auto table = db_->catalog_->GetTableById(table_id);
    if (!table.ok()) return table.status();
    auto rid_or = FindByImage(*table, before);
    if (!rid_or.ok()) return rid_or.status();
    return db_->catalog_->DeleteTuple(*table, *rid_or);
  }

  Status ApplyUpdate(int32_t table_id, const std::string& before,
                     const std::string& after) override {
    auto table = db_->catalog_->GetTableById(table_id);
    if (!table.ok()) return table.status();
    auto rid_or = FindByImage(*table, before);
    if (!rid_or.ok()) return rid_or.status();
    STAGEDB_RETURN_IF_ERROR(db_->catalog_->DeleteTuple(*table, *rid_or));
    auto tuple = catalog::DecodeTuple((*table)->schema, after);
    if (!tuple.ok()) return tuple.status();
    auto rid = db_->catalog_->InsertTuple(*table, *tuple);
    return rid.ok() ? Status::OK() : rid.status();
  }

 private:
  /// Logical identity across re-assigned rids: find the row by image. Heap
  /// records carry a version header the WAL images do not, so compare the
  /// payload bytes only. Replay installs one version per row and index keys
  /// are unique, so on an indexed table the image's key names the row; the
  /// heap scan remains for unindexed tables, a NULL key, or an entry whose
  /// payload does not match.
  StatusOr<storage::Rid> FindByImage(catalog::TableInfo* table,
                                     const std::string& image) {
    if (!table->indexes.empty()) {
      const catalog::IndexInfo& index = *table->indexes.front();
      auto tuple = catalog::DecodeTuple(table->schema, image);
      if (!tuple.ok()) return tuple.status();
      const catalog::Value& key = (*tuple)[index.column];
      if (!key.is_null()) {
        auto rid = index.tree->Get(key.int_value());
        if (rid.ok()) {
          std::string record;
          STAGEDB_RETURN_IF_ERROR(table->heap->Get(*rid, &record));
          if (storage::RowPayload(record) == image) return *rid;
        } else if (!rid.status().IsNotFound()) {
          return rid.status();
        }
      }
    }
    auto scan = table->heap->Scan();
    while (scan.Next()) {
      if (storage::RowPayload(scan.record()) == image) return scan.rid();
    }
    STAGEDB_RETURN_IF_ERROR(scan.status());
    return Status::NotFound("recover: row image not found");
  }

  Database* db_;
};

/// Owns the staged engine (kept out of database.h to avoid the heavy
/// include in the public API).
class StagedEngineHandle {
 public:
  explicit StagedEngineHandle(catalog::Catalog* catalog) : engine(catalog) {}
  engine::StagedEngine engine;
};

std::string QueryResult::ToString() const {
  return StrFormat("%zu row(s)", rows.size());
}

// ----------------------------------------------------------- PendingQuery ---

PendingQuery::~PendingQuery() {
  if (db_ == nullptr) return;
  // Abandoned without Await: the client never saw an ack, so the statement
  // must not commit. Wait out the in-flight query first — the engine still
  // holds the context this object owns.
  if (query_ != nullptr) (void)query_->Await();
  (void)std::exchange(db_, nullptr)->FinishStatement(&txn_, false);
}

StatusOr<QueryResult> PendingQuery::Await() {
  auto rows = query_ != nullptr ? query_->Await() : std::move(rows_);
  // The statement does not ack until its commit is published and its commit
  // record synced (or it is undone).
  const Status commit =
      std::exchange(db_, nullptr)->FinishStatement(&txn_, rows.ok());
  if (!rows.ok()) return rows.status();
  if (!commit.ok()) return commit;
  QueryResult result;
  result.schema = schema_;
  result.plan_text = plan_text_;
  result.rows = std::move(*rows);
  return result;
}

bool PendingQuery::done() const {
  return query_ == nullptr || query_->done();
}

void PendingQuery::NotifyOnDone(std::function<void()> callback) {
  if (query_ == nullptr) {
    callback();
    return;
  }
  query_->NotifyOnDone(std::move(callback));
}

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Database::~Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database(std::move(options)));
  db->disk_ = std::make_unique<storage::MemDiskManager>(
      db->options_.disk_latency_micros);
  db->pool_ = std::make_unique<storage::BufferPool>(
      db->disk_.get(), db->options_.buffer_pool_pages);
  db->catalog_ = std::make_unique<catalog::Catalog>(db->pool_.get());
  if (db->durable()) {
    auto wal_or = storage::WriteAheadLog::Open(db->options_.wal_path);
    if (!wal_or.ok()) return wal_or.status();
    db->wal_ = std::move(*wal_or);
  } else {
    db->wal_ = std::make_unique<storage::WriteAheadLog>();
  }
  db->txn_mgr_ =
      std::make_unique<storage::TransactionManager>(db->wal_.get());
  db->catalog_->SetTimestampAuthority(db->txn_mgr_.get());
  if (db->durable()) {
    // Replay the log before the engines exist: committed transactions are
    // redone through the catalog (rebuilding tables, indexes, statistics),
    // losers are skipped, and the torn tail was already truncated by
    // WriteAheadLog::Open.
    CatalogRecoveryApplier applier(db.get());
    STAGEDB_RETURN_IF_ERROR(
        db->txn_mgr_->Recover(&applier, &db->recovery_stats_));
  }
  if (db->options_.plan_cache) {
    db->plan_cache_ = std::make_unique<frontend::PlanCache>(
        db->options_.plan_cache_capacity, db->options_.plan_cache_shards);
  }
  if (db->options_.mode == ExecutionMode::kStaged) {
    db->staged_ = std::make_unique<StagedEngineHandle>(db->catalog_.get());
  } else {
    db->own_runtime_ = std::make_unique<engine::StageRuntime>();
  }
  // The service stages ride the host runtime, so "commit" and "vacuum" show
  // up beside fscan/join in the stage table.
  if (db->durable() && db->options_.group_commit) {
    engine::GroupCommitStage::Options gc;
    gc.max_batch = db->options_.group_commit_max_batch;
    gc.max_wait_us = db->options_.group_commit_max_wait_us;
    db->group_commit_ = std::make_unique<engine::GroupCommitStage>(
        db->host_runtime(), db->wal_.get(), gc, engine::StagePoolSpec{1, -1});
  }
  engine::VacuumStage::Options vo;
  vo.window_us = db->options_.vacuum_window_us;
  db->vacuum_ = std::make_unique<engine::VacuumStage>(
      db->host_runtime(), db->catalog_.get(), vo, engine::StagePoolSpec{1, -1});
  return db;
}

engine::StageRuntime* Database::host_runtime() const {
  return staged_ != nullptr ? staged_->engine.runtime() : own_runtime_.get();
}

void Database::set_wal_fault_injector(storage::WriteFaultInjector* injector) {
  wal_->set_fault_injector(injector);
}

StatusOr<int64_t> Database::BeginWalTxn() {
  const int64_t txn_id = txn_mgr_->AllocateTxnId();
  storage::WalRecord r;
  r.txn_id = txn_id;
  r.type = storage::WalRecord::Type::kBegin;
  auto lsn_or = wal_->Append(std::move(r));
  if (!lsn_or.ok()) return lsn_or.status();
  return txn_id;
}

Status Database::CommitWalTxn(int64_t txn_id, int64_t commit_ts) {
  if (group_commit_ != nullptr) {
    return group_commit_->Submit(txn_id, commit_ts)->Wait();
  }
  storage::WalRecord r;
  r.txn_id = txn_id;
  r.type = storage::WalRecord::Type::kCommit;
  r.ts = commit_ts;
  auto lsn_or = wal_->Append(std::move(r));
  if (!lsn_or.ok()) return lsn_or.status();
  return wal_->Sync();
}

void Database::AbortWalTxn(int64_t txn_id) {
  storage::WalRecord r;
  r.txn_id = txn_id;
  r.type = storage::WalRecord::Type::kAbort;
  (void)wal_->Append(std::move(r));
}

Status Database::AppendDdl(storage::WalRecord record) {
  auto lsn_or = wal_->Append(std::move(record));
  if (!lsn_or.ok()) return lsn_or.status();
  // DDL is auto-committed: durable before the statement acks.
  return wal_->Sync();
}

StatusOr<int64_t> Database::VacuumNow() {
  txn_mgr_->ResetDeadVersions();
  return catalog_->MvccVacuum();
}

namespace {
/// The one-row result of DDL and transaction control.
QueryResult OkResult() {
  QueryResult result;
  result.schema = Schema({{"status", TypeId::kVarchar, ""}});
  result.rows = {{catalog::Value::Varchar("ok")}};
  return result;
}

bool IsDmlPlan(const PhysicalPlan* plan) {
  return plan->kind == optimizer::PlanKind::kInsert ||
         plan->kind == optimizer::PlanKind::kDelete ||
         plan->kind == optimizer::PlanKind::kUpdate;
}
}  // namespace

engine::StageRuntime::StatsSnapshot Database::EngineStats() const {
  engine::StageRuntime::StatsSnapshot snap = host_runtime()->Stats();
  if (plan_cache_ != nullptr) {
    const frontend::PlanCacheStats cache = plan_cache_->Stats();
    snap.plan_cache.hits = cache.hits;
    snap.plan_cache.misses = cache.misses;
    snap.plan_cache.invalidations = cache.invalidations;
    snap.plan_cache.evictions = cache.evictions;
    snap.plan_cache.entries = cache.entries;
  }
  if (group_commit_ != nullptr) snap.group_commit = group_commit_->counters();
  return snap;
}

frontend::PlanCacheStats Database::CacheStats() const {
  if (plan_cache_ == nullptr) return {};
  return plan_cache_->Stats();
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  auto stmt = parser::ParseStatement(sql, catalog_->symbols());
  if (!stmt.ok()) return stmt.status();
  Planner planner(catalog_.get(), options_.planner);
  auto plan = planner.Plan(**stmt);
  if (!plan.ok()) return plan.status();
  return (*plan)->ToString();
}

StatusOr<std::shared_ptr<const frontend::CachedPlan>>
Database::LookupOrParse(const frontend::NormalizedStatement& norm,
                        std::unique_ptr<parser::Statement>* stmt) {
  if (plan_cache_ != nullptr) {
    if (auto hit = plan_cache_->Lookup(norm.key, catalog_->version())) {
      return hit;
    }
  }
  parser::internal::Parser parser(norm.tokens, catalog_->symbols());
  STAGEDB_ASSIGN_OR_RETURN(*stmt, parser.ParseSingle());
  return std::shared_ptr<const frontend::CachedPlan>();
}

StatusOr<std::shared_ptr<const frontend::CachedPlan>> Database::PlanAndPublish(
    const parser::Statement& stmt, const frontend::NormalizedStatement& norm) {
  // Read the epoch BEFORE planning: if a DDL interleaves, the entry is
  // tagged with an epoch older than the catalog's — a conservative stale
  // mark that forces a replan — never the other way around.
  const uint64_t epoch = catalog_->version();
  Planner planner(catalog_.get(), options_.planner);
  auto plan = planner.Plan(stmt, &norm.param_types);
  if (!plan.ok()) return plan.status();
  auto entry = std::make_shared<frontend::CachedPlan>();
  entry->plan = std::move(*plan);
  entry->num_params = norm.num_params;
  entry->param_types = norm.param_types;
  entry->epoch = epoch;
  if (plan_cache_ != nullptr) plan_cache_->Insert(norm.key, entry);
  return std::shared_ptr<const frontend::CachedPlan>(std::move(entry));
}

StatusOr<std::shared_ptr<const frontend::CachedPlan>> Database::GetOrPlanCached(
    const frontend::NormalizedStatement& norm) {
  std::unique_ptr<parser::Statement> stmt;
  STAGEDB_ASSIGN_OR_RETURN(auto hit, LookupOrParse(norm, &stmt));
  if (hit != nullptr) return hit;
  return PlanAndPublish(*stmt, norm);
}

Status Database::ParseStep(const std::string& sql, AdHocStatement* st) {
  if (plan_cache_ != nullptr) {
    auto norm = frontend::Normalize(sql);
    // Not cacheable (DDL, transaction control, explicit '?', lex error):
    // the direct parse below reports any error.
    if (norm.ok() && norm->cacheable && norm->auto_params) {
      st->norm = std::move(*norm);
      STAGEDB_ASSIGN_OR_RETURN(auto hit, LookupOrParse(*st->norm, &st->stmt));
      if (hit == nullptr) return Status::OK();
      STAGEDB_ASSIGN_OR_RETURN(
          st->plan, frontend::InstantiatePlan(*hit->plan, st->norm->params));
      return Status::OK();
    }
  }
  STAGEDB_ASSIGN_OR_RETURN(st->stmt,
                           parser::ParseStatement(sql, catalog_->symbols()));
  return Status::OK();
}

Status Database::OptimizeStep(AdHocStatement* st) {
  using Kind = parser::Statement::Kind;
  const Kind kind = st->stmt->kind;
  if (kind != Kind::kSelect && kind != Kind::kInsert &&
      kind != Kind::kDelete && kind != Kind::kUpdate) {
    // Utility statements bypass the planner (the "additional routing
    // information" of §4.3).
    STAGEDB_RETURN_IF_ERROR(RunUtility(*st->stmt));
    st->result = OkResult();
    return Status::OK();
  }
  if (!st->norm.has_value()) {
    Planner planner(catalog_.get(), options_.planner);
    STAGEDB_ASSIGN_OR_RETURN(st->plan, planner.Plan(*st->stmt));
    return Status::OK();
  }
  // Publish the template for the statements queued behind this one, then
  // bind this statement's values.
  STAGEDB_ASSIGN_OR_RETURN(auto entry, PlanAndPublish(*st->stmt, *st->norm));
  STAGEDB_ASSIGN_OR_RETURN(
      st->plan, frontend::InstantiatePlan(*entry->plan, st->norm->params));
  return Status::OK();
}

StatusOr<std::shared_ptr<PreparedStatement>> Database::Prepare(
    const std::string& sql) {
  auto norm = frontend::Normalize(sql);
  if (!norm.ok()) return norm.status();
  if (!norm->cacheable) {
    return Status::InvalidArgument(
        "only SELECT/INSERT/UPDATE/DELETE statements can be prepared");
  }
  // Eager validation: parse + plan the template now (also warms the cache).
  auto entry = GetOrPlanCached(*norm);
  if (!entry.ok()) return entry.status();
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->norm_ = std::move(*norm);
  return prepared;
}

StatusOr<std::unique_ptr<PhysicalPlan>> Database::Bind(
    const PreparedStatement& stmt, const std::vector<catalog::Value>& params) {
  const std::vector<catalog::Value>& effective =
      (params.empty() && stmt.norm_.auto_params) ? stmt.norm_.params : params;
  if (effective.size() != stmt.num_params()) {
    return Status::InvalidArgument(
        StrFormat("statement takes %zu parameter(s), got %zu",
                  stmt.num_params(), effective.size()));
  }
  STAGEDB_ASSIGN_OR_RETURN(auto entry, GetOrPlanCached(stmt.norm_));
  return frontend::InstantiatePlan(*entry->plan, effective);
}

StatusOr<std::shared_ptr<PendingQuery>> Database::SubmitPrepared(
    const PreparedStatement& stmt, const std::vector<catalog::Value>& params) {
  STAGEDB_ASSIGN_OR_RETURN(auto plan, Bind(stmt, params));
  STAGEDB_ASSIGN_OR_RETURN(auto pending, SubmitPlanned(plan.get()));
  // The engine executes against the plan's nodes; the instantiated plan must
  // live as long as the in-flight query.
  pending->owned_plan_ = std::move(plan);
  return pending;
}

StatusOr<QueryResult> Database::ExecutePrepared(
    const PreparedStatement& stmt, const std::vector<catalog::Value>& params) {
  STAGEDB_ASSIGN_OR_RETURN(auto pending, SubmitPrepared(stmt, params));
  return pending->Await();
}

StatusOr<QueryResult> Database::Execute(const std::string& sql) {
  AdHocStatement st;
  STAGEDB_RETURN_IF_ERROR(ParseStep(sql, &st));
  if (st.plan == nullptr) {
    STAGEDB_RETURN_IF_ERROR(OptimizeStep(&st));
    if (st.result.has_value()) return std::move(*st.result);
  }
  STAGEDB_ASSIGN_OR_RETURN(auto pending, SubmitPlanned(st.plan.get()));
  return pending->Await();
}

Status Database::RunUtility(const parser::Statement& stmt) {
  statements_.Add();
  using Kind = parser::Statement::Kind;
  switch (stmt.kind) {
    case Kind::kCreateTable: {
      const auto& ct = static_cast<const parser::CreateTableStmt&>(stmt);
      std::vector<catalog::Column> cols;
      for (const auto& def : ct.columns) {
        cols.push_back({def.name, def.type, ""});
      }
      const std::string schema_payload = SerializeSchema(cols);
      auto table = catalog_->CreateTable(ct.table, Schema(std::move(cols)));
      if (!table.ok()) return table.status();
      if (!durable()) return Status::OK();
      storage::WalRecord r;
      r.type = storage::WalRecord::Type::kCreateTable;
      r.table_id = (*table)->id;
      r.before = ct.table;
      r.after = schema_payload;
      return AppendDdl(std::move(r));
    }
    case Kind::kCreateIndex: {
      const auto& ci = static_cast<const parser::CreateIndexStmt&>(stmt);
      return RunDdlExclusive(ci.table, [&]() -> Status {
        auto index = catalog_->CreateIndex(ci.index, ci.table, ci.column);
        if (!index.ok()) return index.status();
        if (!durable()) return Status::OK();
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kCreateIndex;
        r.before = ci.index;
        r.after = ci.table;
        r.after.push_back(kUnitSep);
        r.after += ci.column;
        return AppendDdl(std::move(r));
      });
    }
    case Kind::kDropTable: {
      const auto& dt = static_cast<const parser::DropTableStmt&>(stmt);
      return RunDdlExclusive(dt.table, [&]() -> Status {
        STAGEDB_RETURN_IF_ERROR(catalog_->DropTable(dt.table));
        if (!durable()) return Status::OK();
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kDropTable;
        r.before = dt.table;
        return AppendDdl(std::move(r));
      });
    }
    case Kind::kBegin: {
      MutexLock lock(txn_mu_);
      if (active_mvcc_txn_ != nullptr) {
        return Status::InvalidArgument("transaction already in progress");
      }
      if (durable()) {
        auto txn_or = BeginWalTxn();
        if (!txn_or.ok()) return txn_or.status();
        active_wal_txn_ = *txn_or;
      }
      // The transaction's snapshot is fixed here: every statement inside the
      // BEGIN reads the same commit point, and its write set is the undo log.
      active_mvcc_txn_ = std::make_unique<storage::MvccTxn>();
      active_mvcc_txn_->id = txn_mgr_->AllocateTxnId();
      active_mvcc_txn_->snapshot = txn_mgr_->BeginSnapshot();
      active_mvcc_txn_->registered = true;
      return Status::OK();
    }
    case Kind::kCommit:
    case Kind::kRollback: {
      OpenTxn txn;
      {
        MutexLock lock(txn_mu_);
        if (active_mvcc_txn_ == nullptr) {
          return Status::InvalidArgument("no transaction in progress");
        }
        txn.mvcc = std::move(active_mvcc_txn_);
        txn.wal_txn = std::exchange(active_wal_txn_, 0);
      }
      // COMMIT does not ack until the log is durable (group-commit ticket or
      // inline fsync); ROLLBACK undoes the write set.
      return FinishStatement(&txn, stmt.kind == Kind::kCommit);
    }
    default:
      return Status::Internal("not a utility statement");
  }
}

Status Database::BeginStatement(const PhysicalPlan* plan,
                                exec::ExecContext* ctx, OpenTxn* txn) {
  // A template must be instantiated first: the engines ignore parameterized
  // index bounds and unevaluated VALUES rows, so executing one would return
  // wrong results (full-range scans, zero-row inserts), not fail.
  if (plan->IsTemplate()) {
    return Status::InvalidArgument(
        "statement contains '?' parameters; use Prepare/ExecutePrepared");
  }
  ctx->catalog = catalog_.get();
  const bool dml = IsDmlPlan(plan);
  Status status;
  {
    MutexLock lock(txn_mu_);
    // Inside an explicit BEGIN, statements share the transaction's snapshot
    // and write set; a standalone statement gets its own MvccTxn.
    if (active_mvcc_txn_ != nullptr) {
      ctx->mvcc = active_mvcc_txn_.get();
    } else {
      txn->mvcc = std::make_unique<storage::MvccTxn>();
      if (dml) txn->mvcc->id = txn_mgr_->AllocateTxnId();
      txn->mvcc->snapshot = txn_mgr_->BeginSnapshot();
      txn->mvcc->registered = true;
      ctx->mvcc = txn->mvcc.get();
    }
    // Durable DML runs under a wal transaction: inside an explicit BEGIN it
    // logs under that txn id (committed at COMMIT time); a standalone
    // statement auto-commits — BEGIN record, row records from the
    // executors, then a durable COMMIT before the statement acks.
    if (durable() && dml) {
      int64_t wal_txn = active_wal_txn_;
      if (active_mvcc_txn_ == nullptr) {
        auto txn_or = BeginWalTxn();
        status = txn_or.status();
        if (txn_or.ok()) wal_txn = txn->wal_txn = *txn_or;
      }
      if (status.ok()) {
        txn->wal_sink = std::make_unique<DatabaseWalSink>(this, wal_txn);
        ctx->wal = txn->wal_sink.get();
      }
    }
  }
  // The DDL barrier: no CREATE INDEX or DROP TABLE on the target lands while
  // this write is uncommitted. Taken outside txn_mu_, so a wait here never
  // stalls other statements.
  if (status.ok() && dml) {
    status = ddl_locks_.AcquireShared(ctx->mvcc->id, plan->table->id);
  }
  if (!status.ok()) (void)FinishStatement(txn, false);
  return status;
}

Status Database::FinishStatement(OpenTxn* txn, bool ok) {
  Status status;
  storage::Ts cts = 0;
  if (storage::MvccTxn* mvcc = txn->mvcc.get(); mvcc != nullptr) {
    if (ok && !mvcc->writes.empty()) {
      // Visibility before durability: the commit timestamp is allocated and
      // published here, then stamped on the WAL COMMIT record below.
      cts = txn_mgr_->AllocateCommitTs();
      status = catalog_->MvccCommit(mvcc, cts);
    } else if (!ok) {
      status = catalog_->MvccAbort(mvcc);
    }
    if (mvcc->registered) {
      txn_mgr_->ReleaseSnapshot(mvcc->snapshot);
      mvcc->registered = false;
    }
    // Wake the vacuum stage once enough committed delete marks piled up.
    if (status.ok() && cts != 0 &&
        txn_mgr_->dead_versions() >= options_.vacuum_dead_threshold) {
      vacuum_->Wake();
    }
  }
  if (txn->wal_txn != 0) {
    if (ok && status.ok()) {
      status = CommitWalTxn(txn->wal_txn, cts);
    } else {
      AbortWalTxn(txn->wal_txn);
    }
  }
  // Only the handle that owns the MVCC transaction ends it: a standalone
  // writer here, an explicit transaction at COMMIT/ROLLBACK.
  if (txn->mvcc != nullptr && txn->mvcc->id != 0) {
    ddl_locks_.ReleaseAll(txn->mvcc->id);
  }
  return status;
}

Status Database::RunDdlExclusive(const std::string& table,
                                 const std::function<Status()>& ddl) {
  {
    MutexLock lock(txn_mu_);
    if (active_mvcc_txn_ != nullptr) {
      return Status::InvalidArgument(
          "CREATE INDEX and DROP TABLE are not allowed inside a transaction");
    }
  }
  auto info = catalog_->GetTable(table);
  if (!info.ok()) return info.status();
  const int64_t owner = txn_mgr_->AllocateTxnId();
  STAGEDB_RETURN_IF_ERROR(ddl_locks_.AcquireExclusive(owner, (*info)->id));
  const Status status = ddl();
  ddl_locks_.ReleaseAll(owner);
  return status;
}

StatusOr<std::shared_ptr<PendingQuery>> Database::SubmitPlanned(
    const PhysicalPlan* plan) {
  statements_.Add();
  auto pending = std::make_shared<PendingQuery>();
  STAGEDB_RETURN_IF_ERROR(BeginStatement(plan, &pending->ctx_, &pending->txn_));
  // From here the statement is open until Await or ~PendingQuery finishes it.
  pending->db_ = this;
  pending->schema_ = plan->schema;
  pending->plan_text_ = plan->ToString();
  if (staged_ != nullptr) {
    pending->query_ = staged_->engine.Submit(plan, &pending->ctx_);
  } else {
    pending->rows_ = exec::ExecutePlan(plan, &pending->ctx_);
  }
  return pending;
}

}  // namespace stagedb::server
