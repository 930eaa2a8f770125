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
  StagedEngineHandle(catalog::Catalog* catalog,
                     engine::StagedEngineOptions options)
      : engine(catalog, options) {}
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
  (void)query_->Await();
  (void)std::exchange(db_, nullptr)->FinishStatement(&txn_, false);
}

StatusOr<QueryResult> PendingQuery::Await() {
  auto rows = query_->Await();
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

bool PendingQuery::done() const { return query_->done(); }

void PendingQuery::NotifyOnDone(std::function<void()> callback) {
  query_->NotifyOnDone(std::move(callback));
}

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Database::~Database() {
  // Drain order: vacuum first (its passes touch catalog state the engines
  // read), then the commit stage, then stop the volcano-mode runtime. The
  // staged engine drains its own commit stage; the volcano-mode commit
  // runtime is ours: drain while its workers are alive, then stop them.
  if (vacuum_ != nullptr) vacuum_->Drain();  // null only if Open failed
  if (own_group_commit_ != nullptr) own_group_commit_->Drain();
  if (commit_runtime_ != nullptr) commit_runtime_->Shutdown();
}

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
  const bool group_commit = db->durable() && db->options_.group_commit;
  if (db->options_.mode == ExecutionMode::kStaged) {
    engine::StagedEngineOptions opts;
    opts.exchange_capacity_pages = db->options_.exchange_buffer_pages;
    opts.tuples_per_page = db->options_.tuples_per_page;
    opts.threads_per_stage = db->options_.threads_per_stage;
    opts.stage_pools = db->options_.stage_pools;
    opts.max_dop = db->options_.max_dop;
    if (group_commit) {
      // The commit stage rides the engine's own runtime: "commit" appears
      // beside fscan/join in the stage table.
      opts.wal = db->wal_.get();
      opts.group_commit_max_batch = db->options_.group_commit_max_batch;
      opts.group_commit_max_wait_us = db->options_.group_commit_max_wait_us;
    }
    // Let the planner emit parallel shapes up to the engine's cap. Volcano
    // mode skips this (below), so its planner never produces them.
    db->options_.planner.max_dop = db->options_.max_dop;
    db->staged_ =
        std::make_unique<StagedEngineHandle>(db->catalog_.get(), opts);
    db->group_commit_ = db->staged_->engine.group_commit();
  } else {
    // The volcano engine runs every node on the calling thread: parallel
    // plan shapes would only add a partial/merge hop it gains nothing from.
    db->options_.planner.max_dop = 1;
    db->commit_runtime_ = std::make_unique<engine::StageRuntime>();
    if (group_commit) {
      engine::GroupCommitStage::Options gc;
      gc.max_batch = db->options_.group_commit_max_batch;
      gc.max_wait_us = db->options_.group_commit_max_wait_us;
      db->own_group_commit_ = std::make_unique<engine::GroupCommitStage>(
          db->commit_runtime_.get(), db->wal_.get(), gc,
          engine::StagePoolSpec{1, -1});
      db->group_commit_ = db->own_group_commit_.get();
    }
  }
  // The vacuum stage rides the staged engine's runtime so "vacuum" shows up
  // beside fscan/commit in the stage table; in volcano mode it shares the
  // private commit runtime.
  engine::VacuumStage::Options vo;
  vo.window_us = db->options_.vacuum_window_us;
  db->vacuum_ = std::make_unique<engine::VacuumStage>(
      db->staged_ != nullptr ? db->staged_->engine.runtime()
                             : db->commit_runtime_.get(),
      db->catalog_.get(), vo, engine::StagePoolSpec{1, -1});
  return db;
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
  engine::StageRuntime::StatsSnapshot snap;
  if (staged_ != nullptr) snap = staged_->engine.runtime()->Stats();
  if (plan_cache_ != nullptr) {
    const frontend::PlanCacheStats cache = plan_cache_->Stats();
    snap.plan_cache.hits = cache.hits;
    snap.plan_cache.misses = cache.misses;
    snap.plan_cache.invalidations = cache.invalidations;
    snap.plan_cache.evictions = cache.evictions;
    snap.plan_cache.entries = cache.entries;
  }
  if (group_commit_ != nullptr) snap.group_commit = group_commit_->counters();
  if (commit_runtime_ != nullptr) {
    // Volcano mode has no engine snapshot; surface its private runtime's
    // rows so `vacuum` (and `commit`, when group commit is on) are
    // observable there too.
    for (auto& stage : commit_runtime_->Stats().stages) {
      snap.stages.push_back(std::move(stage));
    }
  }
  return snap;
}

frontend::PlanCacheStats Database::CacheStats() const {
  if (plan_cache_ == nullptr) return {};
  return plan_cache_->Stats();
}

int64_t Database::statements_executed() const {
  return const_cast<StatsRegistry&>(stats_)
      .GetCounter("db.statements")
      ->value();
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  auto stmt = parser::ParseStatement(sql, catalog_->symbols());
  if (!stmt.ok()) return stmt.status();
  Planner planner(catalog_.get(), options_.planner);
  auto plan = planner.Plan(**stmt);
  if (!plan.ok()) return plan.status();
  return (*plan)->ToString();
}

StatusOr<std::shared_ptr<const frontend::CachedPlan>> Database::GetOrPlanCached(
    const frontend::NormalizedStatement& norm) {
  if (plan_cache_ != nullptr) {
    if (auto hit = plan_cache_->Lookup(norm.key, catalog_->version())) {
      return hit;
    }
  }
  // The facade performs the parse and optimize work itself, so it owns the
  // per-stage counters here; the staged server counts its own stage visits.
  stats_.GetCounter("stage.parse.packets")->Add(1);
  parser::internal::Parser parser(norm.tokens, catalog_->symbols());
  auto stmt = parser.ParseSingle();
  if (!stmt.ok()) return stmt.status();
  stats_.GetCounter("stage.optimize.packets")->Add(1);
  return PlanAndCacheTemplate(**stmt, norm);
}

StatusOr<std::shared_ptr<const frontend::CachedPlan>>
Database::PlanAndCacheTemplate(const parser::Statement& stmt,
                               const frontend::NormalizedStatement& norm) {
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

StatusOr<QueryResult> Database::ExecutePrepared(
    const PreparedStatement& stmt, const std::vector<catalog::Value>& params) {
  stats_.GetCounter("db.statements")->Add(1);
  const std::vector<catalog::Value>& effective =
      (params.empty() && stmt.norm_.auto_params) ? stmt.norm_.params : params;
  if (effective.size() != stmt.num_params()) {
    return Status::InvalidArgument(
        StrFormat("statement takes %zu parameter(s), got %zu",
                  stmt.num_params(), effective.size()));
  }
  auto entry = GetOrPlanCached(stmt.norm_);
  if (!entry.ok()) return entry.status();
  auto plan = frontend::InstantiatePlan(*(*entry)->plan, effective);
  if (!plan.ok()) return plan.status();
  return ExecutePlanned(plan->get());
}

StatusOr<std::shared_ptr<PendingQuery>> Database::SubmitPrepared(
    const PreparedStatement& stmt, const std::vector<catalog::Value>& params) {
  if (options_.mode != ExecutionMode::kStaged) {
    return Status::InvalidArgument(
        "SubmitPrepared requires staged execution mode");
  }
  stats_.GetCounter("db.statements")->Add(1);
  const std::vector<catalog::Value>& effective =
      (params.empty() && stmt.norm_.auto_params) ? stmt.norm_.params : params;
  if (effective.size() != stmt.num_params()) {
    return Status::InvalidArgument(
        StrFormat("statement takes %zu parameter(s), got %zu",
                  stmt.num_params(), effective.size()));
  }
  auto entry = GetOrPlanCached(stmt.norm_);
  if (!entry.ok()) return entry.status();
  auto plan = frontend::InstantiatePlan(*(*entry)->plan, effective);
  if (!plan.ok()) return plan.status();
  auto pending = SubmitPlanned(plan->get());
  if (!pending.ok()) return pending.status();
  // The engine executes against the plan's nodes; the instantiated plan must
  // live as long as the in-flight query.
  (*pending)->owned_plan_ = std::move(*plan);
  return pending;
}

StatusOr<QueryResult> Database::Execute(const std::string& sql) {
  stats_.GetCounter("db.statements")->Add(1);
  // --- front-end work reuse: serve repeated/parameterized statements from
  // the plan cache, skipping parse + optimize on a hit ---
  if (plan_cache_ != nullptr) {
    auto norm = frontend::Normalize(sql);
    if (norm.ok() && norm->cacheable && norm->auto_params) {
      auto entry = GetOrPlanCached(*norm);
      if (!entry.ok()) return entry.status();
      auto plan = frontend::InstantiatePlan(*(*entry)->plan, norm->params);
      if (!plan.ok()) return plan.status();
      return ExecutePlanned(plan->get());
    }
    // Not cacheable (DDL, txn control, explicit '?', lex error): fall
    // through to the direct path, which reports any error as before.
  }
  // --- parse stage ---
  auto stmt_or = parser::ParseStatement(sql, catalog_->symbols());
  if (!stmt_or.ok()) return stmt_or.status();
  stats_.GetCounter("stage.parse.packets")->Add(1);
  const parser::Statement& stmt = **stmt_or;

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
      if (durable()) {
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kCreateTable;
        r.table_id = (*table)->id;
        r.before = ct.table;
        r.after = schema_payload;
        STAGEDB_RETURN_IF_ERROR(AppendDdl(std::move(r)));
      }
      return OkResult();
    }
    case Kind::kCreateIndex: {
      const auto& ci = static_cast<const parser::CreateIndexStmt&>(stmt);
      STAGEDB_RETURN_IF_ERROR(RunDdlExclusive(ci.table, [&]() -> Status {
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
      }));
      return OkResult();
    }
    case Kind::kDropTable: {
      const auto& dt = static_cast<const parser::DropTableStmt&>(stmt);
      STAGEDB_RETURN_IF_ERROR(RunDdlExclusive(dt.table, [&]() -> Status {
        STAGEDB_RETURN_IF_ERROR(catalog_->DropTable(dt.table));
        if (!durable()) return Status::OK();
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kDropTable;
        r.before = dt.table;
        return AppendDdl(std::move(r));
      }));
      return OkResult();
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
      return OkResult();
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
      STAGEDB_RETURN_IF_ERROR(
          FinishStatement(&txn, stmt.kind == Kind::kCommit));
      return OkResult();
    }
    default:
      break;
  }

  // --- optimize stage ---
  Planner planner(catalog_.get(), options_.planner);
  auto plan_or = planner.Plan(stmt);
  if (!plan_or.ok()) return plan_or.status();
  stats_.GetCounter("stage.optimize.packets")->Add(1);
  const std::unique_ptr<PhysicalPlan>& plan = *plan_or;

  return ExecutePlanned(plan.get());
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

StatusOr<QueryResult> Database::ExecutePlanned(const PhysicalPlan* plan) {
  exec::ExecContext ctx;
  OpenTxn txn;
  STAGEDB_RETURN_IF_ERROR(BeginStatement(plan, &ctx, &txn));
  stats_.GetCounter("stage.execute.packets")->Add(1);
  auto rows = options_.mode == ExecutionMode::kStaged
                  ? staged_->engine.Execute(plan, &ctx)
                  : exec::ExecutePlan(plan, &ctx);
  const Status commit = FinishStatement(&txn, rows.ok());
  if (!rows.ok()) return rows.status();
  if (!commit.ok()) return commit;
  QueryResult result;
  result.schema = plan->schema;
  result.plan_text = plan->ToString();
  result.rows = std::move(*rows);
  return result;
}

StatusOr<std::shared_ptr<PendingQuery>> Database::SubmitPlanned(
    const PhysicalPlan* plan) {
  if (options_.mode != ExecutionMode::kStaged) {
    return Status::InvalidArgument(
        "SubmitPlanned requires staged execution mode");
  }
  auto pending = std::make_shared<PendingQuery>();
  STAGEDB_RETURN_IF_ERROR(BeginStatement(plan, &pending->ctx_, &pending->txn_));
  // From here the statement is open until Await or ~PendingQuery finishes it.
  pending->db_ = this;
  pending->schema_ = plan->schema;
  pending->plan_text_ = plan->ToString();
  stats_.GetCounter("stage.execute.packets")->Add(1);
  pending->query_ = staged_->engine.Submit(plan, &pending->ctx_);
  return pending;
}

}  // namespace stagedb::server
