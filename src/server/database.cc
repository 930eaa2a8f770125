#include "server/database.h"

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
        if (!table.ok()) return table.status();
        db_->txn_mgr_->RegisterTable((*table)->id, (*table)->heap.get());
        return Status::OK();
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
  /// Logical identity across re-assigned rids: find the row by image. Under
  /// MVCC the heap records carry a version header the WAL images do not, so
  /// compare the payload bytes only. Replay installs one version per row and
  /// index keys are unique, so on an indexed table the image's key names the
  /// row; the heap scan remains for unindexed tables, a NULL key, or an
  /// entry whose payload does not match.
  StatusOr<storage::Rid> FindByImage(catalog::TableInfo* table,
                                     const std::string& image) {
    const bool mvcc = db_->catalog_->mvcc_enabled();
    const auto payload = [mvcc](std::string_view record) {
      return mvcc ? storage::RowPayload(record) : record;
    };
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
          if (payload(record) == image) return *rid;
        } else if (!rid.status().IsNotFound()) {
          return rid.status();
        }
      }
    }
    auto scan = table->heap->Scan();
    while (scan.Next()) {
      if (payload(scan.record()) == image) return scan.rid();
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
  if (wal_finalize_ == nullptr) return;
  // Abandoned without Await: the client never saw an ack, so the statement
  // must not commit. Wait out the in-flight query first — the engine still
  // holds the context this object owns.
  if (query_ != nullptr) (void)query_->Await();
  auto finalize = std::move(wal_finalize_);
  wal_finalize_ = nullptr;
  (void)finalize(false);
}

StatusOr<QueryResult> PendingQuery::Await() {
  auto rows = query_->Await();
  if (wal_finalize_) {
    // Run the durable-commit epilogue exactly once: the statement does not
    // ack until its commit record is synced (or its wal txn is aborted).
    auto finalize = std::move(wal_finalize_);
    wal_finalize_ = nullptr;
    const Status commit = finalize(rows.ok());
    if (rows.ok() && !commit.ok()) return commit;
  }
  if (!rows.ok()) return rows.status();
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
  if (vacuum_ != nullptr) vacuum_->Drain();
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
  db->txn_mgr_->lock_manager()->set_timeout_micros(
      db->options_.lock_timeout_micros);
  if (db->options_.concurrency == ConcurrencyMode::kSnapshot) {
    // Before recovery: replayed rows must be installed with version headers
    // (begin = 0, committed-at-bootstrap) like every other MVCC record.
    db->catalog_->EnableMvcc(db->txn_mgr_.get());
  }
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
    opts.spsc_exchange = db->options_.spsc_exchange;
    opts.threads_per_stage = db->options_.threads_per_stage;
    opts.shared_scans = db->options_.shared_scans;
    opts.scheduler = db->options_.scheduler;
    opts.scheduler_gate_rounds = db->options_.scheduler_gate_rounds;
    opts.stage_pools = db->options_.stage_pools;
    opts.max_dop = db->options_.max_dop;
    if (group_commit) {
      // The commit stage rides the engine's own runtime: "commit" appears
      // beside fscan/join in the stage table and obeys the same policy.
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
    // plan shapes would only add a partial/merge hop it cannot execute.
    db->options_.planner.max_dop = 1;
    if (group_commit) {
      db->commit_runtime_ = std::make_unique<engine::StageRuntime>(
          engine::SchedulerPolicy::kFreeRun);
      engine::GroupCommitStage::Options gc;
      gc.max_batch = db->options_.group_commit_max_batch;
      gc.max_wait_us = db->options_.group_commit_max_wait_us;
      db->own_group_commit_ = std::make_unique<engine::GroupCommitStage>(
          db->commit_runtime_.get(), db->wal_.get(), gc,
          engine::StagePoolSpec{1, -1});
      db->group_commit_ = db->own_group_commit_.get();
    }
  }
  if (db->options_.concurrency == ConcurrencyMode::kSnapshot) {
    // The vacuum stage rides the staged engine's runtime so "vacuum" shows
    // up beside fscan/commit in the stage table; in volcano mode it shares
    // the private commit runtime (created here if group commit did not).
    engine::StageRuntime* vac_runtime;
    if (db->options_.mode == ExecutionMode::kStaged) {
      vac_runtime = db->staged_->engine.runtime();
    } else {
      if (db->commit_runtime_ == nullptr) {
        db->commit_runtime_ = std::make_unique<engine::StageRuntime>(
            engine::SchedulerPolicy::kFreeRun);
      }
      vac_runtime = db->commit_runtime_.get();
    }
    engine::VacuumStage::Options vo;
    vo.window_us = db->options_.vacuum_window_us;
    db->vacuum_ = std::make_unique<engine::VacuumStage>(
        vac_runtime, db->catalog_.get(), vo, engine::StagePoolSpec{1, -1});
  }
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

Status Database::FinishMvccTxn(storage::MvccTxn* txn, bool ok, int64_t* cts) {
  *cts = 0;
  Status st;
  if (ok && !txn->writes.empty()) {
    // Visibility before durability: the commit timestamp is allocated and
    // published here; the caller then stamps it on the WAL COMMIT record.
    const storage::Ts ts = txn_mgr_->AllocateCommitTs();
    st = catalog_->MvccCommit(txn, ts);
    if (st.ok()) *cts = ts;
  } else if (!ok) {
    st = catalog_->MvccAbort(txn);
  }
  if (txn->registered) {
    txn_mgr_->ReleaseSnapshot(txn->snapshot);
    txn->registered = false;
  }
  if (*cts != 0) MaybeWakeVacuum();
  return st;
}

void Database::MaybeWakeVacuum() {
  if (vacuum_ == nullptr) return;
  if (txn_mgr_->dead_versions() >= options_.vacuum_dead_threshold) {
    vacuum_->Wake();
  }
}

StatusOr<int64_t> Database::VacuumNow() {
  if (!snapshot_mode()) {
    return Status::InvalidArgument("vacuum requires snapshot concurrency mode");
  }
  txn_mgr_->ResetDeadVersions();
  return catalog_->MvccVacuum();
}

namespace {
bool IsDmlPlan(const PhysicalPlan* plan) {
  return plan->kind == optimizer::PlanKind::kInsert ||
         plan->kind == optimizer::PlanKind::kDelete ||
         plan->kind == optimizer::PlanKind::kUpdate;
}

/// Table-lock requests of a plan: table id -> needs exclusive. The DML node
/// itself locks exclusive; every other table-bearing node (the scans,
/// including the scan feeding a DELETE/UPDATE of the same table) is shared —
/// the map keeps the strongest mode per table.
void CollectLockRequests(const PhysicalPlan* plan,
                         std::map<int32_t, bool>* out) {
  if (plan->table != nullptr) {
    const bool exclusive = IsDmlPlan(plan);
    auto [it, inserted] = out->emplace(plan->table->id, exclusive);
    if (!inserted && exclusive) it->second = true;
  }
  for (const auto& child : plan->children) {
    CollectLockRequests(child.get(), out);
  }
}
}  // namespace

StatusOr<int64_t> Database::AcquireStatementLocks(const PhysicalPlan* plan) {
  std::map<int32_t, bool> requests;
  CollectLockRequests(plan, &requests);
  if (requests.empty()) return 0;
  const int64_t lock_txn = txn_mgr_->AllocateTxnId();
  storage::LockManager* lm = txn_mgr_->lock_manager();
  // std::map iteration = ascending table id: every statement acquires in the
  // same global order, so timeouts fire only under true contention pile-ups.
  for (const auto& [table_id, exclusive] : requests) {
    const Status s = exclusive ? lm->AcquireExclusive(lock_txn, table_id)
                               : lm->AcquireShared(lock_txn, table_id);
    if (!s.ok()) {
      lm->ReleaseAll(lock_txn);
      return s;
    }
  }
  return lock_txn;
}

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
  if (group_commit_ != nullptr) {
    snap.group_commit = group_commit_->counters();
    if (options_.mode != ExecutionMode::kStaged &&
        commit_runtime_ != nullptr) {
      // Volcano mode has no engine snapshot; surface the commit stage's own
      // runtime rows so `commit` is observable there too.
      for (auto& stage : commit_runtime_->Stats().stages) {
        snap.stages.push_back(std::move(stage));
      }
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

  QueryResult result;
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
      txn_mgr_->RegisterTable((*table)->id, (*table)->heap.get());
      if (durable()) {
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kCreateTable;
        r.table_id = (*table)->id;
        r.before = ct.table;
        r.after = schema_payload;
        STAGEDB_RETURN_IF_ERROR(AppendDdl(std::move(r)));
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
    }
    case Kind::kCreateIndex: {
      const auto& ci = static_cast<const parser::CreateIndexStmt&>(stmt);
      auto index = catalog_->CreateIndex(ci.index, ci.table, ci.column);
      if (!index.ok()) return index.status();
      if (durable()) {
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kCreateIndex;
        r.before = ci.index;
        r.after = ci.table;
        r.after.push_back(kUnitSep);
        r.after += ci.column;
        STAGEDB_RETURN_IF_ERROR(AppendDdl(std::move(r)));
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
    }
    case Kind::kDropTable: {
      const auto& dt = static_cast<const parser::DropTableStmt&>(stmt);
      STAGEDB_RETURN_IF_ERROR(catalog_->DropTable(dt.table));
      if (durable()) {
        storage::WalRecord r;
        r.type = storage::WalRecord::Type::kDropTable;
        r.before = dt.table;
        STAGEDB_RETURN_IF_ERROR(AppendDdl(std::move(r)));
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
    }
    case Kind::kBegin: {
      MutexLock lock(txn_mu_);
      if (active_txn_ != nullptr || active_mvcc_txn_ != nullptr) {
        return Status::InvalidArgument("transaction already in progress");
      }
      if (durable()) {
        auto txn_or = BeginWalTxn();
        if (!txn_or.ok()) return txn_or.status();
        active_wal_txn_ = *txn_or;
      }
      if (snapshot_mode()) {
        // The transaction's snapshot is fixed here: every statement inside
        // the BEGIN reads the same commit point, and the MvccTxn's write set
        // doubles as the undo log (no MutationLog).
        active_mvcc_txn_ = std::make_unique<storage::MvccTxn>();
        active_mvcc_txn_->id = txn_mgr_->AllocateTxnId();
        active_mvcc_txn_->snapshot = txn_mgr_->BeginSnapshot();
        active_mvcc_txn_->registered = true;
      } else {
        active_txn_ = std::make_unique<exec::MutationLog>();
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
    }
    case Kind::kCommit: {
      int64_t wal_txn = 0;
      std::unique_ptr<storage::MvccTxn> mvcc_txn;
      {
        MutexLock lock(txn_mu_);
        if (active_txn_ == nullptr && active_mvcc_txn_ == nullptr) {
          return Status::InvalidArgument("no transaction in progress");
        }
        active_txn_.reset();
        mvcc_txn = std::move(active_mvcc_txn_);
        wal_txn = active_wal_txn_;
        active_wal_txn_ = 0;
      }
      int64_t cts = 0;
      if (mvcc_txn != nullptr) {
        const Status st = FinishMvccTxn(mvcc_txn.get(), true, &cts);
        if (!st.ok()) {
          if (wal_txn != 0) AbortWalTxn(wal_txn);
          return st;
        }
      }
      if (wal_txn != 0) {
        // COMMIT does not ack until the log is durable (group-commit ticket
        // or inline fsync). The MVCC commit timestamp rides the record.
        STAGEDB_RETURN_IF_ERROR(CommitWalTxn(wal_txn, cts));
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
    }
    case Kind::kRollback: {
      MutexLock lock(txn_mu_);
      if (active_txn_ == nullptr && active_mvcc_txn_ == nullptr) {
        return Status::InvalidArgument("no transaction in progress");
      }
      if (active_txn_ != nullptr) {
        STAGEDB_RETURN_IF_ERROR(active_txn_->Rollback(catalog_.get()));
        active_txn_.reset();
      }
      if (active_mvcc_txn_ != nullptr) {
        auto mvcc_txn = std::move(active_mvcc_txn_);
        int64_t cts = 0;
        STAGEDB_RETURN_IF_ERROR(FinishMvccTxn(mvcc_txn.get(), false, &cts));
      }
      if (active_wal_txn_ != 0) {
        AbortWalTxn(active_wal_txn_);
        active_wal_txn_ = 0;
      }
      result.schema = Schema({{"status", TypeId::kVarchar, ""}});
      result.rows = {{catalog::Value::Varchar("ok")}};
      return result;
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

StatusOr<QueryResult> Database::ExecutePlanned(const PhysicalPlan* plan) {
  // A template must be instantiated first: the engines ignore parameterized
  // index bounds and unevaluated VALUES rows, so executing one would return
  // wrong results (full-range scans, zero-row inserts), not fail.
  if (plan->IsTemplate()) {
    return Status::InvalidArgument(
        "statement contains '?' parameters; use Prepare/ExecutePrepared");
  }
  QueryResult result;
  result.schema = plan->schema;
  result.plan_text = plan->ToString();

  // kTableLock: the blocking baseline. Locks are held for the statement's
  // whole duration (through the commit), released on every exit path below.
  int64_t lock_txn = 0;
  if (options_.concurrency == ConcurrencyMode::kTableLock) {
    auto lock_or = AcquireStatementLocks(plan);
    if (!lock_or.ok()) return lock_or.status();
    lock_txn = *lock_or;
  }
  const auto unlock = [this, lock_txn] {
    if (lock_txn != 0) txn_mgr_->lock_manager()->ReleaseAll(lock_txn);
  };

  exec::ExecContext ctx;
  ctx.catalog = catalog_.get();
  // Durable DML runs under a wal transaction: a statement inside an explicit
  // BEGIN logs under that txn id (committed at COMMIT time); a standalone
  // statement auto-commits — BEGIN record, row records from the executors,
  // then a durable COMMIT before the statement acks.
  std::unique_ptr<DatabaseWalSink> sink;
  std::unique_ptr<storage::MvccTxn> stmt_mvcc;
  int64_t wal_txn = 0;
  bool auto_commit = false;
  {
    MutexLock lock(txn_mu_);
    ctx.mutation_log = active_txn_.get();
    if (snapshot_mode()) {
      // Inside an explicit BEGIN, statements share the transaction's
      // snapshot and write set; standalone statements get their own
      // MvccTxn, committed or aborted right after execution.
      if (active_mvcc_txn_ != nullptr) {
        ctx.mvcc = active_mvcc_txn_.get();
      } else {
        stmt_mvcc = std::make_unique<storage::MvccTxn>();
        if (IsDmlPlan(plan)) stmt_mvcc->id = txn_mgr_->AllocateTxnId();
        stmt_mvcc->snapshot = txn_mgr_->BeginSnapshot();
        stmt_mvcc->registered = true;
        ctx.mvcc = stmt_mvcc.get();
      }
    }
    if (durable() && IsDmlPlan(plan)) {
      const bool in_txn = active_txn_ != nullptr || active_mvcc_txn_ != nullptr;
      if (in_txn && active_wal_txn_ != 0) {
        wal_txn = active_wal_txn_;
      } else {
        auto txn_or = BeginWalTxn();
        if (!txn_or.ok()) {
          if (stmt_mvcc != nullptr && stmt_mvcc->registered) {
            txn_mgr_->ReleaseSnapshot(stmt_mvcc->snapshot);
          }
          unlock();
          return txn_or.status();
        }
        wal_txn = *txn_or;
        auto_commit = true;
      }
      sink = std::make_unique<DatabaseWalSink>(this, wal_txn);
      ctx.wal = sink.get();
    }
  }

  stats_.GetCounter("stage.execute.packets")->Add(1);
  auto rows = options_.mode == ExecutionMode::kStaged
                  ? staged_->engine.Execute(plan, &ctx)
                  : exec::ExecutePlan(plan, &ctx);
  if (!rows.ok()) {
    int64_t cts = 0;
    if (stmt_mvcc != nullptr) (void)FinishMvccTxn(stmt_mvcc.get(), false, &cts);
    if (auto_commit) AbortWalTxn(wal_txn);
    unlock();
    return rows.status();
  }
  int64_t cts = 0;
  if (stmt_mvcc != nullptr) {
    const Status st = FinishMvccTxn(stmt_mvcc.get(), true, &cts);
    if (!st.ok()) {
      if (auto_commit) AbortWalTxn(wal_txn);
      unlock();
      return st;
    }
  }
  if (auto_commit) {
    const Status st = CommitWalTxn(wal_txn, cts);
    if (!st.ok()) {
      unlock();
      return st;
    }
  }
  unlock();
  result.rows = std::move(*rows);
  return result;
}

StatusOr<std::shared_ptr<PendingQuery>> Database::SubmitPlanned(
    const PhysicalPlan* plan) {
  if (options_.mode != ExecutionMode::kStaged) {
    return Status::InvalidArgument(
        "SubmitPlanned requires staged execution mode");
  }
  if (plan->IsTemplate()) {
    return Status::InvalidArgument(
        "statement contains '?' parameters; use Prepare/ExecutePrepared");
  }
  // kTableLock: acquired before submission, held across the asynchronous
  // execution, released by the finalize epilogue (Await or the destructor).
  int64_t lock_txn = 0;
  if (options_.concurrency == ConcurrencyMode::kTableLock) {
    auto lock_or = AcquireStatementLocks(plan);
    if (!lock_or.ok()) return lock_or.status();
    lock_txn = *lock_or;
  }

  auto pending = std::make_shared<PendingQuery>();
  pending->schema_ = plan->schema;
  pending->plan_text_ = plan->ToString();
  pending->ctx_.catalog = catalog_.get();
  {
    MutexLock lock(txn_mu_);
    pending->ctx_.mutation_log = active_txn_.get();
    if (snapshot_mode()) {
      if (active_mvcc_txn_ != nullptr) {
        pending->ctx_.mvcc = active_mvcc_txn_.get();
      } else {
        pending->mvcc_txn_ = std::make_unique<storage::MvccTxn>();
        if (IsDmlPlan(plan)) {
          pending->mvcc_txn_->id = txn_mgr_->AllocateTxnId();
        }
        pending->mvcc_txn_->snapshot = txn_mgr_->BeginSnapshot();
        pending->mvcc_txn_->registered = true;
        pending->ctx_.mvcc = pending->mvcc_txn_.get();
      }
    }
    int64_t wal_txn = 0;
    bool wal_auto = false;
    if (durable() && IsDmlPlan(plan)) {
      const bool in_txn = active_txn_ != nullptr || active_mvcc_txn_ != nullptr;
      if (in_txn && active_wal_txn_ != 0) {
        wal_txn = active_wal_txn_;
      } else {
        auto txn_or = BeginWalTxn();
        if (!txn_or.ok()) {
          if (pending->mvcc_txn_ != nullptr && pending->mvcc_txn_->registered) {
            txn_mgr_->ReleaseSnapshot(pending->mvcc_txn_->snapshot);
            pending->mvcc_txn_->registered = false;
          }
          if (lock_txn != 0) txn_mgr_->lock_manager()->ReleaseAll(lock_txn);
          return txn_or.status();
        }
        wal_txn = *txn_or;
        wal_auto = true;
      }
      auto sink = std::make_unique<DatabaseWalSink>(this, wal_txn);
      pending->ctx_.wal = sink.get();
      pending->wal_sink_ = std::move(sink);
    }
    // One epilogue finishes the statement: MVCC commit/abort, durable wal
    // commit (or abort), lock release — in that order, so visibility is
    // published before the durability wait and locks cover the whole
    // statement. Runs exactly once, from Await or ~PendingQuery.
    storage::MvccTxn* stmt_mvcc = pending->mvcc_txn_.get();
    if (stmt_mvcc != nullptr || wal_auto || lock_txn != 0) {
      pending->wal_finalize_ = [this, stmt_mvcc, wal_txn, wal_auto,
                                lock_txn](bool ok) -> Status {
        Status st;
        int64_t cts = 0;
        if (stmt_mvcc != nullptr) st = FinishMvccTxn(stmt_mvcc, ok, &cts);
        if (wal_auto) {
          if (!ok || !st.ok()) {
            AbortWalTxn(wal_txn);
          } else {
            st = CommitWalTxn(wal_txn, cts);
          }
        }
        if (lock_txn != 0) txn_mgr_->lock_manager()->ReleaseAll(lock_txn);
        return st;
      };
    }
  }
  stats_.GetCounter("stage.execute.packets")->Add(1);
  pending->query_ = staged_->engine.Submit(plan, &pending->ctx_);
  return pending;
}

}  // namespace stagedb::server
