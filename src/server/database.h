// The embedded database facade: the public API a downstream user programs
// against. Wraps storage, catalog, parser, optimizer, and both execution
// engines behind a single Execute(sql) entry point.
#ifndef STAGEDB_SERVER_DATABASE_H_
#define STAGEDB_SERVER_DATABASE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "exec/executor.h"
#include "frontend/normalizer.h"
#include "frontend/plan_cache.h"
#include "optimizer/planner.h"
#include "storage/disk_manager.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace stagedb::engine {
class GroupCommitStage;
class StagedQuery;
class VacuumStage;
}  // namespace stagedb::engine

namespace stagedb::server {

class Database;

/// How SELECT plans are executed.
enum class ExecutionMode {
  kVolcano,  ///< single-worker iterator model (the traditional baseline)
  kStaged,   ///< the paper's staged engine (operator stages + packets)
};

/// Concurrency control across concurrent Execute callers. Storage is always
/// multi-versioned: every statement runs as (or inside) an MVCC transaction
/// that reads a registered commit-ordered snapshot, installs new row
/// versions instead of mutating in place, and is undone from its write set
/// if it fails. Readers never block writers; write-write conflicts abort the
/// second writer (first-updater-wins). A background vacuum stage reclaims
/// versions older than the oldest live snapshot.
///
/// The enum has one value and the option no reader; both stay because the
/// benchmark harness (stagedb_bench/src/child.cc) sets them. kSnapshot keeps
/// its old value 2: ctest names each MvccSqlTest case with gtest's byte dump
/// of a parameter holding it (tests/mvcc_test.cc).
enum class ConcurrencyMode {
  kSnapshot = 2,
};

struct DatabaseOptions {
  size_t buffer_pool_pages = 8192;
  /// Injected per-I/O latency on the (memory-backed) disk; 0 = fast.
  int64_t disk_latency_micros = 0;
  optimizer::PlannerOptions planner;
  /// kStaged runs the staged engine with its default StagedEngineOptions.
  ExecutionMode mode = ExecutionMode::kVolcano;
  /// Front-end work reuse (§2/§5): cache normalized statements' bound plan
  /// templates so repeated/parameterized statements skip parse + optimize.
  /// Shared by Execute, Prepare/ExecutePrepared, and both servers.
  bool plan_cache = true;
  size_t plan_cache_capacity = 256;
  size_t plan_cache_shards = 8;
  /// Durability. When non-empty, the database keeps a CRC-framed write-ahead
  /// log at this path: DDL and committed DML survive a crash, and Open
  /// replays the log (committed transactions redone, losers skipped, torn
  /// tail truncated) before serving queries. Empty = in-memory database, the
  /// seed behaviour.
  std::string wal_path;
  /// Batch commits through the group-commit stage (one fdatasync per batch
  /// window) instead of one fdatasync per commit. Only meaningful with
  /// wal_path set.
  bool group_commit = true;
  int group_commit_max_batch = 64;
  int64_t group_commit_max_wait_us = 200;
  /// Unread; see ConcurrencyMode.
  ConcurrencyMode concurrency = ConcurrencyMode::kSnapshot;
  /// Wake the vacuum stage once this many delete marks have committed since
  /// the last pass (0 = wake after every committing delete).
  int64_t vacuum_dead_threshold = 64;
  /// Batching window of the vacuum stage — a wake waits this long so a burst
  /// of committing deletes coalesces into one pass.
  int64_t vacuum_window_us = 1000;
};

/// Result of one statement.
struct QueryResult {
  catalog::Schema schema;
  std::vector<catalog::Tuple> rows;
  std::string plan_text;  // EXPLAIN-style rendering of the executed plan
  /// A short human-readable summary ("3 rows", "ok").
  std::string ToString() const;
};

/// The transaction state one statement (or one explicit transaction) holds
/// between Database::BeginStatement and Database::FinishStatement.
struct OpenTxn {
  /// The MVCC transaction this handle commits or aborts: the statement's own
  /// (null for a statement inside an explicit BEGIN, which shares the
  /// session's), or the explicit transaction at COMMIT/ROLLBACK.
  std::unique_ptr<storage::MvccTxn> mvcc;
  /// Wal transaction this handle commits or aborts (0 = none: no DML, no
  /// WAL, or the statement logs under the explicit transaction's id).
  int64_t wal_txn = 0;
  /// Routes the executors' row records to the WAL (durable DML only).
  std::unique_ptr<exec::WalSink> wal_sink;
};

/// Handle on a submitted statement (see Database::SubmitPlanned). Owns the
/// execution context for the statement's lifetime; Await consumes the result
/// and must be called at most once. The staged engine runs the statement
/// asynchronously; the volcano engine has already run it on the submitting
/// thread, so its handle is done from the start.
class PendingQuery {
 public:
  /// If the query was never awaited, waits for it and finishes it as failed:
  /// an abandoned statement must not commit, leak its wal transaction, or
  /// pin the vacuum horizon with its snapshot.
  ~PendingQuery();

  /// Blocks until the query completes, finishes its statement (commit or
  /// undo) and returns its result.
  StatusOr<QueryResult> Await();
  /// True once the query has completed (Await would not block).
  bool done() const;
  /// Fires `callback` exactly once on completion (immediately if already
  /// done); used by the servers to park a packet instead of blocking a
  /// stage worker.
  void NotifyOnDone(std::function<void()> callback);

 private:
  friend class Database;
  catalog::Schema schema_;
  std::string plan_text_;
  exec::ExecContext ctx_;
  /// The staged engine's in-flight query; null when the volcano engine ran
  /// the statement inline and left its rows in `rows_`.
  std::shared_ptr<engine::StagedQuery> query_;
  StatusOr<std::vector<catalog::Tuple>> rows_{Status::Internal("not run")};
  /// The statement's transaction state; the context points into it.
  OpenTxn txn_;
  /// Set once the statement began; cleared when Await (or the destructor)
  /// runs Database::FinishStatement, so that runs exactly once.
  Database* db_ = nullptr;
  /// Set by SubmitPrepared: the engine executes against the plan's nodes, so
  /// an instantiated-on-the-fly plan must live as long as the query.
  std::unique_ptr<optimizer::PhysicalPlan> owned_plan_;
};

/// An ad-hoc SQL statement between the two front-end steps: the backpack
/// Figure 3's packet carries from the parse stage to the optimize stage.
/// Database::ParseStep fills it and Database::OptimizeStep finishes it; a
/// statement that leaves the front end holds either `plan` or `result`.
struct AdHocStatement {
  /// Set for a statement the plan cache serves: its key drives the lookup
  /// and its extracted literals bind the template.
  std::optional<frontend::NormalizedStatement> norm;
  /// The parsed statement, waiting for the optimize step.
  std::unique_ptr<parser::Statement> stmt;
  /// The executable plan: set by the parse step on a plan-cache hit (the
  /// bypass past optimize), else by the optimize step.
  std::unique_ptr<optimizer::PhysicalPlan> plan;
  /// A utility statement's (DDL, transaction control) result: the optimize
  /// step runs it.
  std::optional<QueryResult> result;
};

/// A prepared statement: the normalized form of one SQL statement, reusable
/// across executions with different parameter values. Created by
/// Database::Prepare; immutable and shareable across threads. The plan
/// template itself lives in the database's plan cache (keyed by the
/// normalized SQL), so a prepared statement survives cache eviction and
/// catalog-epoch invalidation — execution transparently replans.
class PreparedStatement {
 public:
  /// The normalized SQL (also the plan-cache key).
  const std::string& sql() const { return norm_.key; }
  /// Number of '?' parameters the statement takes.
  size_t num_params() const { return norm_.num_params; }
  /// True when the parameters were auto-extracted from literals (executing
  /// with no explicit values re-uses the extracted ones).
  bool auto_params() const { return norm_.auto_params; }

 private:
  friend class Database;
  frontend::NormalizedStatement norm_;
};

/// An embedded staged database instance. Thread-compatible: concurrent
/// Execute calls are allowed in both modes (the staged engine serializes
/// through its stages; the volcano engine runs on the caller's thread).
class Database {
 public:
  ~Database();

  static StatusOr<std::unique_ptr<Database>> Open(DatabaseOptions options = {});

  /// Parses, plans, and executes one SQL statement on the caller's thread:
  /// ParseStep, OptimizeStep unless the plan cache already planned it, then
  /// SubmitPlanned and Await.
  StatusOr<QueryResult> Execute(const std::string& sql);

  /// The front end's parse step: normalizes `sql` and looks up the plan
  /// cache. A hit instantiates the cached template into `st->plan`, so the
  /// statement skips the optimize step (Figure 3's precompiled bypass); a
  /// miss, or a statement the cache does not serve, parses into `st->stmt`.
  Status ParseStep(const std::string& sql, AdHocStatement* st);

  /// The front end's optimize step, for a statement ParseStep left parsed.
  /// A utility statement (DDL, transaction control) runs here and leaves its
  /// result in `st->result`. Any other statement is planned into `st->plan`;
  /// when the plan cache serves it, its template is published under the
  /// catalog epoch read before planning and then instantiated.
  Status OptimizeStep(AdHocStatement* st);

  /// Parses and plans only (EXPLAIN). Always plans fresh (never consults or
  /// populates the plan cache).
  StatusOr<std::string> Explain(const std::string& sql);

  /// Prepares a statement for repeated execution: normalizes it, plans the
  /// bound template, and warms the plan cache. Only SELECT / INSERT /
  /// UPDATE / DELETE can be prepared. Statements with explicit '?'
  /// placeholders take values at execution time; statements written with
  /// literals are auto-parameterized (the literals become the default
  /// parameter values).
  StatusOr<std::shared_ptr<PreparedStatement>> Prepare(const std::string& sql);

  /// SubmitPrepared, then Await.
  StatusOr<QueryResult> ExecutePrepared(
      const PreparedStatement& stmt,
      const std::vector<catalog::Value>& params = {});

  /// Binds a prepared statement to the given parameter values (empty = the
  /// auto-extracted defaults) and submits it. A plan-cache hit skips parse
  /// and optimize entirely (Figure 3's precompiled bypass straight into
  /// execute); a stale or evicted entry is transparently replanned under the
  /// current catalog epoch, so DDL between executions can never yield a
  /// stale-plan execution.
  StatusOr<std::shared_ptr<PendingQuery>> SubmitPrepared(
      const PreparedStatement& stmt,
      const std::vector<catalog::Value>& params = {});

  /// Opens the statement of an already-planned `plan` and hands it to the
  /// engine, returning a handle whose completion can be observed or awaited;
  /// `plan` must outlive the handle's completion. The staged engine runs it
  /// asynchronously, so concurrent queries overlap inside the engine (and
  /// share fscan elevators); the volcano engine runs it to completion before
  /// returning. Either way the statement commits (or is undone) at Await.
  StatusOr<std::shared_ptr<PendingQuery>> SubmitPlanned(
      const optimizer::PhysicalPlan* plan);

  catalog::Catalog* catalog() { return catalog_.get(); }
  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::MemDiskManager* disk() { return disk_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// The shared front-end plan cache (nullptr when disabled).
  frontend::PlanCache* plan_cache() { return plan_cache_.get(); }
  /// Plan-cache counters (zeros when the cache is disabled).
  frontend::PlanCacheStats CacheStats() const;

  /// Looks up (or parses + plans and inserts) the plan template for a
  /// normalized statement, tagged with the catalog epoch observed *before*
  /// planning — a concurrent DDL therefore always marks the entry stale,
  /// never fresh. Works with the cache disabled (plans without memoizing).
  StatusOr<std::shared_ptr<const frontend::CachedPlan>> GetOrPlanCached(
      const frontend::NormalizedStatement& norm);

  /// Statements run so far, each counted once where it starts running:
  /// SubmitPlanned for a planned statement, the optimize step for a utility
  /// statement.
  int64_t statements_executed() const { return statements_.value(); }

  /// Per-stage scheduling/latency snapshot of the runtime hosting the
  /// service stages (queue depths, pops, wait/service histograms — §5.2
  /// monitoring at stage granularity): the staged engine's runtime, or in
  /// volcano mode the database's own, whose only rows are `vacuum` and
  /// (with group commit) `commit`. Carries the plan-cache and group-commit
  /// counters too.
  engine::StageRuntime::StatsSnapshot EngineStats() const;

  /// True when this database is backed by a WAL (options().wal_path set).
  bool durable() const { return !options_.wal_path.empty(); }
  /// The write-ahead log (memory-only when wal_path is empty).
  storage::WriteAheadLog* wal() { return wal_.get(); }
  /// Counters from the last startup recovery pass (all zero when wal_path
  /// is unset or the log was empty).
  const storage::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// Fault-injection passthrough to the WAL's log device (crash tests).
  void set_wal_fault_injector(storage::WriteFaultInjector* injector);

  /// Runs one synchronous vacuum pass on the caller's thread and returns the
  /// number of versions physically reclaimed (tests and benchmarks;
  /// production reclamation rides the vacuum stage).
  StatusOr<int64_t> VacuumNow();
  /// The background vacuum stage.
  engine::VacuumStage* vacuum_stage() { return vacuum_.get(); }
  /// The transaction manager (the catalog's timestamp authority).
  storage::TransactionManager* txn_manager() { return txn_mgr_.get(); }

 private:
  friend class DatabaseWalSink;
  friend class CatalogRecoveryApplier;
  friend class PendingQuery;
  explicit Database(DatabaseOptions options);

  /// The runtime hosting the commit and vacuum stages: the staged engine's
  /// in kStaged mode, own_runtime_ in kVolcano mode.
  engine::StageRuntime* host_runtime() const;

  /// Appends BEGIN for a fresh wal transaction and returns its id.
  StatusOr<int64_t> BeginWalTxn();
  /// Durably commits `txn_id`: a group-commit ticket when the commit stage
  /// exists, else an inline COMMIT append + Sync. `commit_ts` (kSnapshot
  /// mode) is stamped on the COMMIT record so recovery can restore the
  /// timestamp high-water mark.
  Status CommitWalTxn(int64_t txn_id, int64_t commit_ts = 0);
  /// Appends ABORT (absence of COMMIT already makes the txn a loser; the
  /// record is for log legibility). Best-effort.
  void AbortWalTxn(int64_t txn_id);
  /// Appends + syncs a DDL record (auto-committed at append time).
  Status AppendDdl(storage::WalRecord record);

  /// The cache lookup, then on a miss the parse of the normalized tokens
  /// into `*stmt`: returns the cached template on a hit, else null.
  StatusOr<std::shared_ptr<const frontend::CachedPlan>> LookupOrParse(
      const frontend::NormalizedStatement& norm,
      std::unique_ptr<parser::Statement>* stmt);
  /// Plans `stmt`'s template under the catalog epoch read before planning
  /// and inserts it into the cache: the one place the cache is filled, so
  /// the invalidation protocol lives here only.
  StatusOr<std::shared_ptr<const frontend::CachedPlan>> PlanAndPublish(
      const parser::Statement& stmt, const frontend::NormalizedStatement& norm);
  /// The prepared path's bind step: checks the parameter count, gets the
  /// template (GetOrPlanCached) and instantiates it with the values.
  StatusOr<std::unique_ptr<optimizer::PhysicalPlan>> Bind(
      const PreparedStatement& stmt, const std::vector<catalog::Value>& params);
  /// Runs a utility statement (DDL, transaction control).
  Status RunUtility(const parser::Statement& stmt);

  /// Opens `plan`'s statement: the MVCC transaction (the explicit one when a
  /// BEGIN is open, else a fresh registered snapshot), then — for durable
  /// DML — a wal transaction and sink, then — for DML — the DDL barrier's
  /// shared lock on the target table, owned by the MVCC transaction's id.
  /// Points `ctx` at the state it records in `txn`. On error the statement
  /// holds nothing (an explicit transaction keeps the locks it already had).
  Status BeginStatement(const optimizer::PhysicalPlan* plan,
                        exec::ExecContext* ctx, OpenTxn* txn);
  /// Closes what `txn` holds, in order: MVCC commit (or undo of the write
  /// set when !ok) and snapshot release, durable wal commit (or abort), then
  /// the DDL barrier locks of the MVCC transaction it owns — so visibility
  /// is published before the durability wait and no DDL lands between a
  /// write and its commit. Returns the first commit error.
  Status FinishStatement(OpenTxn* txn, bool ok);
  /// Runs CREATE INDEX / DROP TABLE work on `table` (the catalog call and its
  /// WAL append) holding the DDL barrier exclusive: it waits out every
  /// statement and open transaction that writes the table, and their new
  /// DML waits for it. InvalidArgument inside an explicit BEGIN, because DDL
  /// auto-commits and ROLLBACK could not undo it.
  Status RunDdlExclusive(const std::string& table,
                         const std::function<Status()>& ddl);

  DatabaseOptions options_;
  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::unique_ptr<storage::TransactionManager> txn_mgr_;
  std::unique_ptr<frontend::PlanCache> plan_cache_;
  Counter statements_;
  storage::RecoveryStats recovery_stats_;
  // The DDL barrier: DML holds its target table shared until its MVCC
  // transaction ends; CREATE INDEX and DROP TABLE take it exclusive.
  // Readers never touch it.
  storage::LockManager ddl_locks_;

  // Explicit SQL transaction state (single implicit session): the MvccTxn
  // every statement inside the BEGIN shares (its write set is the undo log).
  Mutex txn_mu_;
  std::unique_ptr<storage::MvccTxn> active_mvcc_txn_ GUARDED_BY(txn_mu_);
  // wal txn id of the open BEGIN (0 = none).
  int64_t active_wal_txn_ GUARDED_BY(txn_mu_) = 0;

  // Exactly one of these hosts the service stages below: the staged engine
  // (kStaged mode) or a runtime of our own (kVolcano mode).
  std::unique_ptr<class StagedEngineHandle> staged_;
  std::unique_ptr<engine::StageRuntime> own_runtime_;

  // The service stages. Declared after their host runtime, so each drains
  // (in its destructor) while the host's workers are still alive: vacuum
  // first, since its passes touch catalog state, then commit.
  std::unique_ptr<engine::GroupCommitStage> group_commit_;  // durable only
  std::unique_ptr<engine::VacuumStage> vacuum_;
};

}  // namespace stagedb::server

#endif  // STAGEDB_SERVER_DATABASE_H_
