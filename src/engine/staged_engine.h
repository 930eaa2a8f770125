// The staged relational execution engine (§4.1.2, §4.3 of the paper).
//
// Each relational operator of a physical plan becomes an operator instance
// (a packet) assigned to its stage: fscan stages are replicated per table,
// iscan / sort / join / aggregate each have a stage, and the cheap qualifier
// operators (filter, project, limit) share one "qual" stage ("we group
// together operators which use a small portion of the common or shared data
// and code"). Mutation statements run as one packet on the dml stage.
//
// Activation is bottom-up: leaf scans are enqueued first; a parent operator
// is activated the first time a child places a page in its input buffer.
// Data moves through bounded ExchangeBuffers; a full buffer parks the
// producer (back-pressure), an empty one parks the consumer, exactly the
// re-enqueue behaviour §4.3 describes.
#ifndef STAGEDB_ENGINE_STAGED_ENGINE_H_
#define STAGEDB_ENGINE_STAGED_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "engine/commit_stage.h"
#include "engine/exchange.h"
#include "engine/runtime.h"
#include "engine/shared_scan.h"
#include "exec/executor.h"
#include "optimizer/plan.h"
#include "storage/wal.h"

namespace stagedb::engine {

/// Engine knobs (§4.4 tuning parameters).
struct StagedEngineOptions {
  /// Default worker-pool size for stages without a stage_pools entry.
  int threads_per_stage = 1;
  /// Per-stage pool overrides (size + optional core pinning), keyed by stage
  /// name ("fscan", "iscan", "qual", "sort", "join", "aggr", "dml",
  /// "execute"). Per-table scan stages ("fscan.<table>") first look up their
  /// exact name, then fall back to the "fscan" key.
  std::map<std::string, StagePoolSpec> stage_pools;
  /// Exchange buffer capacity in pages (back-pressure depth).
  size_t exchange_capacity_pages = 4;
  /// Tuples per exchanged batch (§4.4c: "the page size for exchanging
  /// intermediate results among the execution engine stages"). This is the
  /// morsel size of the batch ABI; a plan node's batch_hint (optimizer
  /// batch-size hint) overrides it per node.
  size_t tuples_per_page = 64;
  /// Lock-free SPSC ring fast path: exchange edges with exactly one
  /// producer and one consumer packet (the DOP=1 shape, and every scatter
  /// edge of a 1->N fan-out) use a SpscRingBuffer instead of the mutex
  /// ExchangeBuffer. MxN fan-in edges always fall back to the mutex buffer
  /// (the ring is strictly single-producer/single-consumer). When false,
  /// every edge uses the mutex buffer — wiring identical to the pre-ring
  /// engine.
  bool spsc_exchange = true;
  /// Pages an operator processes per packet invocation before yielding.
  int work_quantum_pages = 4;
  /// Fine = operator stages as in Figure 3; coarse = one execute stage
  /// hosting every operator (the monolithic end of §4.4's granularity
  /// trade-off).
  enum class Granularity { kFine, kCoarse };
  Granularity granularity = Granularity::kFine;
  /// Cooperative shared scans (§5.4): fscan packets attach to the table's
  /// circular elevator cursor, so N concurrent scans cost ~1 physical pass.
  /// When false, each seq-scan packet walks the heap on its own, one
  /// HeapFile::ReadPage per page.
  bool shared_scans = true;
  /// Recently read pages the elevator keeps decoded for lagging readers.
  size_t shared_scan_window_pages = 32;
  /// Partitioned intra-query parallelism cap (§4.3): the engine instantiates
  /// min(plan-node dop, max_dop) partition packets for a dop>1 hash-join or
  /// partial-aggregation node. The default of 1 keeps every plan on the
  /// single-packet-per-operator path, bit-compatible with the pre-DOP
  /// engine; raise it together with the stage's worker-pool size (a lone
  /// worker serializes the partition packets again).
  int max_dop = 1;
  /// When non-null, the engine creates a "commit" stage (engine/
  /// commit_stage.h) over this log: committing clients submit tickets and
  /// one fdatasync covers every commit in a batch window. The WAL must
  /// outlive the engine.
  storage::WriteAheadLog* wal = nullptr;
  /// Flush when this many commits are pending...
  int group_commit_max_batch = 64;
  /// ...or when the oldest pending commit has waited this long.
  int64_t group_commit_max_wait_us = 200;
};

/// Tracks one in-flight query: its operator packets, exchange buffers,
/// results, and completion state. Created by StagedEngine::Submit; the caller
/// must Await before releasing its reference.
class StagedQuery {
 public:
  /// Blocks until every packet of this query has retired.
  StatusOr<std::vector<catalog::Tuple>> Await();

  /// True once every packet has retired (Await would not block).
  bool done() const;

  /// Registers a callback fired exactly once when the query completes, from
  /// the retiring stage worker's thread (or immediately, from the caller's
  /// thread, if the query is already done). Lets a submitter park instead of
  /// blocking a worker thread in Await.
  void NotifyOnDone(std::function<void()> callback);

  // --- used by operator drivers ---
  /// Moves a whole morsel of result rows under one lock; `*batch` is left
  /// empty.
  void AppendResults(RowBatch* batch);
  /// Records the first error and cancels the dataflow (closes all buffers).
  void Fail(Status status);
  void OnInstanceRetired();
  bool failed() const;

  int64_t id = 0;
  std::vector<std::unique_ptr<StageTask>> instances;
  std::vector<std::unique_ptr<ExchangeBuffer>> buffers;
  /// Partition routers for dop>1 edges. The partition buffers themselves
  /// live in `buffers` (above) so Fail() cancels them uniformly.
  std::vector<std::unique_ptr<PartitionedExchange>> exchanges;
  /// The statement's context (DML packets, scan visibility): the caller's,
  /// or own_ctx when the caller passed none.
  exec::ExecContext* exec_ctx = nullptr;
  exec::ExecContext own_ctx;

 private:
  friend class StagedEngine;
  mutable Mutex mu_;
  CondVar cv_;
  int remaining_ GUARDED_BY(mu_) = 0;
  Status status_ GUARDED_BY(mu_);
  bool failed_ GUARDED_BY(mu_) = false;
  std::vector<catalog::Tuple> rows_ GUARDED_BY(mu_);
  std::function<void()> on_done_ GUARDED_BY(mu_);
};

/// The staged engine: owns the stage runtime and executes physical plans.
class StagedEngine {
 public:
  StagedEngine(catalog::Catalog* catalog, StagedEngineOptions options = {});
  ~StagedEngine();

  /// Executes a plan to completion and returns the result rows. Thread-safe:
  /// concurrent calls interleave through the shared stages. `exec_ctx` is
  /// optional: it carries the statement's MVCC transaction and WAL sink.
  StatusOr<std::vector<catalog::Tuple>> Execute(
      const optimizer::PhysicalPlan* plan,
      exec::ExecContext* exec_ctx = nullptr);

  /// Asynchronous execution for concurrent-client experiments.
  std::shared_ptr<StagedQuery> Submit(const optimizer::PhysicalPlan* plan,
                                      exec::ExecContext* exec_ctx = nullptr);

  StageRuntime* runtime() { return &runtime_; }
  catalog::Catalog* catalog() { return catalog_; }
  const StagedEngineOptions& options() const { return options_; }
  /// The per-table elevator cursors the fscan stages share (§5.4).
  SharedScanManager* shared_scans() { return shared_scans_.get(); }
  /// The commit stage (null unless options.wal was set).
  GroupCommitStage* group_commit() { return group_commit_.get(); }

  /// The stage responsible for a plan node (exposed for tests/monitoring).
  Stage* StageFor(const optimizer::PhysicalPlan& node);

 private:
  /// Pool configuration for a stage: exact stage_pools entry, the "fscan"
  /// fallback for per-table scan stages, else threads_per_stage unpinned.
  StagePoolSpec PoolFor(const std::string& stage_name) const;
  /// Creates the commit stage when options_.wal is set (ctor helper).
  void MaybeCreateCommitStage();

  catalog::Catalog* catalog_;
  StagedEngineOptions options_;
  StageRuntime runtime_;
  std::unique_ptr<SharedScanManager> shared_scans_;
  // Declared after runtime_; the dtor drains it before runtime_.Shutdown().
  std::unique_ptr<GroupCommitStage> group_commit_;

  // Guards the lazily-built per-table fscan stage map below; the named
  // stages are created in the constructor and immutable afterwards.
  Mutex stage_map_mu_;
  Stage* iscan_stage_ = nullptr;
  Stage* qual_stage_ = nullptr;
  Stage* sort_stage_ = nullptr;
  Stage* join_stage_ = nullptr;
  Stage* aggr_stage_ = nullptr;
  Stage* dml_stage_ = nullptr;
  Stage* execute_stage_ = nullptr;  // coarse granularity
  std::map<catalog::TableId, Stage*> fscan_stages_ GUARDED_BY(stage_map_mu_);

  std::atomic<int64_t> next_query_id_{1};
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_STAGED_ENGINE_H_
