// The vacuum stage: staged reclamation of dead MVCC versions.
//
// Snapshot-mode deletes only *mark* versions dead; something must eventually
// reclaim the storage and the index entries. In the staged design that
// something is, of course, a stage: a long-lived packet parked on its own
// queue, woken by the commit path when enough delete marks have committed,
// which runs Catalog::MvccVacuum passes against the horizon the
// TransactionManager computes from the oldest live snapshot. Readers never
// coordinate with it — vacuum only touches versions already invisible to
// every present and future snapshot, and the catalog's structural lock
// serializes its index-entry removal against concurrent inserters.
#ifndef STAGEDB_ENGINE_VACUUM_STAGE_H_
#define STAGEDB_ENGINE_VACUUM_STAGE_H_

#include <cstdint>
#include <memory>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "engine/runtime.h"

namespace stagedb::engine {

/// The stage itself. Rides a caller-provided StageRuntime (the engine's own
/// runtime in staged mode so "vacuum" shows up beside fscan/commit in the
/// stage table; the commit stage's private runtime in volcano mode).
class VacuumStage {
 public:
  struct Options {
    /// Batching window after a wake: absorbs a burst of committing deletes
    /// into one pass instead of one pass per commit.
    int64_t window_us = 1000;
  };

  /// Creates the "vacuum" stage on `runtime`. Must be called before the
  /// runtime serves its first packet (stage creation rule). `catalog` must
  /// have a timestamp authority and must outlive this object.
  VacuumStage(StageRuntime* runtime, catalog::Catalog* catalog,
              Options options, StagePoolSpec pool);
  ~VacuumStage();

  VacuumStage(const VacuumStage&) = delete;
  VacuumStage& operator=(const VacuumStage&) = delete;

  /// Hints that dead versions await reclamation (called by the commit path
  /// when the TransactionManager's dead-version counter crosses the
  /// Database's threshold). Cheap and non-blocking; passes coalesce.
  void Wake();

  /// Runs remaining passes and stops accepting wakes. Must be called before
  /// the owning runtime's Shutdown(); after Drain returns no vacuum work is
  /// in progress.
  void Drain();

  int64_t passes() const;
  int64_t versions_reclaimed() const;
  /// First pass error, if any (passes keep running after errors).
  Status last_error() const;
  Stage* stage() { return stage_; }

 private:
  class VacuumTask;
  RunOutcome RunVacuum();
  bool HasPending() const;

  catalog::Catalog* const catalog_;
  const Options options_;
  Stage* stage_;
  std::unique_ptr<VacuumTask> task_;

  mutable Mutex mu_;
  CondVar window_cv_;  // cut a batching window short (drain)
  bool wake_pending_ GUARDED_BY(mu_) = false;
  bool draining_ GUARDED_BY(mu_) = false;
  int64_t passes_ GUARDED_BY(mu_) = 0;
  int64_t reclaimed_ GUARDED_BY(mu_) = 0;
  Status last_error_ GUARDED_BY(mu_);
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_VACUUM_STAGE_H_
