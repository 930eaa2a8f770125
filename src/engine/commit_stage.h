// The group-commit stage: the staged design's answer to fsync cost.
//
// fsync is the most expensive syscall the engine issues, and a naive commit
// path pays it once per transaction. Group commit turns the commit point
// into a stage (§4.1: "a stage is an independent server with its own queue")
// whose packets are commit *tickets*: a committing client parks on its
// ticket while the stage's flush packet batches every ticket that arrived
// within the window — bounded by max_batch / max_wait_us — appends all their
// COMMIT records, issues ONE Sync() (fdatasync), and only then acks the
// tickets in LSN order. The ack-ordering invariant: a ticket is never
// completed before the Sync() that covers its COMMIT record returns, and
// tickets complete in the order their records entered the log.
#ifndef STAGEDB_ENGINE_COMMIT_STAGE_H_
#define STAGEDB_ENGINE_COMMIT_STAGE_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "storage/wal.h"

namespace stagedb::engine {

/// One commit in flight through the group-commit stage. Created by
/// GroupCommitStage::Submit; the committing thread blocks in Wait() until
/// the batch holding its COMMIT record is durable.
class CommitTicket {
 public:
  /// Blocks until the ticket's COMMIT record is synced (or the flush
  /// failed); returns the flush status.
  Status Wait();

  int64_t txn_id() const { return txn_id_; }
  /// MVCC commit timestamp carried into the COMMIT record (0 = none).
  int64_t commit_ts() const { return commit_ts_; }
  /// LSN of the COMMIT record (0 until flushed).
  int64_t lsn() const;

 private:
  friend class GroupCommitStage;
  CommitTicket(int64_t txn_id, int64_t commit_ts)
      : txn_id_(txn_id), commit_ts_(commit_ts) {}
  void Complete(int64_t lsn, Status status);

  const int64_t txn_id_;
  const int64_t commit_ts_;
  mutable Mutex mu_;
  CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  int64_t lsn_ GUARDED_BY(mu_) = 0;
  Status status_ GUARDED_BY(mu_);
  int64_t arrival_micros_ = 0;  // written by Submit, read by the flush loop
};

/// The stage itself. Rides a caller-provided StageRuntime (the engine's own
/// runtime in staged mode, so "commit" shows up beside fscan/join in the
/// stage table; a private free-run runtime in volcano mode).
class GroupCommitStage {
 public:
  struct Options {
    int max_batch = 64;       ///< flush when this many tickets are pending
    int64_t max_wait_us = 200;  ///< ... or when the oldest waited this long
  };

  /// Creates the "commit" stage on `runtime`. Must be called before the
  /// runtime serves its first packet (stage creation rule). `wal` must
  /// outlive this object.
  GroupCommitStage(StageRuntime* runtime, storage::WriteAheadLog* wal,
                   Options options, StagePoolSpec pool);
  ~GroupCommitStage();

  GroupCommitStage(const GroupCommitStage&) = delete;
  GroupCommitStage& operator=(const GroupCommitStage&) = delete;

  /// Submits txn `txn_id` for commit; the caller then blocks in
  /// ticket->Wait(). `commit_ts` (the MVCC commit timestamp) is stamped on the
  /// COMMIT record so recovery can restore the timestamp high-water mark.
  /// Returns a completed ticket with an Aborted status if the stage is
  /// draining.
  std::shared_ptr<CommitTicket> Submit(int64_t txn_id, int64_t commit_ts = 0);

  /// Flushes every pending ticket and stops accepting new ones. Must be
  /// called before the owning runtime's Shutdown(); after Drain returns no
  /// flush work is in progress.
  void Drain();

  StageRuntime::GroupCommitCounters counters() const;
  Stage* stage() { return stage_; }

 private:
  class FlushTask;
  RunOutcome RunFlush();
  bool HasPending() const;

  storage::WriteAheadLog* const wal_;
  const Options options_;
  Stage* stage_;
  std::unique_ptr<FlushTask> task_;

  mutable Mutex mu_;
  CondVar window_cv_;  // wakes the window wait early
  std::deque<std::shared_ptr<CommitTicket>> pending_ GUARDED_BY(mu_);
  bool draining_ GUARDED_BY(mu_) = false;
  int64_t commits_ GUARDED_BY(mu_) = 0;
  int64_t batches_ GUARDED_BY(mu_) = 0;
  Histogram batch_size_ GUARDED_BY(mu_);
  Histogram flush_micros_ GUARDED_BY(mu_);
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_COMMIT_STAGE_H_
