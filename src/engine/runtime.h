// The staged runtime: stages with queues and worker pools, and packets
// (StageTask).
//
// This implements §4.1 of the paper: "A stage is an independent server with
// its own queue, thread support, and resource management ... Stages accept
// packets, perform work on the packets, and may enqueue the same or newly
// created packets to other stages."
//
// Scheduling is free-run: each stage's workers serve its FIFO queue whenever
// it has packets (the natural SMP operating point of §5.3), and a packet
// move wakes one worker of the destination stage. The paper's global level
// of two-level scheduling (§4.1.1) — Figure 5's non-gated, D-gated and
// T-gated(k) cohort rotation — is reproduced by the simsched model; measured
// on this runtime each of them lost to free-run, so the runtime does not
// carry them (docs/DESIGN.md §3). With no state shared across stages, every
// stage has its own lock.
#ifndef STAGEDB_ENGINE_RUNTIME_H_
#define STAGEDB_ENGINE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/status.h"

namespace stagedb::engine {

class Stage;
class StageRuntime;

/// What a packet's Run() reports back to its stage.
enum class RunOutcome {
  kDone,     ///< this packet's work is finished; do not requeue
  kYield,    ///< more work available now; requeue at the back of the queue
  kBlocked,  ///< cannot proceed (input empty / output full); park until woken
  kMoved,    ///< forward the packet to the stage set via set_next_stage()
             ///< (the paper's "forwarding the packet to the next stage")
};

/// A packet: a unit of work for one query at one stage (the paper's packet
/// carrying the query's "backpack"). Subclasses hold the query state.
class StageTask {
 public:
  virtual ~StageTask() = default;

  /// Performs a bounded amount of work. Called by stage worker threads.
  virtual RunOutcome Run() = 0;

  /// Re-checked after a kBlocked outcome, just before parking (while the
  /// worker still owns the packet): returning true requeues instead of
  /// parking, closing the race between deciding to park and a
  /// producer/consumer making progress possible.
  virtual bool CanMakeProgress() { return false; }

  /// Called exactly once, after a kDone outcome, when the runtime will never
  /// touch this packet again. Completion notification (which may free the
  /// packet) must happen here, not inside Run().
  virtual void OnRetired() {}

  int64_t query_id() const { return query_id_; }
  void set_query_id(int64_t id) { query_id_ = id; }

  /// Destination for a kMoved outcome (set inside Run()).
  void set_next_stage(Stage* stage) { next_stage_ = stage; }

 private:
  friend class Stage;
  enum class State { kIdle, kQueued, kRunning, kDone };
  std::atomic<State> state_{State::kIdle};
  /// Set by Activate when it finds the packet still kRunning (the worker has
  /// not parked it yet); consumed by the park path, which requeues instead
  /// of parking. Both sides hold the lock of the stage the packet runs on.
  /// This hand-off means no thread ever touches the packet after its worker
  /// published kIdle — the wake-up is never lost and the packet cannot be
  /// served-and-retired under a thread still inspecting it.
  std::atomic<bool> wake_pending_{false};
  Stage* next_stage_ = nullptr;
  /// The stage whose worker last dequeued this packet (null until then).
  /// Only Activate's debug assert reads it: the hand-off above holds only if
  /// a parked packet is woken on the stage it parked on.
  Stage* ran_on_ = nullptr;
  int64_t query_id_ = -1;
  // Timestamps for the wait/service histograms; written and read only under
  // the lock of the stage that queues and serves the packet.
  int64_t enqueue_micros_ = 0;
  int64_t service_start_micros_ = 0;
};

/// The single long-lived packet of a service stage (group commit, vacuum):
/// parked while its owner has nothing pending, re-activated by the owner,
/// and retired (its Run returns kDone) once the owner drains. OnRetired is
/// the runtime's last access to a packet, so the owner may free the packet
/// only after WaitRetired returns.
class ServiceTask : public StageTask {
 public:
  /// Hands the packet to `stage` (Stage::Activate) and records that it was.
  /// Call it under the lock with which the owner admits work, so a drain
  /// that finds the packet never activated cannot miss a later activation.
  void Activate(Stage* stage) EXCLUDES(mu_);
  void OnRetired() override EXCLUDES(mu_);
  /// Blocks until the packet has retired, re-activating it on `stage` every
  /// millisecond: it may be parked on a wake that predates the drain.
  /// Returns at once if the packet was never activated. The owner must
  /// already refuse new work, and `stage`'s runtime must still have its
  /// workers.
  void WaitRetired(Stage* stage) EXCLUDES(mu_);

 private:
  Mutex mu_;
  CondVar cv_;
  bool activated_ GUARDED_BY(mu_) = false;
  bool retired_ GUARDED_BY(mu_) = false;
};

/// Per-stage worker-pool configuration. §4.1 gives each stage its own thread
/// support; §4.3 binds a stage's threads to a processor for cache affinity.
struct StagePoolSpec {
  int num_workers = 1;
  /// CPU to pin this stage's workers to (Linux; ignored elsewhere and taken
  /// modulo the hardware concurrency). -1 = unpinned. Best-effort: if the
  /// process's affinity mask excludes the CPU, the workers run unpinned.
  int pinned_cpu = -1;
};

/// A stage: queue + worker pool + monitoring counters.
class Stage {
 public:
  const std::string& name() const { return name_; }
  int id() const { return id_; }
  int num_workers() const { return spec_.num_workers; }
  int pinned_cpu() const { return spec_.pinned_cpu; }

  /// Submits a packet that is neither queued, running nor retired: a fresh
  /// packet, or one parked on this stage. A no-op for any other packet.
  void Enqueue(StageTask* task) EXCLUDES(mu_);

  /// Wakes a parked packet (no-op if it is queued or done; if it is running,
  /// its worker requeues it instead of parking it). Safe to call from any
  /// thread — exchange buffers use it for producer/consumer activation — but
  /// it must name the stage the packet runs on: the race with the worker's
  /// park decision is settled under that stage's lock.
  void Activate(StageTask* task) EXCLUDES(mu_);

  // Monitoring (§5.2: each stage exposes its own utilization).
  int64_t packets_processed() const EXCLUDES(mu_);
  int64_t packets_yielded() const EXCLUDES(mu_);
  int64_t packets_blocked() const EXCLUDES(mu_);
  size_t queue_depth() const EXCLUDES(mu_);

  /// Intra-query parallelism accounting: `count` partition packets of one
  /// dop>1 operator were created on this stage (called by the engine when it
  /// fans a plan node out; §4.3).
  void CountParallelPackets(int64_t count) EXCLUDES(mu_);

 private:
  friend class StageRuntime;
  Stage(std::string name, int id, StagePoolSpec spec)
      : name_(std::move(name)), id_(id), spec_(spec) {}

  /// Appends an already-kQueued packet.
  void PushLocked(StageTask* task) REQUIRES(mu_);
  /// PushLocked under the lock, then wakes one of this stage's workers.
  void Push(StageTask* task) EXCLUDES(mu_);

  // Worker side: serve the queue until Stop.
  void WorkerLoop() EXCLUDES(mu_);
  /// Blocks until a packet is queued (returns it kRunning) or the stage
  /// stops (returns null).
  StageTask* WaitForTask() EXCLUDES(mu_);
  void FinishTask(StageTask* task, RunOutcome outcome) EXCLUDES(mu_);
  void Stop() EXCLUDES(mu_);

  const std::string name_;
  const int id_;
  const StagePoolSpec spec_;
  /// A leaf lock: nothing else is locked, and no task, buffer or owner code
  /// runs, while it is held.
  mutable Mutex mu_;
  CondVar cv_;  // this stage's workers wait here for packets
  bool stopping_ GUARDED_BY(mu_) = false;
  std::deque<StageTask*> queue_ GUARDED_BY(mu_);
  int64_t pops_ GUARDED_BY(mu_) = 0;  // packets dequeued for service
  // How each service ended: kDone/kMoved, kYield, kBlocked.
  int64_t processed_ GUARDED_BY(mu_) = 0;
  int64_t yielded_ GUARDED_BY(mu_) = 0;
  int64_t blocked_ GUARDED_BY(mu_) = 0;
  // Partition packets (and dop>1 operator groups) instantiated here.
  int64_t parallel_packets_ GUARDED_BY(mu_) = 0;
  int64_t parallel_groups_ GUARDED_BY(mu_) = 0;
  int64_t wakeups_ GUARDED_BY(mu_) = 0;  // worker returns from a wait
  // Wake-ups that found nothing this stage could run.
  int64_t spurious_wakeups_ GUARDED_BY(mu_) = 0;
  Histogram wait_micros_ GUARDED_BY(mu_);     // enqueue -> dequeue
  Histogram service_micros_ GUARDED_BY(mu_);  // one Run() invocation
};

/// Owns the stages and their worker threads.
class StageRuntime {
 public:
  /// Point-in-time copy of one stage's monitoring state (§5.2).
  struct StageStats {
    std::string name;
    int num_workers = 0;
    int pinned_cpu = -1;
    size_t queue_depth = 0;
    int64_t processed = 0;
    int64_t yielded = 0;
    int64_t blocked = 0;
    /// Partition packets created here by dop>1 operators, and how many such
    /// parallel operator groups they came from (0/0 when every plan ran at
    /// DOP=1).
    int64_t parallel_packets = 0;
    int64_t parallel_groups = 0;
    int64_t pops = 0;
    /// Times one of this stage's workers returned from waiting for work,
    /// and how many of those found nothing it could run.
    int64_t wakeups = 0;
    int64_t spurious_wakeups = 0;
    Histogram wait_micros;
    Histogram service_micros;
  };

  /// Group-commit counters: how well the commit stage's batch window
  /// amortizes fsyncs (filled from GroupCommitStage::counters(); zero /
  /// disabled when no commit stage is attached).
  struct GroupCommitCounters {
    bool enabled = false;
    int64_t commits = 0;  ///< tickets acked
    int64_t batches = 0;  ///< flush rounds (one Sync() barrier each)
    int64_t syncs = 0;    ///< total WAL Sync() barriers (includes non-commit)
    Histogram batch_size;
    Histogram flush_micros;  ///< append-all + Sync latency per batch
  };

  /// Plan-cache counters mirrored into the snapshot by the Database facade
  /// (plain numbers here so the engine does not depend on the frontend
  /// module; see frontend::PlanCacheStats for the source of truth).
  struct PlanCacheCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  /// Snapshot of the whole runtime. Each stage's row is consistent (copied
  /// under that stage's lock); rows of different stages are taken one
  /// after another.
  struct StatsSnapshot {
    /// Always 0: free-run has no cohort rotation to switch. Kept only
    /// because the benchmark harness still reads it.
    int64_t stage_switches = 0;
    std::vector<StageStats> stages;
    /// Front-end work-reuse counters (filled by Database::EngineStats; zero
    /// when no plan cache is attached).
    PlanCacheCounters plan_cache;
    /// Commit-stage fsync amortization (filled by Database::EngineStats).
    GroupCommitCounters group_commit;
    /// Multi-line human-readable report (one row per stage).
    std::string ToString() const;
  };

  StageRuntime() = default;
  ~StageRuntime();

  StageRuntime(const StageRuntime&) = delete;
  StageRuntime& operator=(const StageRuntime&) = delete;

  /// Creates a stage with its worker pool. Safe while other stages run
  /// packets (the staged engine creates per-table scan stages on demand).
  Stage* CreateStage(const std::string& name, int num_workers = 1)
      EXCLUDES(stages_mu_);
  Stage* CreateStage(const std::string& name, StagePoolSpec spec)
      EXCLUDES(stages_mu_);

  /// Stops all workers (drains nothing; callers should have completed or
  /// cancelled their queries).
  void Shutdown() EXCLUDES(stages_mu_);

  /// The stages in creation order.
  std::vector<Stage*> stages() const EXCLUDES(stages_mu_);

  StatsSnapshot Stats() const EXCLUDES(stages_mu_);

 private:
  /// Guards the stage and worker lists. Never held while a stage's lock is
  /// taken.
  mutable Mutex stages_mu_;
  std::vector<std::unique_ptr<Stage>> stages_ GUARDED_BY(stages_mu_);
  std::vector<std::thread> workers_ GUARDED_BY(stages_mu_);
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_RUNTIME_H_
