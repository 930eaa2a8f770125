// The staged runtime: stages with queues and worker pools, packets
// (StageTask), and two-level scheduling.
//
// This implements §4.1 of the paper: "A stage is an independent server with
// its own queue, thread support, and resource management ... Stages accept
// packets, perform work on the packets, and may enqueue the same or newly
// created packets to other stages."
//
// Two-level scheduling (§4.1.1): local FIFO service by each stage's worker
// threads, and a global SchedulingPolicy deciding which stage the CPU
// serves. The policy family is the one Figure 5 compares (definitions:
// docs/DESIGN.md §3, mirrored from simsched::Policy):
//   * free-run   — every stage's workers run whenever they have packets (the
//                  natural SMP operating point of §5.3); no cohort rotation.
//   * non-gated  — one stage is active at a time and drains exhaustively:
//                  packets arriving during the visit are admitted. This is
//                  the single-CPU affinity mode of §4.3 ("rotating the
//                  thread group priorities among the stages").
//   * D-gated    — the gate closes when the rotation arrives: only packets
//                  queued at that instant are served this visit; arrivals
//                  (including yield re-queues) wait for the next visit.
//   * T-gated(k) — gated, but the gate may close and re-open up to k times
//                  per visit before the rotation moves on.
#ifndef STAGEDB_ENGINE_RUNTIME_H_
#define STAGEDB_ENGINE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
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
  friend class StageRuntime;
  enum class State { kIdle, kQueued, kRunning, kDone };
  std::atomic<State> state_{State::kIdle};
  /// Set by Activate when it finds the packet still kRunning (the worker has
  /// not parked it yet); consumed under the runtime mutex by the park path,
  /// which requeues instead of parking. This hand-off means no thread ever
  /// touches the packet after its worker published kIdle — the wake-up is
  /// never lost and the packet cannot be served-and-retired under a thread
  /// still inspecting it.
  std::atomic<bool> wake_pending_{false};
  Stage* home_stage_ = nullptr;
  Stage* next_stage_ = nullptr;
  int64_t query_id_ = -1;
  // Timestamps for the wait/service histograms; written and read only while
  // the runtime mutex is held.
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

/// The named members of the policy family (Figure 5). kCohort is the
/// pre-policy-object name for exhaustive cohort rotation and is kept as an
/// alias so existing call sites read unchanged.
enum class SchedulerPolicy {
  kFreeRun,
  kCohort,               ///< exhaustive (non-gated) cohort rotation
  kNonGated = kCohort,   ///< alias: the Figure-5 name for the same policy
  kDGated,
  kTGated,
};

/// Pluggable global scheduling policy (level two of §4.1.1's two-level
/// scheme). The runtime owns the rotation mechanics — one active stage, a
/// per-visit admission gate, FIFO service — and consults the policy, with
/// the runtime mutex held, for the admission decisions that distinguish the
/// Figure-5 family. Implementations must not block or call back into the
/// runtime.
class SchedulingPolicy {
 public:
  /// Admission value meaning "no bound": serve as long as the queue is
  /// non-empty (exhaustive service).
  static constexpr int64_t kUnbounded = -1;

  virtual ~SchedulingPolicy() = default;

  /// Human-readable policy name for stats and bench reports.
  virtual std::string name() const = 0;

  /// True = bypass cohort rotation entirely: every stage's workers may serve
  /// whenever their queue is non-empty. OnVisitStart/OnGateExhausted are
  /// never called.
  virtual bool free_run() const { return false; }

  /// The rotation arrived at a stage with `queued` packets: how many
  /// dequeues the first gate round admits (clamped to `queued`), or
  /// kUnbounded for exhaustive service.
  virtual int64_t OnVisitStart(size_t queued) {
    (void)queued;
    return kUnbounded;
  }

  /// The current gate is exhausted, no packet of this stage is in service,
  /// and `queued` packets (arrivals during the visit) are waiting:
  /// return the admission for another gate round, or 0 to end the visit and
  /// rotate. `rounds_done` counts gate rounds already served this visit.
  virtual int64_t OnGateExhausted(size_t queued, int rounds_done) {
    (void)queued;
    (void)rounds_done;
    return 0;
  }
};

/// Builds the named policies: kFreeRun, kCohort/kNonGated, kDGated, and
/// kTGated with `gate_rounds` rounds per visit (2 = "T-gated(2)";
/// values < 2 are clamped to 2 — T-gated(1) is D-gated).
std::unique_ptr<SchedulingPolicy> MakeSchedulerPolicy(SchedulerPolicy policy,
                                                      int gate_rounds = 2);

/// Per-stage worker-pool configuration. §4.1 gives each stage its own thread
/// support; §4.3 binds a stage's threads to a processor for cache affinity.
struct StagePoolSpec {
  int num_workers = 1;
  /// CPU to pin this stage's workers to (Linux; ignored elsewhere and taken
  /// modulo the hardware concurrency). -1 = unpinned. Best-effort: if the
  /// process's affinity mask excludes the CPU, the workers run unpinned.
  int pinned_cpu = -1;
};

/// The stage_pools lookup shared by the engine and the staged server: the
/// entry for `name` if present, else `default_workers` unpinned.
StagePoolSpec PoolSpecFor(const std::map<std::string, StagePoolSpec>& pools,
                          const std::string& name, int default_workers);

/// A stage: queue + worker pool + monitoring counters.
class Stage {
 public:
  const std::string& name() const { return name_; }
  int id() const { return id_; }
  int num_workers() const { return spec_.num_workers; }
  int pinned_cpu() const { return spec_.pinned_cpu; }

  /// Enqueues a packet. First activation binds the packet to this stage.
  void Enqueue(StageTask* task) EXCLUDES(*run_mu_);

  /// Wakes a parked packet (no-op if it is queued, running, or done). Safe to
  /// call from any thread; used by exchange buffers for producer/consumer
  /// activation.
  void Activate(StageTask* task) EXCLUDES(*run_mu_);

  // Monitoring (§5.2: each stage exposes its own utilization).
  int64_t packets_processed() const { return processed_; }
  int64_t packets_yielded() const { return yielded_; }
  int64_t packets_blocked() const { return blocked_; }
  size_t queue_depth() const EXCLUDES(*run_mu_);

  /// Intra-query parallelism accounting: `count` partition packets of one
  /// dop>1 operator were created on this stage (called by the engine when it
  /// fans a plan node out; §4.3).
  void CountParallelPackets(int64_t count) {
    parallel_packets_ += count;
    ++parallel_groups_;
  }
  int64_t parallel_packets() const { return parallel_packets_; }
  int64_t parallel_groups() const { return parallel_groups_; }

 private:
  friend class StageRuntime;
  Stage(StageRuntime* runtime, Mutex* run_mu, std::string name, int id,
        StagePoolSpec spec)
      : runtime_(runtime),
        run_mu_(run_mu),
        name_(std::move(name)),
        id_(id),
        spec_(spec) {}

  /// Appends an already-kQueued packet (caller holds the runtime mutex).
  void PushLocked(StageTask* task) REQUIRES(*run_mu_);

  StageRuntime* const runtime_;
  /// The runtime's scheduler mutex (always &runtime_->mu_), duplicated here
  /// so the GUARDED_BY annotations below can name it — StageRuntime is not
  /// yet declared, and the thread-safety analysis matches capability
  /// expressions structurally, so runtime_->mu_ would not be recognized as
  /// the lock StageRuntime methods hold as mu_. The runtime asserts the
  /// equivalence at its cross-object accesses (AssertHeld).
  Mutex* const run_mu_;
  const std::string name_;
  const int id_;
  const StagePoolSpec spec_;
  std::deque<StageTask*> queue_ GUARDED_BY(*run_mu_);
  int inflight_ GUARDED_BY(*run_mu_) = 0;  // workers running a packet
  std::atomic<int64_t> processed_{0};
  std::atomic<int64_t> yielded_{0};
  std::atomic<int64_t> blocked_{0};
  // Partition packets (and dop>1 operator groups) instantiated here.
  std::atomic<int64_t> parallel_packets_{0};
  std::atomic<int64_t> parallel_groups_{0};
  // Visit accounting and latency histograms.
  int64_t visits_ GUARDED_BY(*run_mu_) = 0;  // rotation arrivals (0 free-run)
  int64_t gate_rounds_ GUARDED_BY(*run_mu_) = 0;  // gate rounds served
  int64_t pops_ GUARDED_BY(*run_mu_) = 0;  // packets dequeued for service
  Histogram wait_micros_ GUARDED_BY(*run_mu_);     // enqueue -> dequeue
  Histogram service_micros_ GUARDED_BY(*run_mu_);  // one Run() invocation
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
    int64_t visits = 0;
    int64_t gate_rounds = 0;
    int64_t pops = 0;
    Histogram wait_micros;
    Histogram service_micros;
    /// Mean batch size per rotation arrival (the Figure-5 x-axis analogue).
    double PacketsPerVisit() const {
      return visits == 0 ? 0.0 : static_cast<double>(pops) / visits;
    }
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

  /// Consistent snapshot of the whole runtime, taken under the runtime
  /// mutex.
  struct StatsSnapshot {
    std::string policy;
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

  explicit StageRuntime(SchedulerPolicy policy = SchedulerPolicy::kFreeRun);
  /// Takes ownership of a custom policy object (never null).
  explicit StageRuntime(std::unique_ptr<SchedulingPolicy> policy);
  ~StageRuntime();

  StageRuntime(const StageRuntime&) = delete;
  StageRuntime& operator=(const StageRuntime&) = delete;

  /// Creates a stage with its worker pool. All stages must be created before
  /// the first packet is enqueued.
  Stage* CreateStage(const std::string& name, int num_workers = 1);
  Stage* CreateStage(const std::string& name, StagePoolSpec spec);

  /// Stops all workers (drains nothing; callers should have completed or
  /// cancelled their queries).
  void Shutdown() EXCLUDES(mu_);

  const SchedulingPolicy& policy() const { return *policy_; }
  /// Number of times the cohort activation rotated between stages.
  int64_t stage_switches() const { return stage_switches_; }
  const std::vector<std::unique_ptr<Stage>>& stages() const { return stages_; }

  StatsSnapshot Stats() const EXCLUDES(mu_);

 private:
  friend class Stage;

  void WorkerLoop(Stage* stage);
  /// Blocks until a packet for `stage` may run under the global policy.
  StageTask* WaitForTask(Stage* stage) EXCLUDES(mu_);
  void FinishTask(Stage* stage, StageTask* task, RunOutcome outcome)
      EXCLUDES(mu_);
  /// Cohort modes: close/extend the current visit and advance the active
  /// stage per the policy.
  void MaybeRotateLocked() REQUIRES(mu_);

  const std::unique_ptr<SchedulingPolicy> policy_;
  const bool free_run_;
  mutable Mutex mu_;
  CondVar cv_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  // Cohort rotation state. While a visit is open only the active stage's
  // workers may dequeue, and only while the gate admits.
  size_t active_stage_ GUARDED_BY(mu_) = 0;
  bool visit_open_ GUARDED_BY(mu_) = false;
  int64_t gate_remaining_ GUARDED_BY(mu_) = 0;  // kUnbounded = exhaustive
  int visit_rounds_ GUARDED_BY(mu_) = 0;  // gate rounds in the open visit
  std::atomic<int64_t> stage_switches_{0};
  // Appended to (under mu_) only by CreateStage, which must finish before
  // the first packet flows; read unlocked by stages() and the worker loops.
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<std::thread> workers_;  // touched only by the owner thread
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_RUNTIME_H_
