#include "engine/runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/clock.h"
#include "common/string_util.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace stagedb::engine {

// Lock ordering: exchange-buffer locks may be held while calling
// Stage::Enqueue/Activate (which take the runtime mutex). The runtime never
// calls back into task or buffer code while holding its mutex. The policy
// object is only invoked with the runtime mutex held and must not block.

namespace {

int64_t NowMicros() { return RealClock::Instance()->NowMicros(); }

/// free-run: no rotation; every stage serves whenever it has packets.
class FreeRunPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "free-run"; }
  bool free_run() const override { return true; }
};

/// non-gated: exhaustive service — the visit admits arrivals and ends only
/// when the stage is fully drained.
class NonGatedPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "non-gated"; }
  int64_t OnVisitStart(size_t) override { return kUnbounded; }
};

/// D-gated: one gate per visit, closed at rotation arrival.
class DGatedPolicy : public SchedulingPolicy {
 public:
  std::string name() const override { return "D-gated"; }
  int64_t OnVisitStart(size_t queued) override {
    return static_cast<int64_t>(queued);
  }
};

/// T-gated(k): up to k gate rounds per visit.
class TGatedPolicy : public SchedulingPolicy {
 public:
  explicit TGatedPolicy(int gate_rounds)
      : gate_rounds_(std::max(2, gate_rounds)) {}
  std::string name() const override {
    return StrFormat("T-gated(%d)", gate_rounds_);
  }
  int64_t OnVisitStart(size_t queued) override {
    return static_cast<int64_t>(queued);
  }
  int64_t OnGateExhausted(size_t queued, int rounds_done) override {
    return rounds_done < gate_rounds_ ? static_cast<int64_t>(queued) : 0;
  }

 private:
  const int gate_rounds_;
};

void PinThread(std::thread* thread, int cpu) {
#if defined(__linux__)
  if (cpu < 0) return;
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % ncpu, &set);
  pthread_setaffinity_np(thread->native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}

}  // namespace

StagePoolSpec PoolSpecFor(const std::map<std::string, StagePoolSpec>& pools,
                          const std::string& name, int default_workers) {
  auto it = pools.find(name);
  if (it != pools.end()) return it->second;
  StagePoolSpec spec;
  spec.num_workers = default_workers;
  return spec;
}

std::unique_ptr<SchedulingPolicy> MakeSchedulerPolicy(SchedulerPolicy policy,
                                                      int gate_rounds) {
  switch (policy) {
    case SchedulerPolicy::kFreeRun:
      return std::make_unique<FreeRunPolicy>();
    case SchedulerPolicy::kCohort:
      return std::make_unique<NonGatedPolicy>();
    case SchedulerPolicy::kDGated:
      return std::make_unique<DGatedPolicy>();
    case SchedulerPolicy::kTGated:
      return std::make_unique<TGatedPolicy>(gate_rounds);
  }
  return std::make_unique<FreeRunPolicy>();
}

// Caller holds the runtime mutex and has already transitioned the packet to
// kQueued. The single place queue membership is granted, so the wait-time
// stamp and the rotation update cannot be missed by any enqueue path.
void Stage::PushLocked(StageTask* task) {
  task->enqueue_micros_ = NowMicros();
  queue_.push_back(task);
  // run_mu_ IS runtime_->mu_, but the analysis matches capability
  // expressions structurally and cannot equate the two spellings; restate
  // the held lock under the runtime's name for the REQUIRES(mu_) call.
  runtime_->mu_.AssertHeld();
  runtime_->MaybeRotateLocked();
}

void Stage::Enqueue(StageTask* task) {
  // A packet may be (re)queued from idle (fresh, parked, or moving between
  // stages) or from running (worker requeue after kYield). The CAS winner
  // re-homes the packet, which is how packets travel through the lifecycle
  // stages (connect -> parse -> optimize -> execute -> disconnect).
  auto expected = StageTask::State::kIdle;
  if (!task->state_.compare_exchange_strong(expected,
                                            StageTask::State::kQueued)) {
    expected = StageTask::State::kRunning;
    if (!task->state_.compare_exchange_strong(expected,
                                              StageTask::State::kQueued)) {
      return;  // already queued or done
    }
  }
  task->home_stage_ = this;
  {
    MutexLock lock(*run_mu_);
    PushLocked(task);
  }
  Wake();
}

void Stage::Wake() {
  if (runtime_->free_run_) {
    cv_.NotifyOne();
  } else {
    runtime_->cv_.NotifyAll();
  }
}

void Stage::Activate(StageTask* task) {
  auto expected = StageTask::State::kIdle;
  if (!task->state_.compare_exchange_strong(expected,
                                            StageTask::State::kQueued)) {
    if (expected != StageTask::State::kRunning) {
      return;  // queued or done: it will see the new state itself
    }
    // Still running: its worker may be about to park it. Retry under the
    // runtime mutex, which serializes with the park decision in FinishTask;
    // if the packet is still running there, leave a wake-pending marker the
    // parking worker consumes (it requeues instead of parking).
    MutexLock lock(*run_mu_);
    expected = StageTask::State::kIdle;
    if (!task->state_.compare_exchange_strong(expected,
                                              StageTask::State::kQueued)) {
      if (expected == StageTask::State::kRunning) {
        task->wake_pending_.store(true, std::memory_order_relaxed);
      }
      return;
    }
    PushLocked(task);
  } else {
    MutexLock lock(*run_mu_);
    PushLocked(task);
  }
  Wake();
}

void ServiceTask::Activate(Stage* stage) {
  {
    MutexLock lock(mu_);
    activated_ = true;
  }
  stage->Activate(this);
}

void ServiceTask::OnRetired() {
  MutexLock lock(mu_);
  retired_ = true;
  // Notify under the lock: the waiter cannot return, and free this packet,
  // before the unlock, which is the packet's last access.
  cv_.NotifyAll();
}

void ServiceTask::WaitRetired(Stage* stage) {
  MutexLock lock(mu_);
  while (activated_ && !retired_) {
    lock.Unlock();
    stage->Activate(this);
    lock.Lock();
    cv_.WaitFor(mu_, std::chrono::milliseconds(1));
  }
}

size_t Stage::queue_depth() const {
  MutexLock lock(*run_mu_);
  return queue_.size();
}

StageRuntime::StageRuntime(SchedulerPolicy policy)
    : StageRuntime(MakeSchedulerPolicy(policy)) {}

StageRuntime::StageRuntime(std::unique_ptr<SchedulingPolicy> policy)
    : policy_(std::move(policy)), free_run_(policy_->free_run()) {
  assert(policy_ != nullptr);
}

StageRuntime::~StageRuntime() { Shutdown(); }

Stage* StageRuntime::CreateStage(const std::string& name, int num_workers) {
  StagePoolSpec spec;
  spec.num_workers = num_workers;
  return CreateStage(name, spec);
}

Stage* StageRuntime::CreateStage(const std::string& name, StagePoolSpec spec) {
  spec.num_workers = std::max(1, spec.num_workers);
  std::unique_ptr<Stage> stage(
      new Stage(this, &mu_, name, static_cast<int>(stages_.size()), spec));
  Stage* ptr = stage.get();
  {
    MutexLock lock(mu_);
    stages_.push_back(std::move(stage));
  }
  for (int i = 0; i < spec.num_workers; ++i) {
    workers_.emplace_back([this, ptr] { WorkerLoop(ptr); });
    PinThread(&workers_.back(), spec.pinned_cpu);
  }
  return ptr;
}

void StageRuntime::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (const auto& stage : stages_) stage->cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void StageRuntime::MaybeRotateLocked() {
  if (free_run_ || stages_.empty()) return;
  if (visit_open_ && active_stage_ < stages_.size()) {
    Stage* active = stages_[active_stage_].get();
    // mu_ IS active->run_mu_; the analysis cannot equate the spellings.
    active->run_mu_->AssertHeld();
    const bool gate_open = gate_remaining_ == SchedulingPolicy::kUnbounded
                               ? !active->queue_.empty()
                               : gate_remaining_ > 0;
    if (gate_open || active->inflight_ > 0) return;  // visit continues
    // Gate exhausted and the stage is idle: the policy may re-gate over the
    // packets that arrived during the visit (T-gated), else the visit ends.
    // Non-positive admissions (other than kUnbounded) end the visit — an
    // open visit with an empty gate would stall the rotation forever.
    if (!active->queue_.empty()) {
      const int64_t admit = policy_->OnGateExhausted(active->queue_.size(),
                                                     visit_rounds_);
      if (admit == SchedulingPolicy::kUnbounded || admit > 0) {
        gate_remaining_ =
            admit == SchedulingPolicy::kUnbounded
                ? admit
                : std::min<int64_t>(admit, active->queue_.size());
        ++visit_rounds_;
        ++active->gate_rounds_;
        return;
      }
    }
    visit_open_ = false;
  }
  // Advance to the next stage with queued packets (round-robin; the current
  // stage is considered last) and open a fresh visit there. A stage whose
  // OnVisitStart admits nothing is skipped this scan (no empty-gated visit
  // is ever opened), so one refusing stage cannot wedge the others; the
  // scan re-runs on every enqueue/finish event.
  const size_t n = stages_.size();
  for (size_t k = 1; k <= n; ++k) {
    const size_t idx = (active_stage_ + k) % n;
    Stage* next = stages_[idx].get();
    next->run_mu_->AssertHeld();  // mu_ under the stage's spelling
    if (next->queue_.empty()) continue;
    const int64_t admit = policy_->OnVisitStart(next->queue_.size());
    if (admit != SchedulingPolicy::kUnbounded && admit <= 0) continue;
    if (idx != active_stage_) {
      active_stage_ = idx;
      stage_switches_.fetch_add(1, std::memory_order_relaxed);
    }
    gate_remaining_ = admit == SchedulingPolicy::kUnbounded
                          ? admit
                          : std::min<int64_t>(admit, next->queue_.size());
    visit_rounds_ = 1;
    visit_open_ = true;
    ++next->visits_;
    ++next->gate_rounds_;
    return;
  }
  // No queued work anywhere (or no stage admitted): stay idle until the
  // next Enqueue/Activate re-runs the scan.
}

StageTask* StageRuntime::WaitForTask(Stage* stage) {
  MutexLock lock(mu_);
  // mu_ IS stage->run_mu_; the analysis cannot equate the two spellings, so
  // restate the held lock under the stage's name for its guarded fields.
  stage->run_mu_->AssertHeld();
  bool woken = false;
  while (true) {
    if (shutdown_) return nullptr;
    bool allowed = free_run_;
    if (!allowed && visit_open_ && active_stage_ < stages_.size() &&
        stages_[active_stage_].get() == stage) {
      allowed = gate_remaining_ == SchedulingPolicy::kUnbounded ||
                gate_remaining_ > 0;
    }
    if (allowed && !stage->queue_.empty()) {
      StageTask* task = stage->queue_.front();
      stage->queue_.pop_front();
      if (gate_remaining_ > 0) --gate_remaining_;
      auto expected = StageTask::State::kQueued;
      const bool ok = task->state_.compare_exchange_strong(
          expected, StageTask::State::kRunning);
      assert(ok && "queued packet not in queued state");
      (void)ok;
      ++stage->inflight_;
      ++stage->pops_;
      const int64_t now = NowMicros();
      stage->wait_micros_.Record(
          static_cast<double>(now - task->enqueue_micros_));
      task->service_start_micros_ = now;
      return task;
    }
    if (woken) ++stage->spurious_wakeups_;
    (free_run_ ? stage->cv_ : cv_).Wait(mu_);
    woken = true;
    ++stage->wakeups_;
  }
}

void StageRuntime::FinishTask(Stage* stage, StageTask* task,
                              RunOutcome outcome) {
  {
    MutexLock lock(mu_);
    stage->run_mu_->AssertHeld();  // mu_ under the stage's spelling
    --stage->inflight_;
    stage->service_micros_.Record(
        static_cast<double>(NowMicros() - task->service_start_micros_));
  }
  switch (outcome) {
    case RunOutcome::kDone: {
      task->state_.store(StageTask::State::kDone);
      stage->processed_.fetch_add(1, std::memory_order_relaxed);
      // After OnRetired the packet may be freed by its owner; it must be the
      // last access in the runtime.
      task->OnRetired();
      task = nullptr;
      // Under a gated policy the inflight decrement above may have ended
      // the visit; the other outcomes rotate inside their (Push|Enqueue)
      // calls. Free-run has no rotation, and a retirement gives no other
      // worker anything new to run, so it wakes no one.
      if (!free_run_) {
        {
          MutexLock lock(mu_);
          MaybeRotateLocked();
        }
        cv_.NotifyAll();
      }
      break;
    }
    case RunOutcome::kYield:
      stage->yielded_.fetch_add(1, std::memory_order_relaxed);
      stage->Enqueue(task);  // transitions kRunning -> kQueued
      break;
    case RunOutcome::kMoved: {
      stage->processed_.fetch_add(1, std::memory_order_relaxed);
      Stage* next = task->next_stage_;
      task->next_stage_ = nullptr;
      assert(next != nullptr && "kMoved without a destination stage");
      next->Enqueue(task);  // transitions kRunning -> kQueued on `next`
      break;
    }
    case RunOutcome::kBlocked: {
      stage->blocked_.fetch_add(1, std::memory_order_relaxed);
      // Decide park-vs-requeue while this worker still owns the packet
      // (state kRunning): once kIdle is published, another thread may
      // activate, serve, and retire the packet, so it must never be touched
      // after that store. CanMakeProgress runs outside the runtime mutex
      // (it may take exchange-buffer locks); wake_pending_ — set by an
      // Activate that raced with Run() — is consumed under the mutex, which
      // serializes with Activate's locked retry. (A flag set during a Run
      // that ends in kYield/kMoved survives to the next park and causes at
      // most one spurious requeue — benign, the packet just re-blocks.)
      const bool can_progress = task->CanMakeProgress();
      bool requeued = false;
      {
        MutexLock lock(mu_);
        stage->run_mu_->AssertHeld();  // mu_ under the stage's spelling
        const bool woken =
            task->wake_pending_.exchange(false, std::memory_order_relaxed);
        requeued = can_progress || woken;
        if (requeued) {
          task->state_.store(StageTask::State::kQueued);
          stage->PushLocked(task);
        } else {
          task->state_.store(StageTask::State::kIdle);  // parked; hands off
          MaybeRotateLocked();
        }
      }
      // A park gives a free-run worker nothing to run; under a gated policy
      // it may have ended the visit, so the rotation's next stage must wake.
      if (requeued) {
        stage->Wake();
      } else if (!free_run_) {
        cv_.NotifyAll();
      }
      break;
    }
  }
}

void StageRuntime::WorkerLoop(Stage* stage) {
  while (true) {
    StageTask* task = WaitForTask(stage);
    if (task == nullptr) return;
    const RunOutcome outcome = task->Run();
    FinishTask(stage, task, outcome);
  }
}

StageRuntime::StatsSnapshot StageRuntime::Stats() const {
  MutexLock lock(mu_);
  StatsSnapshot snap;
  snap.policy = policy_->name();
  snap.stage_switches = stage_switches_.load(std::memory_order_relaxed);
  snap.stages.reserve(stages_.size());
  for (const auto& owned : stages_) {
    const Stage* stage = owned.get();
    stage->run_mu_->AssertHeld();  // mu_ under the stage's spelling
    StageStats s;
    s.name = stage->name_;
    s.num_workers = stage->spec_.num_workers;
    s.pinned_cpu = stage->spec_.pinned_cpu;
    s.queue_depth = stage->queue_.size();
    s.processed = stage->processed_.load(std::memory_order_relaxed);
    s.yielded = stage->yielded_.load(std::memory_order_relaxed);
    s.blocked = stage->blocked_.load(std::memory_order_relaxed);
    s.parallel_packets =
        stage->parallel_packets_.load(std::memory_order_relaxed);
    s.parallel_groups =
        stage->parallel_groups_.load(std::memory_order_relaxed);
    s.visits = stage->visits_;
    s.gate_rounds = stage->gate_rounds_;
    s.pops = stage->pops_;
    s.wakeups = stage->wakeups_;
    s.spurious_wakeups = stage->spurious_wakeups_;
    s.wait_micros = stage->wait_micros_;
    s.service_micros = stage->service_micros_;
    snap.stages.push_back(std::move(s));
  }
  return snap;
}

std::string StageRuntime::StatsSnapshot::ToString() const {
  std::string out =
      StrFormat("policy=%s stage_switches=%lld\n", policy.c_str(),
                static_cast<long long>(stage_switches));
  for (const StageStats& s : stages) {
    out += StrFormat(
        "  %-12s workers=%d%s depth=%zu pops=%lld visits=%lld "
        "pkts/visit=%.1f wakeups=%lld spurious=%lld wait_p50=%.0fus "
        "wait_p95=%.0fus svc_p50=%.0fus\n",
        s.name.c_str(), s.num_workers,
        s.pinned_cpu >= 0 ? StrFormat("@cpu%d", s.pinned_cpu).c_str() : "",
        s.queue_depth, static_cast<long long>(s.pops),
        static_cast<long long>(s.visits), s.PacketsPerVisit(),
        static_cast<long long>(s.wakeups),
        static_cast<long long>(s.spurious_wakeups),
        s.wait_micros.Percentile(50), s.wait_micros.Percentile(95),
        s.service_micros.Percentile(50));
    if (s.parallel_packets > 0) {
      out += StrFormat("  %-12s parallel_packets=%lld groups=%lld\n",
                       s.name.c_str(),
                       static_cast<long long>(s.parallel_packets),
                       static_cast<long long>(s.parallel_groups));
    }
  }
  if (group_commit.enabled) {
    const double per_commit =
        group_commit.commits == 0
            ? 0.0
            : static_cast<double>(group_commit.batches) / group_commit.commits;
    out += StrFormat(
        "  group_commit commits=%lld batches=%lld syncs=%lld "
        "fsyncs/commit=%.3f batch_p50=%.0f flush_p50=%.0fus flush_p95=%.0fus\n",
        static_cast<long long>(group_commit.commits),
        static_cast<long long>(group_commit.batches),
        static_cast<long long>(group_commit.syncs), per_commit,
        group_commit.batch_size.Percentile(50),
        group_commit.flush_micros.Percentile(50),
        group_commit.flush_micros.Percentile(95));
  }
  if (plan_cache.hits + plan_cache.misses + plan_cache.invalidations > 0) {
    out += StrFormat(
        "  plan_cache   hits=%llu misses=%llu invalidations=%llu "
        "evictions=%llu entries=%llu\n",
        static_cast<unsigned long long>(plan_cache.hits),
        static_cast<unsigned long long>(plan_cache.misses),
        static_cast<unsigned long long>(plan_cache.invalidations),
        static_cast<unsigned long long>(plan_cache.evictions),
        static_cast<unsigned long long>(plan_cache.entries));
  }
  return out;
}

}  // namespace stagedb::engine
