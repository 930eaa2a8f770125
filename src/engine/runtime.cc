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

// Locking: each stage has one mutex, Stage::mu_, guarding its queue,
// counters and histograms. It is a leaf: the runtime runs no task, buffer or
// owner code (Run, CanMakeProgress, OnRetired) while it holds it, and takes
// no other lock under it. Callers may hold their own locks across
// Enqueue/Activate (a commit or vacuum owner holds its lock across
// ServiceTask::Activate); ExchangeBuffer::WakeAll activates outside the
// buffer lock. StageRuntime::stages_mu_ guards only the stage and worker
// lists and is never held while a stage lock is taken.

namespace {

int64_t NowMicros() { return RealClock::Instance()->NowMicros(); }

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

// The packet is already kQueued. The single place queue membership is
// granted, so no enqueue path can miss the wait-time stamp.
void Stage::PushLocked(StageTask* task) {
  task->enqueue_micros_ = NowMicros();
  queue_.push_back(task);
}

void Stage::Push(StageTask* task) {
  {
    MutexLock lock(mu_);
    PushLocked(task);
  }
  cv_.NotifyOne();
}

void Stage::Enqueue(StageTask* task) {
  auto expected = StageTask::State::kIdle;
  if (task->state_.compare_exchange_strong(expected,
                                           StageTask::State::kQueued)) {
    Push(task);
  }
}

void Stage::Activate(StageTask* task) {
  auto expected = StageTask::State::kIdle;
  if (!task->state_.compare_exchange_strong(expected,
                                            StageTask::State::kQueued)) {
    if (expected != StageTask::State::kRunning) {
      return;  // queued or done: it will see the new state itself
    }
    // Still running: its worker may be about to park it. Retry under this
    // stage's lock, under which FinishTask makes the park decision; if the
    // packet is still running there, leave a wake-pending marker the
    // parking worker consumes (it requeues instead of parking).
    MutexLock lock(mu_);
    expected = StageTask::State::kIdle;
    if (!task->state_.compare_exchange_strong(expected,
                                              StageTask::State::kQueued)) {
      if (expected == StageTask::State::kRunning) {
        task->wake_pending_.store(true, std::memory_order_relaxed);
      }
      return;
    }
  }
  assert(task->ran_on_ == nullptr || task->ran_on_ == this);
  Push(task);
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

int64_t Stage::packets_processed() const {
  MutexLock lock(mu_);
  return processed_;
}

int64_t Stage::packets_yielded() const {
  MutexLock lock(mu_);
  return yielded_;
}

int64_t Stage::packets_blocked() const {
  MutexLock lock(mu_);
  return blocked_;
}

size_t Stage::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void Stage::CountParallelPackets(int64_t count) {
  MutexLock lock(mu_);
  parallel_packets_ += count;
  ++parallel_groups_;
}

StageTask* Stage::WaitForTask() {
  MutexLock lock(mu_);
  bool woken = false;
  while (!stopping_) {
    if (!queue_.empty()) {
      StageTask* task = queue_.front();
      queue_.pop_front();
      auto expected = StageTask::State::kQueued;
      const bool ok = task->state_.compare_exchange_strong(
          expected, StageTask::State::kRunning);
      assert(ok && "queued packet not in queued state");
      (void)ok;
      ++pops_;
      const int64_t now = NowMicros();
      wait_micros_.Record(static_cast<double>(now - task->enqueue_micros_));
      task->service_start_micros_ = now;
      task->ran_on_ = this;
      return task;
    }
    if (woken) ++spurious_wakeups_;
    cv_.Wait(mu_);
    woken = true;
    ++wakeups_;
  }
  return nullptr;
}

void Stage::FinishTask(StageTask* task, RunOutcome outcome) {
  const int64_t end = NowMicros();
  // Decide park-vs-requeue while this worker still owns the packet (state
  // kRunning): once kIdle is published, another thread may activate, serve,
  // and retire the packet, so it must never be touched after that store.
  // CanMakeProgress may take exchange-buffer locks, so it runs before the
  // stage lock is taken.
  const bool can_progress =
      outcome == RunOutcome::kBlocked && task->CanMakeProgress();
  Stage* next = nullptr;
  bool requeue = false;
  {
    MutexLock lock(mu_);
    service_micros_.Record(
        static_cast<double>(end - task->service_start_micros_));
    switch (outcome) {
      case RunOutcome::kDone:
        ++processed_;
        task->state_.store(StageTask::State::kDone);
        break;
      case RunOutcome::kMoved:
        ++processed_;
        next = task->next_stage_;
        task->next_stage_ = nullptr;
        assert(next != nullptr && "kMoved without a destination stage");
        task->state_.store(StageTask::State::kQueued);
        break;
      case RunOutcome::kYield:
        ++yielded_;
        requeue = true;
        break;
      case RunOutcome::kBlocked: {
        ++blocked_;
        // wake_pending_ (set by an Activate that raced with Run()) is
        // consumed under the lock Activate's retry takes. A flag set during
        // a Run that ends in kYield/kMoved survives to the next park and
        // causes at most one spurious requeue: the packet just re-blocks.
        const bool woken =
            task->wake_pending_.exchange(false, std::memory_order_relaxed);
        requeue = can_progress || woken;
        if (!requeue) {
          task->state_.store(StageTask::State::kIdle);  // parked; hands off
        }
        break;
      }
    }
    if (requeue) {
      task->state_.store(StageTask::State::kQueued);
      PushLocked(task);
    }
  }
  if (outcome == RunOutcome::kDone) {
    // After OnRetired the packet may be freed by its owner; it must be the
    // last access in the runtime. A retirement gives no worker anything new
    // to run, so it wakes no one; neither does a park.
    task->OnRetired();
  } else if (next != nullptr) {
    next->Push(task);
  } else if (requeue) {
    cv_.NotifyOne();
  }
}

void Stage::WorkerLoop() {
  while (StageTask* task = WaitForTask()) {
    FinishTask(task, task->Run());
  }
}

void Stage::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
}

StageRuntime::~StageRuntime() { Shutdown(); }

Stage* StageRuntime::CreateStage(const std::string& name, int num_workers) {
  StagePoolSpec spec;
  spec.num_workers = num_workers;
  return CreateStage(name, spec);
}

Stage* StageRuntime::CreateStage(const std::string& name, StagePoolSpec spec) {
  spec.num_workers = std::max(1, spec.num_workers);
  MutexLock lock(stages_mu_);
  stages_.push_back(std::unique_ptr<Stage>(
      new Stage(name, static_cast<int>(stages_.size()), spec)));
  Stage* stage = stages_.back().get();
  for (int i = 0; i < spec.num_workers; ++i) {
    workers_.emplace_back([stage] { stage->WorkerLoop(); });
    PinThread(&workers_.back(), spec.pinned_cpu);
  }
  return stage;
}

std::vector<Stage*> StageRuntime::stages() const {
  MutexLock lock(stages_mu_);
  std::vector<Stage*> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) out.push_back(stage.get());
  return out;
}

void StageRuntime::Shutdown() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(stages_mu_);
    workers.swap(workers_);
  }
  for (Stage* stage : stages()) stage->Stop();
  for (std::thread& t : workers) t.join();
}

StageRuntime::StatsSnapshot StageRuntime::Stats() const {
  StatsSnapshot snap;
  for (const Stage* stage : stages()) {
    StageStats s;
    s.name = stage->name_;
    s.num_workers = stage->spec_.num_workers;
    s.pinned_cpu = stage->spec_.pinned_cpu;
    MutexLock lock(stage->mu_);
    s.queue_depth = stage->queue_.size();
    s.processed = stage->processed_;
    s.yielded = stage->yielded_;
    s.blocked = stage->blocked_;
    s.parallel_packets = stage->parallel_packets_;
    s.parallel_groups = stage->parallel_groups_;
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
  std::string out;
  for (const StageStats& s : stages) {
    out += StrFormat(
        "  %-12s workers=%d%s depth=%zu pops=%lld wakeups=%lld "
        "spurious=%lld wait_p50=%.0fus wait_p95=%.0fus svc_p50=%.0fus\n",
        s.name.c_str(), s.num_workers,
        s.pinned_cpu >= 0 ? StrFormat("@cpu%d", s.pinned_cpu).c_str() : "",
        s.queue_depth, static_cast<long long>(s.pops),
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
