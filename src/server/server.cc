#include "server/server.h"

#include <atomic>
#include <chrono>

#include "common/string_util.h"
#include "frontend/normalizer.h"
#include "frontend/plan_cache.h"
#include "optimizer/planner.h"
#include "parser/parser.h"

namespace stagedb::server {

using engine::RunOutcome;
using engine::Stage;
using engine::StageTask;

// ---------------------------------------------------------------- Request ---

StatusOr<QueryResult> Request::Await() {
  MutexLock lock(mu_);
  cv_.Wait(mu_, [&]() REQUIRES(mu_) { return done_; });
  return result_;
}

// result_ is never written after completed_ is set, so the callback reads it
// through a pointer taken under the lock.

void Request::Complete(StatusOr<QueryResult> result) {
  DoneCallback callback;
  const StatusOr<QueryResult>* final_result;
  {
    MutexLock lock(mu_);
    result_ = std::move(result);
    completed_ = true;
    final_result = &result_;
    callback = std::move(callback_);
    callback_ = nullptr;
  }
  // Await waits for the callback: a caller that registered one and then
  // awaits sees its effects.
  if (callback) callback(*final_result);
  {
    MutexLock lock(mu_);
    done_ = true;
  }
  cv_.NotifyAll();
}

void Request::NotifyOnDone(DoneCallback callback) {
  const StatusOr<QueryResult>* final_result;
  {
    MutexLock lock(mu_);
    if (!completed_) {
      callback_ = std::move(callback);
      return;
    }
    final_result = &result_;
  }
  callback(*final_result);
}

// ---------------------------------------------------------- LifecycleTask ---

namespace {
enum class Phase { kConnect, kParse, kOptimize, kExecute, kDisconnect };
}  // namespace

/// The packet of Figure 3: carries the query's backpack (SQL text, parsed
/// statement, plan, result) through the five top-level stages.
class LifecycleTask : public StageTask {
 public:
  LifecycleTask(StagedServer* server, std::shared_ptr<Request> request)
      : server_(server), request_(std::move(request)) {}

  RunOutcome Run() override;
  /// Re-checked before parking after kBlocked: the only blocking point is
  /// the execute phase waiting on an in-flight staged query.
  bool CanMakeProgress() override {
    return pending_ != nullptr && pending_->done();
  }
  void OnRetired() override;

 private:
  StagedServer* server_;
  std::shared_ptr<Request> request_;
  Phase phase_ = Phase::kConnect;
  // The backpack.
  std::unique_ptr<parser::Statement> stmt_;
  /// Set at the parse phase for cacheable statements: the normalized form
  /// whose key/params drive the plan-cache lookup (hit) or population (miss
  /// at the optimize phase).
  std::unique_ptr<frontend::NormalizedStatement> norm_;
  std::unique_ptr<optimizer::PhysicalPlan> plan_;
  std::shared_ptr<PendingQuery> pending_;  // in-flight staged execution
  StatusOr<QueryResult> result_{Status::Internal("not executed")};
  bool failed_ = false;
  /// False while a NotifyOnDone callback targeting this packet may still be
  /// running on an engine worker thread. OnRetired waits for it before the
  /// packet frees itself (which also gates server teardown via inflight_).
  std::atomic<bool> callback_done_{true};
};

RunOutcome LifecycleTask::Run() {
  Database* db = server_->db_;
  // Bounded-drain tail: once the shutdown deadline has expired, packets that
  // have not reached execution complete with a shutdown error in one visit
  // instead of doing their stage work; a packet whose query is already
  // in-flight in the engine (pending_ set) is allowed to collect its result.
  if (server_->shed_queued_.load(std::memory_order_acquire) &&
      pending_ == nullptr && phase_ != Phase::kDisconnect) {
    result_ = Status::Aborted("server shutting down");
    failed_ = true;
    server_->rejected_on_drain_.fetch_add(1, std::memory_order_relaxed);
    phase_ = Phase::kDisconnect;
    set_next_stage(server_->disconnect_);
    return RunOutcome::kMoved;
  }
  switch (phase_) {
    case Phase::kConnect: {
      // Client/session bookkeeping; precompiled queries could route straight
      // to execute here (Figure 3's bypass edge).
      db->stats()->GetCounter("stage.connect.packets")->Add(1);
      phase_ = Phase::kParse;
      set_next_stage(server_->parse_);
      return RunOutcome::kMoved;
    }
    case Phase::kParse: {
      db->stats()->GetCounter("stage.parse.packets")->Add(1);
      // Front-end work reuse (§2/§5): consult the shared plan cache for a
      // repeated/parameterized statement before doing any parse work. A hit
      // routes the packet straight to the execute stage — Figure 3's
      // precompiled-query bypass — visible as reduced optimize-stage visits
      // in StageRuntime::Stats().
      frontend::PlanCache* cache = db->plan_cache();
      if (cache != nullptr) {
        auto norm = frontend::Normalize(request_->sql());
        if (norm.ok() && norm->cacheable && norm->auto_params) {
          norm_ = std::make_unique<frontend::NormalizedStatement>(
              std::move(*norm));
          if (auto hit =
                  cache->Lookup(norm_->key, db->catalog()->version())) {
            auto plan = frontend::InstantiatePlan(*hit->plan, norm_->params);
            if (!plan.ok()) {
              result_ = plan.status();
              failed_ = true;
              phase_ = Phase::kDisconnect;
              set_next_stage(server_->disconnect_);
              return RunOutcome::kMoved;
            }
            plan_ = std::move(*plan);
            phase_ = Phase::kExecute;
            set_next_stage(server_->execute_);
            return RunOutcome::kMoved;
          }
          // Miss: parse the normalized token stream so the optimize phase
          // can plan (and cache) the parameterized template.
          parser::internal::Parser parser(norm_->tokens,
                                          db->catalog()->symbols());
          auto stmt = parser.ParseSingle();
          if (!stmt.ok()) {
            result_ = stmt.status();
            failed_ = true;
            phase_ = Phase::kDisconnect;
            set_next_stage(server_->disconnect_);
            return RunOutcome::kMoved;
          }
          stmt_ = std::move(*stmt);
          phase_ = Phase::kOptimize;
          set_next_stage(server_->optimize_);
          return RunOutcome::kMoved;
        }
      }
      auto stmt = parser::ParseStatement(request_->sql(),
                                         db->catalog()->symbols());
      if (!stmt.ok()) {
        result_ = stmt.status();
        failed_ = true;
        phase_ = Phase::kDisconnect;
        set_next_stage(server_->disconnect_);
        return RunOutcome::kMoved;
      }
      stmt_ = std::move(*stmt);
      phase_ = Phase::kOptimize;
      set_next_stage(server_->optimize_);
      return RunOutcome::kMoved;
    }
    case Phase::kOptimize: {
      db->stats()->GetCounter("stage.optimize.packets")->Add(1);
      // DDL / txn-control statements bypass the planner (the "additional
      // routing information" of §4.3): execute them directly here.
      using Kind = parser::Statement::Kind;
      const Kind kind = stmt_->kind;
      if (kind != Kind::kSelect && kind != Kind::kInsert &&
          kind != Kind::kDelete && kind != Kind::kUpdate) {
        result_ = db->Execute(request_->sql());
        failed_ = !result_.ok();
        phase_ = Phase::kDisconnect;
        set_next_stage(server_->disconnect_);
        return RunOutcome::kMoved;
      }
      if (norm_ != nullptr) {
        // Cache-miss path: plan the parameterized template, publish it for
        // the queries queued behind this one (the epoch tagging and insert
        // protocol is shared with the facade), then bind this query's
        // values.
        auto entry = db->PlanAndCacheTemplate(*stmt_, *norm_);
        if (!entry.ok()) {
          result_ = entry.status();
          failed_ = true;
          phase_ = Phase::kDisconnect;
          set_next_stage(server_->disconnect_);
          return RunOutcome::kMoved;
        }
        auto plan = frontend::InstantiatePlan(*(*entry)->plan, norm_->params);
        if (!plan.ok()) {
          result_ = plan.status();
          failed_ = true;
          phase_ = Phase::kDisconnect;
          set_next_stage(server_->disconnect_);
          return RunOutcome::kMoved;
        }
        plan_ = std::move(*plan);
        phase_ = Phase::kExecute;
        set_next_stage(server_->execute_);
        return RunOutcome::kMoved;
      }
      optimizer::PlannerOptions popts = db->options().planner;
      // Staged mode only: the volcano engine runs a dop>1 planner's
      // partial/merge aggregate shapes serially, gaining nothing (the
      // facade clamps its own planner options the same way).
      if (server_->options_.max_dop > 0 &&
          db->options().mode == ExecutionMode::kStaged) {
        popts.max_dop = server_->options_.max_dop;
      }
      optimizer::Planner planner(db->catalog(), popts);
      auto plan = planner.Plan(*stmt_);
      if (!plan.ok()) {
        result_ = plan.status();
        failed_ = true;
        phase_ = Phase::kDisconnect;
        set_next_stage(server_->disconnect_);
        return RunOutcome::kMoved;
      }
      plan_ = std::move(*plan);
      phase_ = Phase::kExecute;
      set_next_stage(server_->execute_);
      return RunOutcome::kMoved;
    }
    case Phase::kExecute: {
      if (pending_ != nullptr) {
        // Resumed after the staged query completed: collect the result.
        result_ = pending_->Await();
        pending_.reset();
        phase_ = Phase::kDisconnect;
        set_next_stage(server_->disconnect_);
        return RunOutcome::kMoved;
      }
      db->stats()->GetCounter("stage.execute.packets")->Add(1);
      if (db->options().mode == ExecutionMode::kStaged) {
        // Submit asynchronously and park this packet: the execute-stage
        // worker is free to start the next query, so concurrent queries
        // genuinely overlap inside the engine (and cooperating fscan packets
        // can share one elevator scan, §5.4).
        auto pending = db->SubmitPlanned(plan_.get());
        if (pending.ok()) {
          pending_ = std::move(*pending);
          Stage* execute = server_->execute_;
          // The callback may fire on an engine worker thread and race with
          // this packet being re-woken through the CanMakeProgress fallback;
          // callback_done_ keeps the packet (and the server's stages) alive
          // until the callback has fully left Activate (see OnRetired).
          callback_done_.store(false, std::memory_order_relaxed);
          pending_->NotifyOnDone([this, execute] {
            execute->Activate(this);
            callback_done_.store(true, std::memory_order_release);
          });
          return RunOutcome::kBlocked;
        }
        // Fall through to the synchronous path on submission failure.
      }
      result_ = db->ExecutePlanned(plan_.get());
      phase_ = Phase::kDisconnect;
      set_next_stage(server_->disconnect_);
      return RunOutcome::kMoved;
    }
    case Phase::kDisconnect: {
      db->stats()->GetCounter("stage.disconnect.packets")->Add(1);
      return RunOutcome::kDone;
    }
  }
  return RunOutcome::kDone;
}

void LifecycleTask::OnRetired() {
  // If the engine's completion callback lost the wake-up race (this packet
  // was resumed through the CanMakeProgress fallback instead), it may still
  // be inside Activate on another thread. Retiring now would free this
  // packet — and unblock ~StagedServer into freeing the stages — under it,
  // so wait for the callback's final store. The wait is bounded by the few
  // instructions left in Activate.
  while (!callback_done_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  request_->Complete(std::move(result_));
  StagedServer* server = server_;
  {
    MutexLock lock(server->admission_mu_);
    --server->inflight_;
  }
  server->admission_cv_.NotifyOne();
  delete this;  // packet owns itself once submitted
}

// ------------------------------------------------------------ StagedServer --

StagedServer::StagedServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  auto pool = [this](const char* name) {
    return engine::PoolSpecFor(options_.stage_pools, name,
                               options_.threads_per_stage);
  };
  connect_ = runtime_.CreateStage("connect", pool("connect"));
  parse_ = runtime_.CreateStage("parse", pool("parse"));
  optimize_ = runtime_.CreateStage("optimize", pool("optimize"));
  execute_ = runtime_.CreateStage("execute", pool("execute"));
  disconnect_ = runtime_.CreateStage("disconnect", pool("disconnect"));
}

StagedServer::~StagedServer() {
  // Wait for in-flight packets, then stop the stages.
  {
    MutexLock lock(admission_mu_);
    admission_cv_.Wait(admission_mu_, [&]() REQUIRES(admission_mu_) {
      return inflight_ == 0;
    });
  }
  runtime_.Shutdown();
}

std::shared_ptr<Request> StagedServer::Submit(std::string sql) {
  auto request = std::make_shared<Request>(std::move(sql));
  {
    // Admission control: block while the server is at capacity ("new queries
    // queue up in the first stage").
    MutexLock lock(admission_mu_);
    admission_cv_.Wait(admission_mu_, [&]() REQUIRES(admission_mu_) {
      return draining_ || inflight_ < options_.admission_capacity;
    });
    if (draining_) {
      lock.Unlock();
      request->Complete(Status::Aborted("server shutting down"));
      return request;
    }
    ++inflight_;
  }
  auto* task = new LifecycleTask(this, request);
  connect_->Enqueue(task);
  return request;
}

std::shared_ptr<Request> StagedServer::TrySubmit(std::string sql) {
  auto request = std::make_shared<Request>(std::move(sql));
  {
    MutexLock lock(admission_mu_);
    if (draining_) {
      lock.Unlock();
      request->Complete(Status::Aborted("server shutting down"));
      return request;
    }
    if (inflight_ >= options_.admission_capacity) return nullptr;
    ++inflight_;
  }
  auto* task = new LifecycleTask(this, request);
  connect_->Enqueue(task);
  return request;
}

size_t StagedServer::Shutdown(int64_t deadline_ms) {
  MutexLock lock(admission_mu_);
  draining_ = true;
  // Wake Submit callers blocked on admission so they observe the drain.
  admission_cv_.NotifyAll();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  admission_cv_.WaitUntil(
      admission_mu_, deadline,
      [&]() REQUIRES(admission_mu_) { return inflight_ == 0; });
  if (inflight_ != 0) {
    // Deadline expired: reject everything that has not reached execution.
    // Every remaining packet now completes in one cheap stage visit (or
    // finishes an already-running query), so this wait is bounded by queue
    // length, not per-query cost.
    shed_queued_.store(true, std::memory_order_release);
    admission_cv_.Wait(admission_mu_, [&]() REQUIRES(admission_mu_) {
      return inflight_ == 0;
    });
  }
  return static_cast<size_t>(
      rejected_on_drain_.load(std::memory_order_relaxed));
}

std::string StagedServer::StatsReport() const {
  std::string out = "StagedServer stages:\n";
  for (const auto& stage : runtime_.stages()) {
    out += StrFormat("  %-12s processed=%-8lld queue=%zu\n",
                     stage->name().c_str(),
                     static_cast<long long>(stage->packets_processed()),
                     stage->queue_depth());
  }
  return out;
}

// ---------------------------------------------------------- ThreadedServer --

ThreadedServer::ThreadedServer(Database* db, ServerOptions options)
    : db_(db), options_(options), queue_(options.admission_capacity) {
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadedServer::~ThreadedServer() {
  queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

std::shared_ptr<Request> ThreadedServer::Submit(std::string sql) {
  auto request = std::make_shared<Request>(std::move(sql));
  // Count the admission before the enqueue so no snapshot can observe a
  // request as started before it was submitted; roll back on a closed queue.
  {
    MutexLock lock(stats_mu_);
    if (draining_) {
      lock.Unlock();  // Complete may run a NotifyOnDone callback
      request->Complete(Status::Aborted("server shutting down"));
      return request;
    }
    ++counts_.submitted;
  }
  if (!queue_.Enqueue(request)) {
    {
      MutexLock lock(stats_mu_);
      --counts_.submitted;
    }
    request->Complete(Status::Aborted("server shut down"));
  }
  return request;
}

void ThreadedServer::WorkerLoop() {
  while (auto request = queue_.Dequeue()) {
    {
      MutexLock lock(stats_mu_);
      ++counts_.started;
    }
    auto result = db_->Execute((*request)->sql());
    {
      // Count before Complete: a client returning from Await must already
      // see itself reflected in Stats()/StatsReport.
      MutexLock lock(stats_mu_);
      ++counts_.served;
    }
    drain_cv_.NotifyAll();
    (*request)->Complete(std::move(result));
  }
}

size_t ThreadedServer::Shutdown(int64_t deadline_ms) {
  {
    MutexLock lock(stats_mu_);
    draining_ = true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    drain_cv_.WaitUntil(stats_mu_, deadline, [&]() REQUIRES(stats_mu_) {
      return counts_.queued() == 0 && counts_.in_flight() == 0;
    });
  }
  // Deadline expired (or drain finished): reject whatever is still queued
  // with a shutdown error. Workers race this drain loop on the same queue,
  // which is fine — each request is either served or rejected, exactly once.
  size_t rejected = 0;
  while (auto request = queue_.TryDequeue()) {
    {
      MutexLock lock(stats_mu_);
      ++counts_.rejected;
    }
    ++rejected;
    (*request)->Complete(Status::Aborted("server shutting down"));
  }
  {
    // In-flight requests complete normally ("complete in-flight, reject
    // queued"); with the queue empty this wait is bounded by the running
    // statements, not the backlog.
    MutexLock lock(stats_mu_);
    drain_cv_.Wait(stats_mu_, [&]() REQUIRES(stats_mu_) {
      return counts_.queued() == 0 && counts_.in_flight() == 0;
    });
  }
  queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  return rejected;
}

ThreadedServer::ThreadedStats ThreadedServer::Stats() const {
  MutexLock lock(stats_mu_);
  return counts_;
}

std::string ThreadedServer::StatsReport() const {
  const ThreadedStats stats = Stats();
  return StrFormat(
      "ThreadedServer: workers=%d served=%lld queue=%lld in_flight=%lld\n",
      options_.worker_threads, static_cast<long long>(stats.served),
      static_cast<long long>(stats.queued()),
      static_cast<long long>(stats.in_flight()));
}

}  // namespace stagedb::server
