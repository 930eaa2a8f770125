// The two server architectures the paper compares:
//
//   StagedServer   — Figure 3's design: new clients queue up at the connect
//                    stage, each query is encapsulated into a packet that
//                    travels connect -> parse -> optimize -> execute ->
//                    disconnect, every stage with its own queue and worker
//                    pool, with admission control (back-pressure) at connect.
//   ThreadedServer — the traditional work-centric model of §3.1: a pool of
//                    worker threads, each picking a client from the input
//                    queue and carrying its query through all phases.
//
// Both execute against the same Database instance and expose per-stage
// statistics (§5.2: monitoring at stage granularity).
#ifndef STAGEDB_SERVER_SERVER_H_
#define STAGEDB_SERVER_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/queue.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "server/database.h"

namespace stagedb::server {

/// One client request travelling through a server.
class Request {
 public:
  using DoneCallback = std::function<void(const StatusOr<QueryResult>&)>;

  explicit Request(std::string sql) : sql_(std::move(sql)) {}

  /// Blocks until the request completes and a NotifyOnDone callback
  /// registered before completion has returned.
  StatusOr<QueryResult> Await();

  /// Fires `callback` exactly once with the request's result when it
  /// completes (immediately, on the calling thread, if it already has). Used
  /// by the network front-end to deliver responses without blocking a stage
  /// worker in Await; the callback runs on whichever thread calls Complete,
  /// must not block, and must not call Await.
  void NotifyOnDone(DoneCallback callback);

  const std::string& sql() const { return sql_; }

  // -- internal --
  void Complete(StatusOr<QueryResult> result);

 private:
  std::string sql_;
  Mutex mu_;
  CondVar cv_;
  bool completed_ GUARDED_BY(mu_) = false;  // result_ is final
  bool done_ GUARDED_BY(mu_) = false;       // ...and the callback returned
  StatusOr<QueryResult> result_ GUARDED_BY(mu_){
      Status::Internal("request not completed")};
  DoneCallback callback_ GUARDED_BY(mu_);
};

struct ServerOptions {
  int threads_per_stage = 1;  // staged server
  int worker_threads = 8;     // threaded server
  /// Admission (connect) queue capacity; a full queue blocks Submit — the
  /// §5.2 overload back-pressure.
  size_t admission_capacity = 128;
  /// Per-stage pool overrides for the lifecycle stages ("connect", "parse",
  /// "optimize", "execute", "disconnect"); absent = threads_per_stage.
  std::map<std::string, engine::StagePoolSpec> stage_pools;
  /// Overrides the planner DOP (§4.3 intra-query parallelism) for statements
  /// this server plans on its optimize stage. 0 = inherit the database's
  /// DatabaseOptions::max_dop. Cached plan templates keep the database-wide
  /// DOP (they are shared across entry points), and the engine's own
  /// max_dop still caps whatever the plan asks for.
  int max_dop = 0;
};

/// Abstract server interface shared by both architectures.
class Server {
 public:
  virtual ~Server() = default;
  /// Enqueues a SQL request; blocks when admission control pushes back.
  virtual std::shared_ptr<Request> Submit(std::string sql) = 0;
  /// Bounded graceful drain: stop admitting (subsequent Submits complete
  /// immediately with kAborted), give in-flight requests `deadline_ms` to
  /// finish, then reject whatever is still queued with a shutdown error
  /// while letting requests that already reached execution complete.
  /// Returns the number of requests rejected. Idempotent; the destructor
  /// afterwards tears down without waiting. This is the SIGTERM path the
  /// network listener reuses.
  virtual size_t Shutdown(int64_t deadline_ms) = 0;
  /// Per-stage (or per-pool) utilization report.
  virtual std::string StatsReport() const = 0;
};

/// Figure 3's staged server over a Database.
class StagedServer : public Server {
 public:
  StagedServer(Database* db, ServerOptions options = {});
  ~StagedServer() override;

  std::shared_ptr<Request> Submit(std::string sql) override;
  /// Non-blocking Submit: returns nullptr when admission control is at
  /// capacity, so the caller can shed the request instead of parking a
  /// thread (the network front-end's reject-with-ERROR policy). A draining
  /// server returns a request already completed with kAborted — never
  /// nullptr — so callers can tell "shed now" from "shutting down".
  [[nodiscard]] std::shared_ptr<Request> TrySubmit(std::string sql);
  size_t Shutdown(int64_t deadline_ms) override;
  std::string StatsReport() const override;
  const engine::StageRuntime& runtime() const { return runtime_; }

 private:
  friend class LifecycleTask;
  Database* db_;
  ServerOptions options_;
  engine::StageRuntime runtime_;
  engine::Stage* connect_ = nullptr;
  engine::Stage* parse_ = nullptr;
  engine::Stage* optimize_ = nullptr;
  engine::Stage* execute_ = nullptr;
  engine::Stage* disconnect_ = nullptr;
  // Admission control: bounds the number of in-flight lifecycle packets.
  Mutex admission_mu_;
  CondVar admission_cv_;
  size_t inflight_ GUARDED_BY(admission_mu_) = 0;
  /// Set by Shutdown: no new packets are admitted.
  bool draining_ GUARDED_BY(admission_mu_) = false;
  /// Set when the drain deadline expires: LifecycleTask::Run completes any
  /// packet that has not reached execution with a shutdown error instead of
  /// doing its stage work, so the tail of the drain is bounded by queue
  /// length, not query cost.
  std::atomic<bool> shed_queued_{false};
  std::atomic<int64_t> rejected_on_drain_{0};
};

/// The traditional thread-pool server (§3.1 baseline).
class ThreadedServer : public Server {
 public:
  ThreadedServer(Database* db, ServerOptions options = {});
  ~ThreadedServer() override;

  /// One consistent snapshot of the server's request accounting, taken under
  /// a single lock: submitted >= started >= served always holds within one
  /// snapshot (a request is admitted, then picked up by a worker, then
  /// completed), and queued is derived from the same snapshot rather than
  /// read from the queue under a second lock.
  struct ThreadedStats {
    int64_t submitted = 0;  ///< admitted into the queue
    int64_t started = 0;    ///< dequeued by a worker
    int64_t served = 0;     ///< completed (result published)
    /// Admitted but rejected by the bounded shutdown drain (counted in
    /// submitted, never started).
    int64_t rejected = 0;
    int64_t queued() const { return submitted - started - rejected; }
    int64_t in_flight() const { return started - served; }
  };

  std::shared_ptr<Request> Submit(std::string sql) override;
  size_t Shutdown(int64_t deadline_ms) override;
  std::string StatsReport() const override;
  ThreadedStats Stats() const;

 private:
  void WorkerLoop();

  Database* db_;
  ServerOptions options_;
  BoundedQueue<std::shared_ptr<Request>> queue_;
  std::vector<std::thread> workers_;
  /// Guards the three ThreadedStats counters so Stats() returns a mutually
  /// consistent snapshot (the pre-fix code mixed an atomic counter with an
  /// unsynchronized queue-size read).
  mutable Mutex stats_mu_;
  ThreadedStats counts_ GUARDED_BY(stats_mu_);
  bool draining_ GUARDED_BY(stats_mu_) = false;
  /// Signalled on every completion so Shutdown can wait out the drain with a
  /// deadline instead of spinning.
  CondVar drain_cv_;
};

}  // namespace stagedb::server

#endif  // STAGEDB_SERVER_SERVER_H_
