// The staged TCP front-end: a listener whose event loop IS a stage pool.
//
// The paper's thesis (§2, Figure 3) is that a DBMS decomposes into
// self-contained stages with explicit queues. PR 8 extends that decomposition
// past the SQL pipeline into the network layer: accepting, reading, and
// writing sockets are stages of their own StageRuntime, and a connection is a
// packet — a little state machine that parks (kBlocked) while its socket is
// quiet and is Activate()d by the poller when epoll reports readiness.
//
//   poll (1)    — owns the epoll fd; a single long-lived task that waits for
//                 events and wakes the accept/read/write packets they map to.
//   accept (1)  — drains accept4() on listener readiness, creating a
//                 Connection (one ReadTask + one WriteTask) per socket and
//                 registering it with epoll.
//   read (N)    — drains the socket into a FrameReader, decodes frames, and
//                 hands requests to admission control.
//   write (N)   — flushes the connection's OutputBuffer, arming EPOLLOUT on
//                 short writes.
//   dispatch(1) — runs deferred submissions into the SQL pipeline so engine
//                 completion callbacks never re-enter the engine.
//
// Parsed requests feed the existing staged pipeline (StagedServer ->
// Database::SubmitPlanned), so one process runs network and SQL stages side
// by side, each independently sized and monitored — §5.2's per-stage
// visibility extended to the wire.
//
// Admission control is explicit and per-stage: a global in-flight query
// budget, a per-connection in-flight cap, and a small per-connection pending
// queue drained round-robin across connections (fair dequeue). Past those
// bounds the server sheds with an ERROR frame instead of queueing without
// bound.
#ifndef STAGEDB_NET_NET_SERVER_H_
#define STAGEDB_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "engine/runtime.h"
#include "net/wire.h"
#include "server/server.h"

namespace stagedb::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port (reported by NetServer::port()).
  int port = 0;
  /// Workers for each of the read and write stages.
  int io_workers = 1;
  int accept_backlog = 128;
  /// Connections above this are accepted, told ERROR, and closed.
  size_t max_connections = 1024;
  /// Global budget of queries inside the SQL pipeline at once.
  size_t max_inflight_queries = 64;
  /// Per-connection budget of in-flight queries (pipelining depth).
  size_t max_inflight_per_conn = 8;
  /// Per-connection pending queue drained fairly (round-robin across
  /// connections) when budget frees up; past this the query is shed with
  /// ERROR. 0 = shed immediately once in-flight caps are hit.
  size_t pending_per_conn = 16;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Output buffered beyond this closes the connection — the slow-loris
  /// guard for clients that send queries but never read results.
  size_t max_output_buffer_bytes = 4u << 20;
  /// Connections idle (no bytes in either direction) longer than this are
  /// closed; 0 disables. The slow-loris guard for half-open trickle readers.
  /// A connection with a request outstanding (queued, executing, or awaiting
  /// in-order delivery) is never idle, however long the query runs.
  int64_t idle_timeout_ms = 0;
};

class Connection;
struct PendingWork;

/// TCP listener + connection stages in front of a Database. Thread-safe.
class NetServer {
 public:
  struct Stats {
    int64_t accepted = 0;
    int64_t active = 0;
    int64_t shed_connections = 0;  ///< over max_connections
    int64_t closed_overflow = 0;   ///< output buffer over the cap
    int64_t closed_idle = 0;       ///< idle timeout
    int64_t protocol_errors = 0;
    int64_t queries = 0;   ///< QUERY + EXECUTE frames admitted or queued
    int64_t prepares = 0;  ///< PREPARE frames
    int64_t ok_responses = 0;
    int64_t error_responses = 0;   ///< ERROR frames sent (incl. sheds)
    int64_t shed_queries = 0;      ///< rejected by admission control
    int64_t oversized_results = 0;  ///< results over the frame limit -> ERROR
    int64_t late_results_dropped = 0;  ///< completed after client vanished
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
  };

  /// Binds, listens, and starts the stage pools. `db` must outlive the
  /// server.
  static StatusOr<std::unique_ptr<NetServer>> Start(server::Database* db,
                                                    NetServerOptions options);
  ~NetServer();

  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Bounded graceful drain, the SIGTERM path: stop accepting, shed pending
  /// queries, give the SQL pipeline `drain_deadline_ms` to finish in-flight
  /// work (then reject what is still queued), flush what responses it can,
  /// and close every socket. Idempotent.
  void Stop(int64_t drain_deadline_ms = 2000);

  Stats GetStats() const;
  /// Network stages + SQL pipeline stages, §5.2 style.
  std::string StatsReport() const;

 private:
  friend class Connection;
  friend class PollTask;
  friend class AcceptTask;
  friend class ReadTask;
  friend class WriteTask;
  friend class DispatchTask;

  NetServer(server::Database* db, NetServerOptions options);
  Status Init();

  // -- packet activation (guarded: no-ops once the task has retired) --
  void ActivateAccept();
  void ActivateDispatch();
  void ActivateRead(Connection* conn);
  void ActivateWrite(Connection* conn);
  void ArmEpollOut(Connection* conn, bool want);

  // -- connection lifecycle (see net_server.cc for the close protocol) --
  void HandleAccepted(int fd);
  std::shared_ptr<Connection> FindConn(uint64_t id);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void CloseAllConns();

  // -- frame routing & admission control --
  Status HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void OnRequest(const std::shared_ptr<Connection>& conn, PendingWork work);
  void OnQueryDone(const std::shared_ptr<Connection>& conn);
  /// Appends runnable work to `out` (run it after releasing adm_mu_).
  void DispatchPendingLocked(std::vector<std::function<void()>>* out)
      REQUIRES(adm_mu_);
  void Defer(std::function<void()> fn);
  std::function<void()> MakeDispatch(const std::shared_ptr<Connection>& conn,
                                     PendingWork work);
  void EngineDone();

  // -- response delivery --
  uint64_t NewSlot(const std::shared_ptr<Connection>& conn);
  void CompleteSlot(const std::shared_ptr<Connection>& conn, uint64_t slot_id,
                    std::string frame_bytes, bool is_error);
  void FinishQuery(const std::shared_ptr<Connection>& conn, uint64_t slot_id,
                   StatusOr<server::QueryResult> result);

  void TaskRetired();

  server::Database* const db_;
  const NetServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() kicks the poller out of epoll_wait
  int port_ = 0;

  /// The SQL lifecycle pipeline the wire feeds into.
  std::unique_ptr<server::StagedServer> pipeline_;

  /// Network stage pools (poll/accept/read/write/dispatch).
  engine::StageRuntime runtime_;
  engine::Stage* poll_stage_ = nullptr;
  engine::Stage* accept_stage_ = nullptr;
  engine::Stage* read_stage_ = nullptr;
  engine::Stage* write_stage_ = nullptr;
  engine::Stage* dispatch_stage_ = nullptr;

  std::atomic<bool> shutdown_{false};
  std::once_flag stop_once_;

  /// Long-lived tasks; pointers nulled on retire so Stop can't touch a
  /// freed task.
  Mutex tasks_mu_;
  CondVar tasks_cv_;
  engine::StageTask* poll_task_ GUARDED_BY(tasks_mu_) = nullptr;
  engine::StageTask* accept_task_ GUARDED_BY(tasks_mu_) = nullptr;
  engine::StageTask* dispatch_task_ GUARDED_BY(tasks_mu_) = nullptr;
  int live_tasks_ GUARDED_BY(tasks_mu_) = 0;

  mutable Mutex conns_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_
      GUARDED_BY(conns_mu_);
  // 0 = listener, 1 = wake eventfd
  uint64_t next_conn_id_ GUARDED_BY(conns_mu_) = 2;

  /// Admission state: counters plus the fair-dequeue rotation of connections
  /// with pending work.
  Mutex adm_mu_;
  CondVar adm_cv_;
  bool draining_ GUARDED_BY(adm_mu_) = false;
  size_t inflight_total_ GUARDED_BY(adm_mu_) = 0;
  /// Connections with queued pending work, drained round-robin.
  std::deque<std::shared_ptr<Connection>> fair_rr_ GUARDED_BY(adm_mu_);

  /// Deferred closures for the dispatch stage (engine callbacks push here).
  Mutex defer_mu_;
  std::deque<std::function<void()>> deferred_ GUARDED_BY(defer_mu_);

  /// Queries submitted straight to the engine (EXECUTE fast path); Stop
  /// waits for these so no completion callback outlives the server.
  Mutex engine_mu_;
  CondVar engine_cv_;
  size_t engine_inflight_ GUARDED_BY(engine_mu_) = 0;

  // Counters (Stats).
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> shed_connections_{0};
  std::atomic<int64_t> closed_overflow_{0};
  std::atomic<int64_t> closed_idle_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> prepares_{0};
  std::atomic<int64_t> ok_responses_{0};
  std::atomic<int64_t> error_responses_{0};
  std::atomic<int64_t> shed_queries_{0};
  std::atomic<int64_t> oversized_results_{0};
  std::atomic<int64_t> late_results_dropped_{0};
  std::atomic<int64_t> bytes_in_{0};
  std::atomic<int64_t> bytes_out_{0};
};

}  // namespace stagedb::net

#endif  // STAGEDB_NET_NET_SERVER_H_
