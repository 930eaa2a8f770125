#include "net/net_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "common/string_util.h"

namespace stagedb::net {
namespace {

// epoll user-data tags below the connection-id space.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

constexpr int kEpollWaitMs = 50;
constexpr int64_t kIdleScanPeriodMicros = 1000 * 1000;

int64_t NowMicros() { return RealClock::Instance()->NowMicros(); }

std::string ErrorFrame(const Status& status) {
  return EncodeFrame(FrameType::kError, EncodeErrorPayload(status));
}

}  // namespace

/// One response slot: responses are produced out of order (queries overtake
/// each other in the pipeline) but must leave the socket in request order, so
/// the read stage allocates a slot per request and the write side only ships
/// the longest ready prefix.
struct ResponseSlot {
  uint64_t id = 0;
  bool ready = false;
  std::string bytes;
};

/// A request parked by admission control until budget frees up.
struct PendingWork {
  uint64_t slot_id = 0;
  bool is_execute = false;
  std::string sql;  // QUERY
  std::shared_ptr<server::PreparedStatement> stmt;  // EXECUTE
  std::vector<catalog::Value> params;               // EXECUTE
};

/// Per-socket state — the "backpack" its read/write packets carry. Field
/// groups have distinct owners: the frame decoder and prepared-statement
/// table belong to the read stage alone (one ReadTask, never concurrent with
/// itself); output state is under out_mu; admission state is under the
/// server's adm_mu_.
class Connection {
 public:
  Connection(NetServer* server, int fd, uint64_t id)
      : server(server),
        fd(fd),
        id(id),
        reader(server->options_.max_frame_bytes),
        last_activity_micros(NowMicros()) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  NetServer* const server;
  const int fd;
  const uint64_t id;

  std::atomic<bool> closed{false};
  /// Soft close: an ERROR has been appended for a protocol violation; the
  /// write task closes the socket once the buffer drains.
  std::atomic<bool> closing{false};

  // Read-stage-only state.
  FrameReader reader;
  uint64_t next_stmt_id = 1;
  std::map<uint64_t, std::shared_ptr<server::PreparedStatement>> prepared;

  std::atomic<int64_t> last_activity_micros;

  Mutex out_mu;
  uint64_t next_slot_id GUARDED_BY(out_mu) = 1;
  std::deque<ResponseSlot> slots GUARDED_BY(out_mu);  // ids ascending
  OutputBuffer out GUARDED_BY(out_mu);
  bool want_write GUARDED_BY(out_mu) = false;  // EPOLLOUT armed

  /// Guards the task pointers so activation never races task retirement
  /// (OnRetired nulls the pointer under this lock before freeing the task).
  Mutex task_mu;
  engine::StageTask* read_task GUARDED_BY(task_mu) = nullptr;
  engine::StageTask* write_task GUARDED_BY(task_mu) = nullptr;

  // Admission state, guarded by NetServer::adm_mu_. The analysis cannot name
  // another object's member as a capability from here, so these stay
  // comment-guarded; every access site already holds adm_mu_.
  size_t adm_inflight = 0;
  std::deque<PendingWork> adm_pending;
  bool adm_in_rr = false;
};

namespace {

void TouchActivity(Connection* conn) {
  conn->last_activity_micros.store(NowMicros(), std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Stage tasks
// ---------------------------------------------------------------------------

/// Owns epoll_wait. Runs forever (kYield) on its single-worker stage, mapping
/// readiness events to packet activations; retires when the server stops.
class PollTask : public engine::StageTask {
 public:
  explicit PollTask(NetServer* server) : server_(server) {}

  engine::RunOutcome Run() override {
    if (server_->shutdown_.load(std::memory_order_acquire))
      return engine::RunOutcome::kDone;
    struct epoll_event events[64];
    int n = ::epoll_wait(server_->epoll_fd_, events, 64, kEpollWaitMs);
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kListenerTag) {
        server_->ActivateAccept();
      } else if (tag == kWakeTag) {
        uint64_t buf;
        while (::read(server_->wake_fd_, &buf, sizeof(buf)) > 0) {
        }
      } else {
        std::shared_ptr<Connection> conn = server_->FindConn(tag);
        if (conn == nullptr || conn->closed.load(std::memory_order_acquire))
          continue;
        if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP))
          server_->ActivateRead(conn.get());
        if (ev & EPOLLOUT) server_->ActivateWrite(conn.get());
      }
    }
    MaybeScanIdle();
    return engine::RunOutcome::kYield;
  }

  void OnRetired() override {
    {
      MutexLock lock(server_->tasks_mu_);
      server_->poll_task_ = nullptr;
    }
    server_->TaskRetired();
    delete this;
  }

 private:
  void MaybeScanIdle() {
    if (server_->options_.idle_timeout_ms <= 0) return;
    int64_t now = NowMicros();
    if (now - last_scan_micros_ < kIdleScanPeriodMicros) return;
    last_scan_micros_ = now;
    int64_t limit = server_->options_.idle_timeout_ms * 1000;
    std::vector<std::shared_ptr<Connection>> idle;
    {
      MutexLock lock(server_->conns_mu_);
      for (const auto& [id, conn] : server_->conns_) {
        if (now - conn->last_activity_micros.load(std::memory_order_relaxed) >
            limit)
          idle.push_back(conn);
      }
    }
    for (const auto& conn : idle) {
      // A quiet socket is not an idle connection while a request is still
      // outstanding (admission-queued, executing, or holding the in-order
      // slot FIFO): the client is legitimately waiting on us, not the other
      // way round. Slots drain to the output buffer on completion, so an
      // empty FIFO means nothing is owed to this client.
      {
        MutexLock lock(conn->out_mu);
        if (!conn->slots.empty()) continue;
      }
      server_->closed_idle_.fetch_add(1, std::memory_order_relaxed);
      server_->CloseConn(conn);
    }
  }

  NetServer* const server_;
  int64_t last_scan_micros_ = 0;
};

/// Drains accept4() whenever the poller reports listener readiness; parks
/// in between.
class AcceptTask : public engine::StageTask {
 public:
  explicit AcceptTask(NetServer* server) : server_(server) {}

  engine::RunOutcome Run() override {
    while (true) {
      if (server_->shutdown_.load(std::memory_order_acquire))
        return engine::RunOutcome::kDone;
      int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN, or a transient error (EMFILE, ECONNABORTED): park; the
        // level-triggered poller re-activates while the backlog is non-empty.
        return engine::RunOutcome::kBlocked;
      }
      server_->HandleAccepted(fd);
    }
  }

  void OnRetired() override {
    {
      MutexLock lock(server_->tasks_mu_);
      server_->accept_task_ = nullptr;
    }
    server_->TaskRetired();
    delete this;
  }

 private:
  NetServer* const server_;
};

/// Reads the socket into the frame decoder and routes complete frames;
/// parks on EAGAIN until the poller sees EPOLLIN.
class ReadTask : public engine::StageTask {
 public:
  ReadTask(NetServer* server, std::shared_ptr<Connection> conn)
      : server_(server), conn_(std::move(conn)) {}

  engine::RunOutcome Run() override {
    if (conn_->closed.load(std::memory_order_acquire) ||
        conn_->closing.load(std::memory_order_acquire))
      return engine::RunOutcome::kDone;
    // Bounded work per Run (the StageTask contract): a client blasting
    // pipelined frames keeps its socket readable indefinitely, and an
    // unbounded drain would pin this stage worker while every other
    // connection starves. Past the budget, yield to the back of the queue.
    constexpr size_t kReadBudgetBytes = 256 * 1024;
    size_t consumed = 0;
    char buf[16384];
    while (true) {
      ssize_t n = ::read(conn_->fd, buf, sizeof(buf));
      if (n > 0) {
        server_->bytes_in_.fetch_add(n, std::memory_order_relaxed);
        TouchActivity(conn_.get());
        conn_->reader.Feed(buf, static_cast<size_t>(n));
        while (auto frame = conn_->reader.Next()) {
          Status st = server_->HandleFrame(conn_, std::move(*frame));
          if (!st.ok()) return ProtocolError(st);
        }
        if (!conn_->reader.error().ok())
          return ProtocolError(conn_->reader.error());
        consumed += static_cast<size_t>(n);
        if (consumed >= kReadBudgetBytes) return engine::RunOutcome::kYield;
        continue;
      }
      if (n == 0) {  // peer closed
        server_->CloseConn(conn_);
        return engine::RunOutcome::kDone;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return engine::RunOutcome::kBlocked;
      server_->CloseConn(conn_);
      return engine::RunOutcome::kDone;
    }
  }

  void OnRetired() override {
    {
      MutexLock lock(conn_->task_mu);
      conn_->read_task = nullptr;
    }
    server_->TaskRetired();
    delete this;
  }

 private:
  /// Sends ERROR, stops reading, and lets the write side close after the
  /// drain (so the client sees why it was cut off).
  engine::RunOutcome ProtocolError(const Status& status) {
    server_->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    server_->error_responses_.fetch_add(1, std::memory_order_relaxed);
    conn_->closing.store(true, std::memory_order_release);
    {
      MutexLock lock(conn_->out_mu);
      conn_->out.Append(ErrorFrame(status));
    }
    server_->ActivateWrite(conn_.get());
    return engine::RunOutcome::kDone;
  }

  NetServer* const server_;
  std::shared_ptr<Connection> conn_;
};

/// Flushes the output buffer; arms EPOLLOUT on short writes and parks until
/// there is something to send.
class WriteTask : public engine::StageTask {
 public:
  WriteTask(NetServer* server, std::shared_ptr<Connection> conn)
      : server_(server), conn_(std::move(conn)) {}

  engine::RunOutcome Run() override {
    if (conn_->closed.load(std::memory_order_acquire))
      return engine::RunOutcome::kDone;
    bool close_now = false;
    bool io_error = false;
    {
      MutexLock lock(conn_->out_mu);
      size_t written = 0;
      OutputBuffer::FlushResult res = conn_->out.Flush(conn_->fd, &written);
      if (written > 0) {
        server_->bytes_out_.fetch_add(written, std::memory_order_relaxed);
        TouchActivity(conn_.get());
      }
      switch (res) {
        case OutputBuffer::FlushResult::kWouldBlock:
          if (!conn_->want_write) {
            conn_->want_write = true;
            server_->ArmEpollOut(conn_.get(), true);
          }
          return engine::RunOutcome::kBlocked;
        case OutputBuffer::FlushResult::kError:
          io_error = true;
          break;
        case OutputBuffer::FlushResult::kDrained:
          if (conn_->want_write) {
            conn_->want_write = false;
            server_->ArmEpollOut(conn_.get(), false);
          }
          close_now = conn_->closing.load(std::memory_order_acquire);
          break;
      }
    }
    if (io_error || close_now) {
      server_->CloseConn(conn_);
      return engine::RunOutcome::kDone;
    }
    return engine::RunOutcome::kBlocked;
  }

  bool CanMakeProgress() override {
    if (conn_->closed.load(std::memory_order_acquire)) return true;
    MutexLock lock(conn_->out_mu);
    return !conn_->out.empty();
  }

  void OnRetired() override {
    {
      MutexLock lock(conn_->task_mu);
      conn_->write_task = nullptr;
    }
    server_->TaskRetired();
    delete this;
  }

 private:
  NetServer* const server_;
  std::shared_ptr<Connection> conn_;
};

/// Runs deferred submissions into the SQL pipeline. Exists so completion
/// callbacks — which fire on engine worker threads — never re-enter engine
/// submission paths; they enqueue a closure here instead.
class DispatchTask : public engine::StageTask {
 public:
  explicit DispatchTask(NetServer* server) : server_(server) {}

  engine::RunOutcome Run() override {
    while (true) {
      std::function<void()> fn;
      {
        MutexLock lock(server_->defer_mu_);
        if (server_->deferred_.empty()) {
          if (server_->shutdown_.load(std::memory_order_acquire))
            return engine::RunOutcome::kDone;
          return engine::RunOutcome::kBlocked;
        }
        fn = std::move(server_->deferred_.front());
        server_->deferred_.pop_front();
      }
      fn();
    }
  }

  bool CanMakeProgress() override {
    if (server_->shutdown_.load(std::memory_order_acquire)) return true;
    MutexLock lock(server_->defer_mu_);
    return !server_->deferred_.empty();
  }

  void OnRetired() override {
    {
      MutexLock lock(server_->tasks_mu_);
      server_->dispatch_task_ = nullptr;
    }
    server_->TaskRetired();
    delete this;
  }

 private:
  NetServer* const server_;
};

// ---------------------------------------------------------------------------
// NetServer
// ---------------------------------------------------------------------------

NetServer::NetServer(server::Database* db, NetServerOptions options)
    : db_(db), options_(std::move(options)) {}

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    server::Database* db, NetServerOptions options) {
  std::unique_ptr<NetServer> srv(new NetServer(db, std::move(options)));
  Status st = srv->Init();
  if (!st.ok()) return st;
  return srv;
}

Status NetServer::Init() {
  // The SQL pipeline must admit at least the network-side budget, otherwise
  // TrySubmit would shed work this layer already admitted.
  server::ServerOptions pipeline = options_.pipeline;
  if (pipeline.admission_capacity < options_.max_inflight_queries + 8)
    pipeline.admission_capacity = options_.max_inflight_queries + 8;
  pipeline_ = std::make_unique<server::StagedServer>(db_, pipeline);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    return Status::InvalidArgument(
        StrFormat("bad listen address %s", options_.host.c_str()));
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return Status::IOError(StrFormat("bind(%s:%d) failed: %s",
                                     options_.host.c_str(), options_.port,
                                     std::strerror(errno)));
  if (::listen(listen_fd_, options_.accept_backlog) != 0)
    return Status::IOError("listen() failed");
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1() failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Status::IOError("eventfd() failed");

  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  poll_stage_ = runtime_.CreateStage("poll", 1);
  accept_stage_ = runtime_.CreateStage("accept", 1);
  read_stage_ = runtime_.CreateStage("read", options_.io_workers);
  write_stage_ = runtime_.CreateStage("write", options_.io_workers);
  dispatch_stage_ = runtime_.CreateStage("dispatch", 1);

  poll_task_ = new PollTask(this);
  accept_task_ = new AcceptTask(this);
  dispatch_task_ = new DispatchTask(this);
  live_tasks_ = 3;
  poll_stage_->Enqueue(poll_task_);
  accept_stage_->Enqueue(accept_task_);
  dispatch_stage_->Enqueue(dispatch_task_);
  return Status::OK();
}

NetServer::~NetServer() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void NetServer::ActivateAccept() {
  MutexLock lock(tasks_mu_);
  if (accept_task_ != nullptr) accept_stage_->Activate(accept_task_);
}

void NetServer::ActivateDispatch() {
  MutexLock lock(tasks_mu_);
  if (dispatch_task_ != nullptr) dispatch_stage_->Activate(dispatch_task_);
}

void NetServer::ActivateRead(Connection* conn) {
  MutexLock lock(conn->task_mu);
  if (conn->read_task != nullptr) read_stage_->Activate(conn->read_task);
}

void NetServer::ActivateWrite(Connection* conn) {
  MutexLock lock(conn->task_mu);
  if (conn->write_task != nullptr) write_stage_->Activate(conn->write_task);
}

void NetServer::ArmEpollOut(Connection* conn, bool want) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::HandleAccepted(int fd) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Connection> conn;
  {
    // Capacity and shutdown are checked under the same lock as the insert:
    // Stop() sets shutdown_ before CloseAllConns() takes conns_mu_, so a
    // racing accept either lands in the map before the teardown snapshot
    // (and is closed by it) or observes shutdown_ here and sheds. Without
    // this, a connection admitted in the gap would park its tasks forever
    // and Stop() would never see live_tasks_ reach zero.
    MutexLock lock(conns_mu_);
    if (conns_.size() < options_.max_connections &&
        !shutdown_.load(std::memory_order_acquire)) {
      uint64_t id = next_conn_id_++;
      conn = std::make_shared<Connection>(this, fd, id);
      conns_[id] = conn;
    }
  }
  if (conn == nullptr) {
    // Load-shed the connection itself: tell the client why, then close.
    // Best-effort single write — the socket buffer of a fresh connection
    // takes a frame this small.
    shed_connections_.fetch_add(1, std::memory_order_relaxed);
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    std::string frame = ErrorFrame(
        Status::ResourceExhausted("overloaded: connection limit reached"));
    ssize_t ignored = ::write(fd, frame.data(), frame.size());
    (void)ignored;
    ::close(fd);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto* read_task = new ReadTask(this, conn);
  auto* write_task = new WriteTask(this, conn);
  {
    MutexLock lock(tasks_mu_);
    live_tasks_ += 2;
  }
  {
    // Publish the pointers and perform the first enqueue under one task_mu
    // hold. Published-but-not-yet-queued tasks are reachable through
    // ActivateRead/Write (a racing CloseConn, a completion), and an
    // activation in that window performs the task's first enqueue itself —
    // the task can then run, retire, and be freed before the Enqueue below
    // touches it. Activations take task_mu, so they serialize behind this
    // block and no-op on the already-queued task. Lock order (task_mu, then
    // the stage lock inside Enqueue) matches every activation path, and
    // OnRetired takes task_mu without a stage lock, so there is no
    // inversion.
    MutexLock lock(conn->task_mu);
    conn->read_task = read_task;
    conn->write_task = write_task;
    read_stage_->Enqueue(read_task);
    write_stage_->Enqueue(write_task);
  }

  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

std::shared_ptr<Connection> NetServer::FindConn(uint64_t id) {
  MutexLock lock(conns_mu_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

void NetServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel))
    return;  // someone else already closed it
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  // Close the transport but keep the fd alive until the Connection dies:
  // closing here would let the kernel recycle the number into a new
  // connection while this one's tasks are still in flight.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->id);
  }
  // Wake both packets so they observe `closed`, return kDone, and retire.
  ActivateRead(conn.get());
  ActivateWrite(conn.get());
}

void NetServer::CloseAllConns() {
  std::vector<std::shared_ptr<Connection>> all;
  {
    MutexLock lock(conns_mu_);
    for (const auto& [id, conn] : conns_) all.push_back(conn);
  }
  for (const auto& conn : all) CloseConn(conn);
}

uint64_t NetServer::NewSlot(const std::shared_ptr<Connection>& conn) {
  MutexLock lock(conn->out_mu);
  uint64_t id = conn->next_slot_id++;
  conn->slots.push_back(ResponseSlot{id, false, {}});
  return id;
}

void NetServer::CompleteSlot(const std::shared_ptr<Connection>& conn,
                             uint64_t slot_id, std::string frame_bytes,
                             bool is_error) {
  if (is_error)
    error_responses_.fetch_add(1, std::memory_order_relaxed);
  else
    ok_responses_.fetch_add(1, std::memory_order_relaxed);
  bool overflow = false;
  {
    MutexLock lock(conn->out_mu);
    if (conn->closed.load(std::memory_order_acquire)) {
      late_results_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (auto& slot : conn->slots) {
      if (slot.id == slot_id) {
        slot.ready = true;
        slot.bytes = std::move(frame_bytes);
        break;
      }
    }
    // Ship the longest ready prefix — in-order delivery under pipelining.
    while (!conn->slots.empty() && conn->slots.front().ready) {
      conn->out.Append(std::move(conn->slots.front().bytes));
      conn->slots.pop_front();
    }
    overflow = conn->out.bytes_queued() > options_.max_output_buffer_bytes;
  }
  if (overflow) {
    // The client is not reading its results (slow-loris by omission):
    // buffering without bound would let one socket hold server memory
    // hostage, so cut it loose.
    closed_overflow_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
    return;
  }
  ActivateWrite(conn.get());
}

Status NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame) {
  switch (frame.type) {
    case FrameType::kQuery: {
      queries_.fetch_add(1, std::memory_order_relaxed);
      uint64_t slot = NewSlot(conn);
      PendingWork work;
      work.slot_id = slot;
      work.is_execute = false;
      work.sql = std::move(frame.payload);
      OnRequest(conn, std::move(work));
      return Status::OK();
    }
    case FrameType::kPrepare: {
      prepares_.fetch_add(1, std::memory_order_relaxed);
      uint64_t slot = NewSlot(conn);
      // Prepare is parse + normalize only — cheap enough to run on the read
      // stage and answer immediately.
      auto stmt = db_->Prepare(frame.payload);
      if (!stmt.ok()) {
        CompleteSlot(conn, slot, ErrorFrame(stmt.status()), true);
        return Status::OK();
      }
      uint64_t stmt_id = conn->next_stmt_id++;
      conn->prepared[stmt_id] = *stmt;
      CompleteSlot(conn, slot,
                   EncodeFrame(FrameType::kResult,
                               EncodePreparedPayload(
                                   stmt_id, static_cast<uint32_t>(
                                                (*stmt)->num_params()))),
                   false);
      return Status::OK();
    }
    case FrameType::kExecute: {
      queries_.fetch_add(1, std::memory_order_relaxed);
      uint64_t slot = NewSlot(conn);
      auto req = DecodeExecutePayload(frame.payload);
      if (!req.ok()) {
        CompleteSlot(conn, slot, ErrorFrame(req.status()), true);
        return Status::OK();
      }
      auto it = conn->prepared.find(req->stmt_id);
      if (it == conn->prepared.end()) {
        CompleteSlot(conn, slot,
                     ErrorFrame(Status::NotFound(StrFormat(
                         "unknown prepared statement %llu",
                         static_cast<unsigned long long>(req->stmt_id)))),
                     true);
        return Status::OK();
      }
      PendingWork work;
      work.slot_id = slot;
      work.is_execute = true;
      work.stmt = it->second;
      work.params = std::move(req->params);
      OnRequest(conn, std::move(work));
      return Status::OK();
    }
    case FrameType::kResult:
    case FrameType::kError:
      return Status::Corruption("client sent a server-only frame type");
  }
  return Status::Corruption("unreachable frame type");
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

void NetServer::OnRequest(const std::shared_ptr<Connection>& conn,
                          PendingWork work) {
  enum class Verdict { kAdmit, kQueue, kShedOverload, kShedDraining };
  Verdict verdict;
  {
    MutexLock lock(adm_mu_);
    if (draining_) {
      verdict = Verdict::kShedDraining;
    } else if (conn->adm_inflight < options_.max_inflight_per_conn &&
               inflight_total_ < options_.max_inflight_queries &&
               conn->adm_pending.empty()) {
      ++inflight_total_;
      ++conn->adm_inflight;
      verdict = Verdict::kAdmit;
    } else if (conn->adm_pending.size() < options_.pending_per_conn) {
      conn->adm_pending.push_back(std::move(work));
      if (!conn->adm_in_rr) {
        conn->adm_in_rr = true;
        fair_rr_.push_back(conn);
      }
      verdict = Verdict::kQueue;
    } else {
      verdict = Verdict::kShedOverload;
    }
  }
  switch (verdict) {
    case Verdict::kAdmit:
      Defer(MakeDispatch(conn, std::move(work)));
      break;
    case Verdict::kQueue:
      break;
    case Verdict::kShedOverload:
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(conn, work.slot_id,
                   ErrorFrame(Status::ResourceExhausted(
                       "overloaded: query shed by admission control")),
                   true);
      break;
    case Verdict::kShedDraining:
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(conn, work.slot_id,
                   ErrorFrame(Status::Aborted("server shutting down")), true);
      break;
  }
}

void NetServer::OnQueryDone(const std::shared_ptr<Connection>& conn) {
  std::vector<std::function<void()>> runnable;
  {
    MutexLock lock(adm_mu_);
    if (inflight_total_ > 0) --inflight_total_;
    if (conn->adm_inflight > 0) --conn->adm_inflight;
    DispatchPendingLocked(&runnable);
  }
  adm_cv_.NotifyAll();
  for (auto& fn : runnable) Defer(std::move(fn));
}

void NetServer::DispatchPendingLocked(
    std::vector<std::function<void()>>* out) {
  size_t rounds = fair_rr_.size();
  while (rounds-- > 0 && !fair_rr_.empty() && !draining_ &&
         inflight_total_ < options_.max_inflight_queries) {
    std::shared_ptr<Connection> conn = fair_rr_.front();
    fair_rr_.pop_front();
    if (conn->closed.load(std::memory_order_acquire)) {
      late_results_dropped_.fetch_add(conn->adm_pending.size(),
                                      std::memory_order_relaxed);
      conn->adm_pending.clear();
      conn->adm_in_rr = false;
      continue;
    }
    if (conn->adm_pending.empty()) {
      conn->adm_in_rr = false;
      continue;
    }
    if (conn->adm_inflight >= options_.max_inflight_per_conn) {
      // Its own completions will pull from the queue; keep it rotating so a
      // capped connection doesn't block others.
      fair_rr_.push_back(conn);
      continue;
    }
    PendingWork work = std::move(conn->adm_pending.front());
    conn->adm_pending.pop_front();
    ++inflight_total_;
    ++conn->adm_inflight;
    out->push_back(MakeDispatch(conn, std::move(work)));
    if (conn->adm_pending.empty())
      conn->adm_in_rr = false;
    else
      fair_rr_.push_back(conn);
  }
}

void NetServer::Defer(std::function<void()> fn) {
  {
    MutexLock lock(defer_mu_);
    deferred_.push_back(std::move(fn));
  }
  ActivateDispatch();
}

void NetServer::FinishQuery(const std::shared_ptr<Connection>& conn,
                            uint64_t slot_id,
                            StatusOr<server::QueryResult> result) {
  if (result.ok()) {
    std::string payload = EncodeRowsPayload(*result);
    // A RESULT frame above max_frame_bytes would poison the peer's
    // FrameReader (it rejects oversized frames unread), leaving the session
    // unusable over a legitimate query. Answer with an ERROR the client can
    // parse instead of a RESULT it never could.
    if (payload.size() + 1 > options_.max_frame_bytes) {
      oversized_results_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(conn, slot_id,
                   ErrorFrame(Status::InvalidArgument(StrFormat(
                       "result of %zu bytes exceeds the %zu-byte frame "
                       "limit; narrow the query or raise max_frame_bytes",
                       payload.size() + 1, options_.max_frame_bytes))),
                   true);
    } else {
      CompleteSlot(conn, slot_id, EncodeFrame(FrameType::kResult, payload),
                   false);
    }
  } else {
    if (result.status().code() == StatusCode::kResourceExhausted ||
        result.status().code() == StatusCode::kAborted)
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
    CompleteSlot(conn, slot_id, ErrorFrame(result.status()), true);
  }
  OnQueryDone(conn);
}

std::function<void()> NetServer::MakeDispatch(
    const std::shared_ptr<Connection>& conn, PendingWork work) {
  if (!work.is_execute) {
    return [this, conn, slot_id = work.slot_id, sql = std::move(work.sql)]() {
      std::shared_ptr<server::Request> req = pipeline_->TrySubmit(sql);
      if (req == nullptr) {
        // Should not happen (the pipeline is sized above our budget), but
        // shed rather than block a dispatch worker.
        FinishQuery(conn, slot_id,
                    Status::ResourceExhausted("overloaded: query shed"));
        return;
      }
      // The callback fires on a lifecycle-stage worker (or right here if the
      // pipeline is draining); it must not block.
      req->NotifyOnDone(
          [this, conn, slot_id](const StatusOr<server::QueryResult>& result) {
            FinishQuery(conn, slot_id, result);
          });
    };
  }
  return [this, conn, slot_id = work.slot_id, stmt = std::move(work.stmt),
          params = std::move(work.params)]() {
    if (db_->options().mode == server::ExecutionMode::kStaged) {
      {
        MutexLock lock(engine_mu_);
        ++engine_inflight_;
      }
      auto pending = db_->SubmitPrepared(*stmt, params);
      if (!pending.ok()) {
        FinishQuery(conn, slot_id, pending.status());
        EngineDone();
        return;
      }
      // Fires on an engine worker: deliver the response and bump admission,
      // but never submit from here — OnQueryDone defers follow-on
      // dispatches back to the dispatch stage.
      (*pending)->NotifyOnDone([this, conn, slot_id, pq = *pending]() {
        FinishQuery(conn, slot_id, pq->Await());
        EngineDone();
      });
    } else {
      FinishQuery(conn, slot_id, db_->ExecutePrepared(*stmt, params));
    }
  };
}

void NetServer::EngineDone() {
  {
    MutexLock lock(engine_mu_);
    --engine_inflight_;
  }
  engine_cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

void NetServer::Stop(int64_t drain_deadline_ms) {
  std::call_once(stop_once_, [&]() {
    // 1. Stop admitting; shed every queued request with a shutdown error.
    std::vector<std::pair<std::shared_ptr<Connection>, uint64_t>> to_shed;
    {
      MutexLock lock(adm_mu_);
      draining_ = true;
      while (!fair_rr_.empty()) {
        std::shared_ptr<Connection> conn = fair_rr_.front();
        fair_rr_.pop_front();
        for (auto& work : conn->adm_pending)
          to_shed.emplace_back(conn, work.slot_id);
        conn->adm_pending.clear();
        conn->adm_in_rr = false;
      }
    }
    for (auto& [conn, slot_id] : to_shed) {
      shed_queries_.fetch_add(1, std::memory_order_relaxed);
      CompleteSlot(conn, slot_id,
                   ErrorFrame(Status::Aborted("server shutting down")), true);
    }

    // 2. Bounded drain of the SQL pipeline: in-flight queries get
    //    drain_deadline_ms to finish, then the still-queued tail is
    //    rejected. Every Request callback has fired when this returns.
    pipeline_->Shutdown(drain_deadline_ms);

    // 3. Wait out the admitted work (each either completed or was rejected
    //    by the draining pipeline above) and the direct engine submissions.
    {
      MutexLock lock(adm_mu_);
      adm_cv_.Wait(adm_mu_,
                   [&]() REQUIRES(adm_mu_) { return inflight_total_ == 0; });
    }
    {
      MutexLock lock(engine_mu_);
      engine_cv_.Wait(engine_mu_, [&]() REQUIRES(engine_mu_) {
        return engine_inflight_ == 0;
      });
    }

    // 4. Brief window to flush buffered responses to clients still reading.
    for (int i = 0; i < 25; ++i) {
      bool all_empty = true;
      std::vector<std::shared_ptr<Connection>> all;
      {
        MutexLock lock(conns_mu_);
        for (const auto& [id, conn] : conns_) all.push_back(conn);
      }
      for (const auto& conn : all) {
        MutexLock lock(conn->out_mu);
        if (!conn->out.empty()) all_empty = false;
      }
      if (all_empty) break;
      for (const auto& conn : all) ActivateWrite(conn.get());
      RealClock::Instance()->SleepMicros(10 * 1000);
    }

    // 5. Tear down the network stages: long-lived tasks observe shutdown_
    //    and retire; closing each connection retires its packets.
    shutdown_.store(true, std::memory_order_release);
    uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
    ActivateAccept();
    ActivateDispatch();
    CloseAllConns();
    {
      MutexLock lock(tasks_mu_);
      tasks_cv_.Wait(tasks_mu_,
                     [&]() REQUIRES(tasks_mu_) { return live_tasks_ == 0; });
    }
    runtime_.Shutdown();
  });
}

void NetServer::TaskRetired() {
  MutexLock lock(tasks_mu_);
  --live_tasks_;
  tasks_cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

NetServer::Stats NetServer::GetStats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  {
    MutexLock lock(conns_mu_);
    s.active = static_cast<int64_t>(conns_.size());
  }
  s.shed_connections = shed_connections_.load(std::memory_order_relaxed);
  s.closed_overflow = closed_overflow_.load(std::memory_order_relaxed);
  s.closed_idle = closed_idle_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.prepares = prepares_.load(std::memory_order_relaxed);
  s.ok_responses = ok_responses_.load(std::memory_order_relaxed);
  s.error_responses = error_responses_.load(std::memory_order_relaxed);
  s.shed_queries = shed_queries_.load(std::memory_order_relaxed);
  s.oversized_results = oversized_results_.load(std::memory_order_relaxed);
  s.late_results_dropped =
      late_results_dropped_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

std::string NetServer::StatsReport() const {
  Stats s = GetStats();
  std::string out = StrFormat(
      "net: accepted=%lld active=%lld shed_conns=%lld overflow=%lld "
      "idle=%lld proto_errors=%lld queries=%lld prepares=%lld ok=%lld "
      "errors=%lld shed_queries=%lld oversized=%lld late_dropped=%lld "
      "in=%lldB out=%lldB\n",
      static_cast<long long>(s.accepted), static_cast<long long>(s.active),
      static_cast<long long>(s.shed_connections),
      static_cast<long long>(s.closed_overflow),
      static_cast<long long>(s.closed_idle),
      static_cast<long long>(s.protocol_errors),
      static_cast<long long>(s.queries), static_cast<long long>(s.prepares),
      static_cast<long long>(s.ok_responses),
      static_cast<long long>(s.error_responses),
      static_cast<long long>(s.shed_queries),
      static_cast<long long>(s.oversized_results),
      static_cast<long long>(s.late_results_dropped),
      static_cast<long long>(s.bytes_in),
      static_cast<long long>(s.bytes_out));
  out += "-- network stages --\n";
  out += runtime_.Stats().ToString();
  out += "-- sql pipeline --\n";
  out += pipeline_->StatsReport();
  return out;
}

}  // namespace stagedb::net
