// stagedb_bench: fixed-load wire benchmark for the staged server.
//
// Forks one Database + NetServer child per workload, drives it over TCP from
// this single load-generator process at a fixed, pre-declared load, checks
// every answer, and prints each metric by name and unit. The last stdout line
// is one JSON object: end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1. See README.md for the workloads and metric definitions.
//
//   stagedb_bench --workload W --seed N --seconds S --trace 0|1
//                 --work-dir DIR --set key=value ...
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "child.h"
#include "net/client.h"
#include "server/database.h"
#include "workload/wisconsin.h"

namespace bench {
namespace {

using stagedb::Status;
using stagedb::StatusCode;
using stagedb::catalog::Value;
using stagedb::net::Client;
using stagedb::server::QueryResult;

// Phase ids: each phase draws from its own per-connection streams.
constexpr int kMainPhase = 0;
constexpr int kTracedPhase = 1;
constexpr int kWarmupPhase = 50;

enum Outcome : uint8_t { kOk, kShed, kConflict, kError, kTimeout };
enum OpClass { kReadClass, kWriteClass, kScanClass };

int ClassOf(Op op) {
  return op == Op::kScan ? kScanClass : IsWrite(op) ? kWriteClass : kReadClass;
}

int64_t AsInt(const Value& v) {
  return v.type() == stagedb::catalog::TypeId::kInt64
             ? v.int_value()
             : static_cast<int64_t>(std::llround(v.AsDouble()));
}

std::string Canonical(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string s;
    for (const Value& v : row) {
      if (v.type() == stagedb::catalog::TypeId::kDouble &&
          v.double_value() == std::floor(v.double_value())) {
        s += std::to_string(static_cast<int64_t>(v.double_value()));
      } else {
        s += v.ToString();
      }
      s += "|";
    }
    rows.push_back(s);
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& r : rows) out += r + "\n";
  return out;
}

struct Span {
  int64_t sched_us, sent_us, recv_us;
  uint8_t op, outcome;
  int conn;
};

/// Client-side accounting of one phase: every attempted request resolves to
/// exactly one outcome.
struct Tally {
  std::vector<double> lat_ms[3];  // ok requests, per op class
  std::vector<double> lag_ms;     // open loop: actual minus scheduled send
  int64_t attempted = 0, ok = 0, shed = 0, conflict = 0, error = 0,
          timeout = 0;
  int64_t write_attempts = 0, writes_ok = 0;
  std::vector<Span> spans;
  double seconds = 0;

  void Add(const Tally& o) {
    for (int c = 0; c < 3; ++c)
      lat_ms[c].insert(lat_ms[c].end(), o.lat_ms[c].begin(), o.lat_ms[c].end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    conflict += o.conflict;
    error += o.error;
    timeout += o.timeout;
    write_attempts += o.write_attempts;
    writes_ok += o.writes_ok;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
  int64_t failed() const { return shed + conflict + error + timeout; }
  /// What p50_ms is taken over: the open-loop point ops where the workload
  /// has them, else its (closed-loop) scans. Each gated percentile stays
  /// within one class, so a shift in the class mix cannot move it.
  std::vector<double> P50Sample() const {
    if (lat_ms[kReadClass].empty() && lat_ms[kWriteClass].empty())
      return lat_ms[kScanClass];
    std::vector<double> v = lat_ms[kReadClass];
    v.insert(v.end(), lat_ms[kWriteClass].begin(), lat_ms[kWriteClass].end());
    return v;
  }
  /// Closed-loop requests in the spans (the ad-hoc QUERY frames sent).
  int64_t ScanSpans() const {
    return std::count_if(spans.begin(), spans.end(), [](const Span& s) {
      return s.op == static_cast<uint8_t>(Op::kScan);
    });
  }
};

// ------------------------------------------------------------ answer checks

/// Shadow of the benchmark's own acked writes plus the generator-derived
/// answers of the Wisconsin queries. A read is consistent when it reflects
/// every write acked before it was sent and nothing that was not yet sent
/// when its answer arrived. Every base row of acct starts at v = 0 and each
/// update adds 1.
class Checker {
 public:
  Checker(const Config& cfg, std::map<std::string, std::string> reference)
      : cfg_(cfg), rows_(TableRows(cfg)), reference_(std::move(reference)) {
    if (!IsHtap(cfg)) {
      // Replica of the Wisconsin generator's unique1 permutation for wa.
      perm_.resize(rows_);
      for (int64_t i = 0; i < rows_; ++i) perm_[i] = i;
      stagedb::Rng rng(WisconsinSeed(cfg.seed, 0));
      for (int64_t i = rows_ - 1; i > 0; --i)
        std::swap(perm_[i], perm_[rng.Uniform(static_cast<uint64_t>(i + 1))]);
    } else {
      sent_.reset(new std::atomic<int64_t>[rows_]);
      acked_.reset(new std::atomic<int64_t>[rows_]);
      for (int64_t i = 0; i < rows_; ++i) {
        sent_[i] = 0;
        acked_[i] = 0;
      }
    }
  }

  /// Called before a request is sent; returns the lower bound its answer is
  /// checked against (acked writes so far).
  int64_t BeforeSend(const Request& r) {
    switch (r.op) {
      case Op::kRead:
        return acked_[r.key].load();
      case Op::kUpdate:
        sent_[r.key] += 1;
        sent_total_ += 1;
        return 0;
      default:
        return IsHtap(cfg_) ? acked_total_.load() : 0;
    }
  }

  void OnOk(const Request& r, int64_t lo, const QueryResult& res, int conn) {
    switch (r.op) {
      case Op::kRead: {
        if (res.rows.size() != 1 || res.rows[0].size() != 2 ||
            AsInt(res.rows[0][0]) != r.key) {
          Fail("point read of id " + std::to_string(r.key) +
               " returned the wrong row(s)");
          return;
        }
        const int64_t v = AsInt(res.rows[0][1]);
        const int64_t hi = sent_[r.key].load();
        if (v < lo || v > hi)
          Fail("point read of id " + std::to_string(r.key) + " saw " +
               std::to_string(v) + " outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
        return;
      }
      case Op::kUpdate:
        if (Affected(res) != 1) {
          Fail("update of id " + std::to_string(r.key) + " hit " +
               std::to_string(Affected(res)) + " rows");
          return;
        }
        acked_[r.key] += 1;
        acked_total_ += 1;
        return;
      default:
        CheckScan(r, lo, res, conn);
    }
  }

  void OnFailed(const Request& r, Outcome outcome) {
    // A write without an answer may or may not have been applied.
    if (outcome == kTimeout && r.op == Op::kUpdate) ambiguous_ += 1;
  }

  /// Final state over the wire: SUM of the written column against the
  /// acked-write count, and the row count against the base rows.
  void CheckFinal(Client* client) {
    if (!IsHtap(cfg_)) return;
    auto res = client->Query(std::string("SELECT SUM(v), COUNT(*) FROM ") + kPointTable);
    if (!res.ok() || res->rows.size() != 1) {
      Fail("final SUM query failed: " +
           (res.ok() ? std::string("bad shape") : res.status().ToString()));
      return;
    }
    const int64_t sum = AsInt(res->rows[0][0]);
    const int64_t count = AsInt(res->rows[0][1]);
    if (sum < acked_total_ || sum > acked_total_ + ambiguous_)
      Fail("final SUM " + std::to_string(sum) + " != acked writes " +
           std::to_string(acked_total_.load()));
    if (count != rows_)
      Fail("final COUNT " + std::to_string(count) + " != " + std::to_string(rows_));
  }

  void Fail(const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 5) std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
  }
  int64_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  static int64_t Affected(const QueryResult& res) {
    return res.rows.size() == 1 && res.rows[0].size() == 1
               ? AsInt(res.rows[0][0])
               : -1;
  }

  void CheckScan(const Request& r, int64_t lo, const QueryResult& res,
                 int conn) {
    if (r.variant == kFullSum) {
      if (res.rows.size() != 1 || res.rows[0].size() != 2) {
        Fail("full-table aggregate returned a bad shape");
        return;
      }
      const int64_t sum = AsInt(res.rows[0][0]);
      const int64_t hi = sent_total_.load();
      if (AsInt(res.rows[0][1]) != rows_)
        Fail("full-table COUNT " + std::to_string(AsInt(res.rows[0][1])));
      if (sum < lo || sum > hi)
        Fail("full-table SUM " + std::to_string(sum) + " outside [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]");
      std::lock_guard<std::mutex> lock(mu_);
      int64_t& last = last_sum_[conn];
      if (sum < last)
        Fail("snapshot went backwards on connection " + std::to_string(conn));
      last = std::max(last, sum);
      return;
    }
    const std::string got = Canonical(res);
    std::string want;
    if (r.variant <= kRangeGroupSum) {
      want = RangeAnswer(r);
    } else {
      auto it = reference_.find(r.sql);
      if (it == reference_.end()) {
        Fail("no reference answer for: " + r.sql);
        return;
      }
      want = it->second;
    }
    if (got != want) Fail("wrong answer for: " + r.sql);
  }

  /// Answers of the 1% range shapes, derived from the generator itself.
  std::string RangeAnswer(const Request& r) const {
    QueryResult q;
    if (r.variant == kRangeRows) {
      for (int64_t u2 = r.lo; u2 < r.hi; ++u2)
        q.rows.push_back({Value::Int(perm_[u2]),
                          Value::Varchar(WisconsinString(perm_[u2]))});
    } else if (r.variant == kRangeCountMin) {
      int64_t mn = INT64_MAX;
      for (int64_t u2 = r.lo; u2 < r.hi; ++u2) mn = std::min(mn, perm_[u2]);
      q.rows.push_back({Value::Int(r.hi - r.lo), Value::Int(mn)});
    } else {
      std::map<int64_t, int64_t> sums;
      for (int64_t u2 = r.lo; u2 < r.hi; ++u2) sums[perm_[u2] % 10] += u2;
      for (auto& [ten, s] : sums) q.rows.push_back({Value::Int(ten), Value::Int(s)});
    }
    return Canonical(q);
  }

  static std::string WisconsinString(int64_t value) {
    std::string s(7, 'A');
    for (int i = 6; i >= 0 && value > 0; --i) {
      s[i] = static_cast<char>('A' + (value % 26));
      value /= 26;
    }
    return s + std::string(45, 'x');
  }

  const Config& cfg_;
  const int64_t rows_;
  const std::map<std::string, std::string> reference_;
  std::vector<int64_t> perm_;
  std::unique_ptr<std::atomic<int64_t>[]> sent_, acked_;
  std::atomic<int64_t> sent_total_{0}, acked_total_{0}, ambiguous_{0};
  mutable std::mutex mu_;
  std::map<int, int64_t> last_sum_;
  int64_t failures_ = 0;
};

/// Reference answers for the join and aggregate shapes, from a volcano
/// (iterator-model) database over the same generated tables. Built before
/// any fork, and destroyed before it, so no engine thread outlives it.
std::map<std::string, std::string> VolcanoReference(const Config& cfg) {
  std::map<std::string, std::string> out;
  if (IsHtap(cfg)) return out;
  stagedb::server::DatabaseOptions options;
  options.mode = stagedb::server::ExecutionMode::kVolcano;
  options.buffer_pool_pages = 4096;
  auto db = stagedb::server::Database::Open(options);
  if (!db.ok()) Die("reference database: " + db.status().ToString());
  const int64_t rows = TableRows(cfg);
  int i = 0;
  for (const char* name : {"wa", "wb"}) {
    auto t = stagedb::workload::CreateWisconsinTable(
        (*db)->catalog(), name, rows, WisconsinSeed(cfg.seed, i++));
    if (!t.ok()) Die("reference load: " + t.status().ToString());
  }
  std::vector<Request> shapes;
  for (int c = 0; c < kJoinCutoffs; ++c) shapes.push_back(MakeScan(kJoinCount, rows, c));
  shapes.push_back(MakeScan(kJoinGroup, rows, 0));
  for (int g = 0; g < kGroupLiterals; ++g) shapes.push_back(MakeScan(kGroupAgg, rows, g));
  for (const Request& r : shapes) {
    auto res = (*db)->Execute(r.sql);
    if (!res.ok()) Die("reference query failed: " + res.status().ToString());
    out[r.sql] = Canonical(*res);
  }
  return out;
}

// ------------------------------------------------------------ server child

class ServerChild {
 public:
  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  ~ServerChild() { Stop(); }

  /// Forks the child; fails on anything but a "ready" line.
  void Start(const Config& cfg) {
    int cmd[2], resp[2];
    if (pipe(cmd) != 0 || pipe(resp) != 0) Die("pipe failed");
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::close(cmd[1]);
      ::close(resp[0]);
      ChildMain(cfg, cmd[0], resp[1]);
    }
    ::close(cmd[0]);
    ::close(resp[1]);
    cmd_fd_ = cmd[1];
    resp_fd_ = resp[0];
    const std::string line = ReadLine(120'000);
    if (line.rfind("ready ", 0) != 0) Die("server child: " + line);
    port_ = std::atoi(line.c_str() + 6);
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Sends a command and collects "key value" lines up to "done"/"ok".
  std::map<std::string, double> Call(const std::string& cmd,
                                     int64_t timeout_ms = 120'000) {
    Send(cmd);
    std::map<std::string, double> out;
    while (true) {
      const std::string line = ReadLine(timeout_ms);
      if (line == "done" || line == "ok") return out;
      if (line.rfind("error", 0) == 0 || line.empty())
        Die("server child '" + cmd + "': " + line);
      const size_t sp = line.find(' ');
      out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }

  /// The child's peak resident set (VmHWM), in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
  }

  /// Graceful quit with a bounded wait; SIGKILL as the last resort.
  bool Stop() {
    if (pid_ <= 0) return true;
    Send("quit");
    bool clean = false;
    for (int i = 0; i < 200; ++i) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        break;
      }
      usleep(50'000);
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    ::close(cmd_fd_);
    ::close(resp_fd_);
    return clean;
  }

 private:
  void Send(const std::string& cmd) {
    const std::string line = cmd + "\n";
    if (::write(cmd_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
      Die("server child is gone");
  }

  std::string ReadLine(int64_t timeout_ms) {
    const int64_t deadline = NowMicros() + timeout_ms * 1000;
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const int64_t left_ms = (deadline - NowMicros()) / 1000;
      if (left_ms <= 0) Die("server child did not answer in time");
      struct pollfd pfd = {resp_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
      char chunk[4096];
      ssize_t n = ::read(resp_fd_, chunk, sizeof(chunk));
      if (n <= 0) Die("server child exited");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int cmd_fd_ = -1, resp_fd_ = -1, port_ = 0;
  std::string buf_;
};

// ------------------------------------------------------------ load generator

struct Conn {
  std::unique_ptr<Client> client;
  std::map<Op, uint64_t> stmt;  // prepared point statements
};

class LoadGen {
 public:
  LoadGen(const Config& cfg, Checker* checker, std::vector<Conn>* conns)
      : cfg_(cfg),
        checker_(checker),
        conns_(conns),
        rows_(TableRows(cfg)),
        point_conns_(static_cast<int>(cfg.I("point_conns"))),
        timeout_ms_(cfg.I("response_timeout_ms")) {}

  /// One phase: open-loop point ops at `rate_qps` over the point
  /// connections and, concurrently, closed-loop queries over the rest.
  Tally Run(int phase, double rate_qps, double seconds, bool spans) {
    const int total = static_cast<int>(conns_->size());
    std::vector<Tally> parts(total);
    std::vector<std::thread> threads;
    const int64_t start = NowMicros() + 2000;
    for (int c = 0; c < total; ++c) {
      if (c < point_conns_) {
        threads.emplace_back([=, &parts] {
          RunOpen(c, phase, rate_qps / point_conns_, start, seconds, spans,
                  &parts[c]);
        });
      } else {
        threads.emplace_back([=, &parts] {
          RunClosed(c, phase, start, seconds, -1, spans, &parts[c]);
        });
      }
    }
    for (auto& t : threads) t.join();
    Tally all;
    for (const Tally& p : parts) all.Add(p);
    all.seconds = seconds;
    return all;
  }

  /// Closed-loop warm-up: a fixed number of requests per connection.
  Tally Warmup(int64_t point_requests, int64_t scan_requests) {
    const int total = static_cast<int>(conns_->size());
    std::vector<Tally> parts(total);
    std::vector<std::thread> threads;
    for (int c = 0; c < total; ++c) {
      threads.emplace_back([=, &parts] {
        if (c < point_conns_) {
          PointStream ps = MakePointStream(c, kWarmupPhase, 1000.0);
          for (int64_t i = 0; i < point_requests; ++i) {
            Request r = ps.Next();
            const int64_t lo = checker_->BeforeSend(r);
            const int64_t t0 = NowMicros();
            Status st = Send(c, r);
            Finish(c, r, lo, t0, t0, st, false, &parts[c]);
          }
        } else {
          RunClosed(c, kWarmupPhase, NowMicros(), 1e9, scan_requests, false,
                    &parts[c]);
        }
      });
    }
    for (auto& t : threads) t.join();
    Tally all;
    for (const Tally& p : parts) all.Add(p);
    return all;
  }

 private:
  PointStream MakePointStream(int c, int phase, double rate) const {
    return PointStream(cfg_.seed, c, phase, rate, rows_, cfg_.D("read_frac"));
  }

  Status Send(int c, const Request& r) {
    Conn& conn = (*conns_)[c];
    if (r.op == Op::kScan) return conn.client->SendQuery(r.sql);
    return conn.client->SendExecute(conn.stmt[r.op], {Value::Int(r.key)});
  }

  /// Reads one response (unless `st` says the send already failed) and
  /// resolves the request to exactly one outcome.
  Outcome Finish(int c, const Request& r, int64_t lo, int64_t sched_us,
                 int64_t sent_us, const Status& st, bool spans, Tally* t) {
    Outcome outcome = kOk;
    ++t->attempted;
    if (IsWrite(r.op)) ++t->write_attempts;
    stagedb::StatusOr<stagedb::net::WireResult> resp =
        st.ok() ? (*conns_)[c].client->ReadResponse(timeout_ms_) : st;
    const int64_t recv_us = NowMicros();
    if (resp.ok()) {
      checker_->OnOk(r, lo, resp->result, c);
      ++t->ok;
      if (IsWrite(r.op)) ++t->writes_ok;
      t->lat_ms[ClassOf(r.op)].push_back((recv_us - sched_us) / 1000.0);
    } else {
      const StatusCode code = resp.status().code();
      if (code == StatusCode::kResourceExhausted) {
        outcome = kShed;
        ++t->shed;
      } else if (code == StatusCode::kAborted && IsWrite(r.op)) {
        outcome = kConflict;
        ++t->conflict;
      } else if (code == StatusCode::kTimedOut || code == StatusCode::kIOError) {
        outcome = kTimeout;
        ++t->timeout;
      } else {
        outcome = kError;
        ++t->error;
        if (t->error <= 3)
          std::fprintf(stderr, "error response: %s\n",
                       resp.status().ToString().c_str());
      }
      checker_->OnFailed(r, outcome);
    }
    if (spans)
      t->spans.push_back({sched_us, sent_us, recv_us,
                          static_cast<uint8_t>(r.op), outcome, c});
    return outcome;
  }

  /// Open loop: a sender paces Poisson arrivals from the seeded schedule and
  /// a receiver matches the in-order responses; latency runs from each
  /// request's scheduled send time.
  void RunOpen(int c, int phase, double rate, int64_t start, double seconds,
               bool spans, Tally* out) {
    struct Entry {
      Request r;
      int64_t lo, sched_us, sent_us;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Entry> queue;
    bool done = false;
    std::atomic<bool> broken{false};
    Tally recv_tally;

    std::thread receiver([&] {
      while (true) {
        Entry e;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || done; });
          if (queue.empty()) return;
          e = std::move(queue.front());
          queue.pop_front();
        }
        const Status ok = broken ? Status::TimedOut("connection lost") : Status::OK();
        if (Finish(c, e.r, e.lo, e.sched_us, e.sent_us, ok, spans,
                   &recv_tally) == kTimeout)
          broken = true;
      }
    });

    PointStream ps = MakePointStream(c, phase, rate);
    const int64_t end_offset = static_cast<int64_t>(seconds * 1e6);
    while (!broken) {
      Request r = ps.Next();
      if (r.at_us >= end_offset) break;
      const int64_t sched = start + r.at_us;
      const int64_t wait = sched - NowMicros();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
      Entry e{r, checker_->BeforeSend(r), sched, 0};
      e.sent_us = NowMicros();
      out->lag_ms.push_back((e.sent_us - sched) / 1000.0);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(e);
      }
      cv.notify_one();
      if (!Send(c, r).ok()) broken = true;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    receiver.join();
    out->Add(recv_tally);
  }

  /// Closed loop: send the next query when the previous answer arrived,
  /// until `seconds` pass or `limit` requests (when limit >= 0) are done.
  void RunClosed(int c, int phase, int64_t start, double seconds,
                 int64_t limit, bool spans, Tally* out) {
    ScanStream ss(cfg_.seed, c, phase, rows_, IsHtap(cfg_));
    const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
    while (NowMicros() < start) std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (int64_t i = 0; limit < 0 || i < limit; ++i) {
      if (NowMicros() >= end) break;
      Request r = ss.Next();
      const int64_t lo = checker_->BeforeSend(r);
      const int64_t t0 = NowMicros();
      if (Finish(c, r, lo, t0, t0, Send(c, r), spans, out) == kTimeout) break;
    }
  }

  const Config& cfg_;
  Checker* checker_;
  std::vector<Conn>* conns_;
  const int64_t rows_;
  const int point_conns_;
  const int64_t timeout_ms_;
};

// ------------------------------------------------------------ orchestration

/// One server child with its connected, prepared clients.
struct Instance {
  ServerChild child;
  std::vector<Conn> conns;
  std::unique_ptr<Checker> checker;
  std::unique_ptr<LoadGen> gen;
};

/// One set-up: fork, load, connect, PREPARE, warm up. Returns seconds from
/// fork until the warm-up is done.
double SetUp(const Config& cfg, const std::map<std::string, std::string>& ref,
             Instance* in) {
  const int64_t t0 = NowMicros();
  in->child.Start(cfg);
  in->checker = std::make_unique<Checker>(cfg, ref);
  const int point_conns = static_cast<int>(cfg.I("point_conns"));
  const int total = point_conns + static_cast<int>(cfg.I("scan_conns"));
  for (int c = 0; c < total; ++c) {
    auto client = Client::Connect("127.0.0.1", in->child.port(),
                                  cfg.I("response_timeout_ms"));
    if (!client.ok()) Die("connect: " + client.status().ToString());
    Conn conn;
    conn.client = std::move(*client);
    for (Op op : {Op::kRead, Op::kUpdate}) {
      if (c >= point_conns) break;
      auto p = conn.client->Prepare(PointSql(op));
      if (!p.ok()) Die("prepare: " + p.status().ToString());
      conn.stmt[op] = p->stmt_id;
    }
    in->conns.push_back(std::move(conn));
  }
  in->gen = std::make_unique<LoadGen>(cfg, in->checker.get(), &in->conns);
  Tally warm = in->gen->Warmup(cfg.I("warmup_points"), cfg.I("warmup_scans"));
  if (warm.error + warm.timeout > 0)
    Die("warm-up had " + std::to_string(warm.error + warm.timeout) +
        " errors or timeouts");
  return (NowMicros() - t0) / 1e6;
}

/// Host CPU time taken from this machine's virtual CPUs (steal) as a share
/// of all CPU time since `prev`, from the first line of /proc/stat; `prev` is
/// updated. Printed per instance, so a slow run can be told from a slow host.
double StealShare(std::vector<int64_t>* prev) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<int64_t> now(8, 0);
  in >> cpu;
  for (int64_t& v : now) in >> v;
  double share = 0;
  if (prev->size() == now.size()) {
    int64_t total = 0;
    for (size_t i = 0; i < now.size(); ++i) total += now[i] - (*prev)[i];
    share = total > 0 ? static_cast<double>(now[7] - (*prev)[7]) / total : 0;
  }
  *prev = now;
  return share;
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

struct Metric {
  std::string name, unit;
  double value;
  bool applicable;
};

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted));
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.applicable)
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    else
      std::printf("  %-36s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
  }
}

struct OpReport {
  double p50 = 0, p99 = 0, p99_used = 0;
  size_t n = 0;
};
OpReport OpLatency(const std::vector<double>& v) {
  OpReport r;
  r.n = v.size();
  r.p50 = Percentile(v, 50);
  auto tail = TailPercentile(v, 99);
  r.p99 = tail.first;
  r.p99_used = tail.second;
  return r;
}

/// Adds <prefix>_p50_ms / _p99_ms for one op class (n/a when absent).
void AddLatency(const std::string& prefix, const std::vector<double>& v,
                std::vector<Metric>* out) {
  OpReport r = OpLatency(v);
  const bool has = r.n > 0;
  out->push_back({prefix + "_p50_ms", "ms", r.p50, has});
  out->push_back({prefix + "_p99_ms", "ms", r.p99, has});
  if (has && r.p99_used < 99)
    std::printf("  note: %s p99 rests on %zu samples; reporting p%.2f\n",
                prefix.c_str(), r.n, r.p99_used);
}

/// Open-loop integrity: a run is invalid when the generator sent late.
bool GeneratorKeptUp(const Config& cfg, const Tally& t, const char* window) {
  if (t.lag_ms.empty()) return true;
  const double lag = TailPercentile(t.lag_ms, 99).first;
  if (lag <= cfg.D("max_gen_lag_p99_ms")) return true;
  std::fprintf(stderr, "INVALID RUN: the generator fell behind schedule in the %s "
               "window (send lag p99 %.3f ms)\n", window, lag);
  return false;
}

void WriteSpans(const Config& cfg, const Tally& t) {
  const std::string path = cfg.work_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".csv";
  std::ofstream out(path);
  out << "conn,op,outcome,sched_us,sent_us,recv_us\n";
  for (const Span& s : t.spans)
    out << s.conn << ',' << int(s.op) << ',' << int(s.outcome) << ','
        << s.sched_us << ',' << s.sent_us << ',' << s.recv_us << '\n';
  std::printf("# spans: %zu written to %s\n", t.spans.size(), path.c_str());
}

/// Seeds self-test: the same seed yields a byte-identical request stream,
/// another seed does not.
uint64_t StreamHash(const Config& cfg, uint64_t seed) {
  Config c = cfg;
  c.seed = seed;
  const int64_t rows = TableRows(c);
  uint64_t h = Fnv1a(c.workload);
  if (c.I("point_conns") > 0) {
    PointStream ps(seed, 0, kMainPhase, c.D("rate_qps"), rows, c.D("read_frac"));
    for (int i = 0; i < 2000; ++i) {
      Request r = ps.Next();
      h = Fnv1a(std::to_string(int(r.op)) + ":" + std::to_string(r.at_us) + ":" +
                    std::to_string(r.key) + ";",
                h);
    }
  }
  ScanStream ss(seed, 0, kMainPhase, rows, IsHtap(c));
  for (int i = 0; i < 500; ++i) h = Fnv1a(ss.Next().sql + ";", h);
  return h;
}

}  // namespace

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("flag " + a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = next();
    else if (a == "--seed") cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::atof(next().c_str());
    else if (a == "--trace") cfg.trace = next() == "1";
    else if (a == "--work-dir") cfg.work_dir = next();
    else if (a == "--set") {
      const std::string kv = next();
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) Die("--set wants key=value");
      cfg.kv[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      Die("unknown flag " + a);
    }
  }
  static const std::set<std::string> kWorkloads = {"olap_scan", "htap_mixed"};
  if (!kWorkloads.count(cfg.workload)) Die("unknown workload '" + cfg.workload + "'");
  if (cfg.seconds <= 0) Die("--seconds must be positive");
  signal(SIGPIPE, SIG_IGN);

  // Open-loop integrity: the generator never uses more threads or
  // connections than this process may run on.
  const int nproc = CountCpus();
  const int point_conns = static_cast<int>(cfg.I("point_conns"));
  const int scan_conns = static_cast<int>(cfg.I("scan_conns"));
  const int threads = 2 * point_conns + scan_conns;
  std::printf("# env workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "hw_threads=%u gen_threads=%d connections=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, int(cfg.trace), nproc,
              std::thread::hardware_concurrency(), threads,
              point_conns + scan_conns);
  if (threads > nproc || point_conns + scan_conns > nproc)
    Die("refusing to run: the generator needs " + std::to_string(threads) +
        " threads but only " + std::to_string(nproc) + " CPUs are available");

  bool correct = true;
  const uint64_t h1 = StreamHash(cfg, cfg.seed), h2 = StreamHash(cfg, cfg.seed),
                 h3 = StreamHash(cfg, cfg.seed + 1);
  std::printf("# seed self-test: hash(seed)=%016llx again=%016llx "
              "hash(seed+1)=%016llx\n",
              static_cast<unsigned long long>(h1),
              static_cast<unsigned long long>(h2),
              static_cast<unsigned long long>(h3));
  if (h1 != h2 || h1 == h3) {
    std::fprintf(stderr, "seed self-test failed\n");
    correct = false;
  }

  const auto reference = VolcanoReference(cfg);

  // Set-up, repeated. Untraced runs measure an equal share of the window on
  // every instance and report the median across instances, so one server
  // process's luck (thread placement, vacuum timing) does not set the result.
  const int reps = cfg.trace ? 1 : static_cast<int>(cfg.I("setup_reps"));
  const double T = cfg.seconds;
  const double rate = point_conns > 0 ? cfg.D("rate_qps") : 0;
  std::vector<double> setups, p50s, p90s, goodputs, rss;
  Tally main;
  auto inst = std::make_unique<Instance>();
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      if (inst->checker->failures() > 0) correct = false;
      inst->conns.clear();
      inst->child.Stop();
      inst = std::make_unique<Instance>();
    }
    setups.push_back(SetUp(cfg, reference, inst.get()));
    if (cfg.trace) break;
    std::vector<int64_t> cpu;
    StealShare(&cpu);
    Tally w = inst->gen->Run(kMainPhase, rate, T / reps, false);
    const double steal = StealShare(&cpu);
    inst->checker->CheckFinal(inst->conns[0].client.get());
    p50s.push_back(Percentile(w.P50Sample(), 50));
    p90s.push_back(Percentile(w.lat_ms[kScanClass], 90));
    goodputs.push_back(w.ok / w.seconds);
    rss.push_back(inst->child.PeakRssMb());
    main.Add(w);
    main.seconds += w.seconds;
    std::printf("# instance %d: setup %.4f s, %lld attempted, p50 %.4f ms, "
                "p90 %.4f ms, goodput %.2f/s, peak rss %.2f MB, host steal %.2f%%\n",
                rep, setups.back(), static_cast<long long>(w.attempted),
                p50s.back(), p90s.back(), goodputs.back(), rss.back(), 100 * steal);
  }

  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  int64_t attempted = 0, failed = 0;
  std::map<std::string, double> child;
  std::map<std::string, double> replay;
  double untraced_p50 = 0;

  if (!cfg.trace) {
    attempted += main.attempted;
    failed += main.failed();
    e2e.push_back({"setup_s", "s", Median(setups), true});
    e2e.push_back({"p50_ms", "ms", Median(p50s), true});
    e2e.push_back({"p90_ms", "ms", Median(p90s), true});
    e2e.push_back({"goodput_qps", "1/s", Median(goodputs), true});
    e2e.push_back({"peak_rss_mb", "MB", Median(rss), true});

    std::vector<Metric> detail;
    AddLatency("read", main.lat_ms[kReadClass], &detail);
    AddLatency("write", main.lat_ms[kWriteClass], &detail);
    AddLatency("scan", main.lat_ms[kScanClass], &detail);
    detail.push_back({"scan_qps", "1/s",
                      main.lat_ms[kScanClass].size() / main.seconds,
                      !main.lat_ms[kScanClass].empty()});
    detail.push_back({"fail_frac", "ratio",
                      static_cast<double>(main.failed()) / std::max<int64_t>(1, main.attempted),
                      true});
    detail.push_back({"gen_lag_p99_ms", "ms", TailPercentile(main.lag_ms, 99).first,
                      !main.lag_ms.empty()});
    std::printf("# window: %.2fs, %lld attempted: ok %lld shed %lld conflict %lld "
                "error %lld timeout %lld\n",
                main.seconds, static_cast<long long>(main.attempted),
                static_cast<long long>(main.ok), static_cast<long long>(main.shed),
                static_cast<long long>(main.conflict),
                static_cast<long long>(main.error),
                static_cast<long long>(main.timeout));
    std::printf("# end-to-end:\n");
    PrintReport(e2e);
    std::printf("# per-operation detail:\n");
    PrintReport(detail);
    if (!GeneratorKeptUp(cfg, main, "measured")) correct = false;
  } else {
    // Reference window without tracing, then the traced window.
    Tally plain = inst->gen->Run(kMainPhase, rate, T / 2, false);
    untraced_p50 = Percentile(plain.P50Sample(), 50);
    inst->child.Call("snap");
    main = inst->gen->Run(kTracedPhase, rate, T, true);
    child = inst->child.Call("end");
    attempted = plain.attempted + main.attempted;
    failed = plain.failed() + main.failed();
    inst->checker->CheckFinal(inst->conns[0].client.get());
    replay = inst->child.Call("replay", 600'000);
    WriteSpans(cfg, main);
    if (!GeneratorKeptUp(cfg, plain, "untraced reference") ||
        !GeneratorKeptUp(cfg, main, "traced"))
      correct = false;

    // The client's counts must reconcile with the server's.
    const double pending = child["raw.net_queries"] - child["raw.net_ok"] -
                           child["raw.net_errors"];
    std::printf("# reconcile: client attempted %lld ok %lld failed %lld | server "
                "queries %.0f ok %.0f errors %.0f pending %.0f\n",
                static_cast<long long>(main.attempted),
                static_cast<long long>(main.ok),
                static_cast<long long>(main.failed()), child["raw.net_queries"],
                child["raw.net_ok"], child["raw.net_errors"], pending);
    if (child["raw.net_queries"] != main.attempted ||
        child["raw.net_ok"] != main.ok ||
        child["raw.net_errors"] != main.shed + main.conflict + main.error ||
        pending != main.timeout) {
      std::fprintf(stderr, "CHECK FAILED: client and server counts disagree\n");
      correct = false;
    }

    const bool point = point_conns > 0;
    const double writes_ok = static_cast<double>(main.writes_ok);
    const double read_p50_us = Percentile(main.lat_ms[kReadClass], 50) * 1000;
    auto L = [&](const std::string& name, const std::string& unit, double v,
                 bool applicable) { layers.push_back({name, unit, v, applicable}); };
    auto C = [&](const std::string& key) { return child[key]; };
    auto R = [&](const std::string& key) { return replay[key]; };

    L("net.overhead_us.read", "us", read_p50_us - R("engine.submit_await_us.read"),
      point);
    for (const char* s : {"read", "write", "dispatch"})
      for (const char* f : {"wait_us", "service_us"}) {
        const std::string k = std::string("net.") + s + "." + f;
        L(k, "us", C(k), true);
      }
    L("net.shed_frac", "ratio", C("raw.net_shed") / std::max(1.0, C("raw.net_queries")),
      true);
    L("net.bytes_out_per_response", "bytes",
      C("raw.net_bytes_out") / std::max(1.0, C("raw.net_ok") + C("raw.net_errors")),
      true);
    for (const char* s : {"connect", "parse", "optimize", "execute", "disconnect"}) {
      const std::string k = std::string("server.") + s;
      L(k + ".replay_service_us", "us", R(k + ".replay_service_us"), true);
      L(k + ".pops", "count", C(k + ".pops"), true);
    }
    L("frontend.normalize_us", "us", R("frontend.normalize_us"), true);
    L("frontend.instantiate_us", "us", R("frontend.instantiate_us"), true);
    L("frontend.plan_cache.lookup_us", "us", R("frontend.plan_cache.lookup_us"), true);
    L("frontend.plan_cache.hit_rate", "ratio", C("frontend.plan_cache.hit_rate"),
      C("frontend.plan_cache.lookups") > 0);
    L("parser.parse_us", "us", R("parser.parse_us"), true);
    L("optimizer.plan_us", "us", R("optimizer.plan_us"), true);
    for (const char* s :
         {"execute", "fscan", "iscan", "qual", "sort", "join", "aggr", "dml"}) {
      const std::string k = std::string("engine.") + s;
      const bool ran = C(k + ".pops") > 0;
      L(k + ".wait_us", "us", C(k + ".wait_us"), ran);
      L(k + ".service_us", "us", C(k + ".service_us"), ran);
      L(k + ".pops", "count", C(k + ".pops"), true);
    }
    L("engine.stage_switches", "count", C("engine.stage_switches"), true);
    L("engine.submit_await_us.read", "us", R("engine.submit_await_us.read"), point);
    L("engine.submit_await_us.write", "us", R("engine.submit_await_us.write"), point);
    L("engine.submit_await_us.scan", "us", R("engine.submit_await_us.scan"), true);
    const bool commits = C("engine.commit.pops") > 0;
    L("engine.commit.commits_per_sync", "ratio", C("engine.commit.commits_per_sync"),
      commits);
    L("engine.commit.batch_size_mean", "count", C("engine.commit.batch_size_mean"),
      commits);
    L("engine.commit.flush_us_mean", "us", C("engine.commit.flush_us_mean"), commits);
    L("engine.commit.wait_us", "us", C("engine.commit.wait_us"), commits);
    L("engine.vacuum.passes", "count", C("engine.vacuum.passes"), true);
    L("engine.vacuum.versions_reclaimed", "count",
      C("engine.vacuum.versions_reclaimed"), true);
    L("engine.vacuum.service_us", "us", C("engine.vacuum.service_us"),
      C("engine.vacuum.pops") > 0);
    L("storage.buffer_pool.hit_rate", "ratio", C("storage.buffer_pool.hit_rate"),
      C("storage.buffer_pool.accesses") > 0);
    L("storage.wal.bytes_per_write", "bytes",
      writes_ok > 0 ? C("raw.wal_bytes") / writes_ok : C("raw.wal_bytes"), true);
    L("storage.wal.syncs_per_write", "ratio",
      writes_ok > 0 ? C("raw.wal_syncs") / writes_ok : C("raw.wal_syncs"), true);
    L("storage.mvcc.write_conflict_frac", "ratio",
      static_cast<double>(main.conflict) / std::max<int64_t>(1, main.write_attempts),
      main.write_attempts > 0);
    const double traced_p50 = Percentile(main.P50Sample(), 50);
    L("trace.overhead_ms", "ms", traced_p50 - untraced_p50, true);
    L("trace.overhead_frac", "ratio",
      untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0, true);

    // Bypass predictions: a workload must not touch a layer it was chosen
    // to bypass.
    // Only ad-hoc QUERY frames enter the lifecycle stages: each passes
    // connect, parse, execute and disconnect once (optimize on a plan-cache
    // miss only), and prepared EXECUTEs must add no visit at all.
    const double queries = static_cast<double>(main.ScanSpans());
    for (const char* s : {"connect", "parse", "optimize", "execute", "disconnect"}) {
      const double pops = C(std::string("server.") + s + ".pops");
      if (std::string(s) == "optimize" ? pops > queries : pops != queries) {
        std::fprintf(stderr, "BYPASS VIOLATED: lifecycle stage %s ran %.0f times "
                     "for %.0f ad-hoc queries\n", s, pops, queries);
        correct = false;
      }
    }
    if (cfg.workload == "olap_scan" &&
        (C("raw.wal_syncs") != 0 || C("raw.wal_bytes") != 0 || C("engine.dml.pops") != 0)) {
      std::fprintf(stderr, "BYPASS VIOLATED: olap_scan wrote the WAL or ran dml\n");
      correct = false;
    }
    std::printf("# traced window: %.2fs, %lld attempted; untraced p50 %.4f ms, "
                "traced p50 %.4f ms\n",
                main.seconds, static_cast<long long>(main.attempted), untraced_p50,
                traced_p50);
    std::printf("# per-layer:\n");
    PrintReport(layers);
  }

  if (inst->checker->failures() > 0) correct = false;
  inst->conns.clear();
  if (!inst->child.Stop()) {
    std::fprintf(stderr, "server child did not stop cleanly\n");
    correct = false;
  }
  PrintJson(correct, attempted, failed, cfg.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace bench

int main(int argc, char** argv) { return bench::Main(argc, argv); }
