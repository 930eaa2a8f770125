#include "child.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <sstream>

#include "engine/vacuum_stage.h"
#include "frontend/normalizer.h"
#include "frontend/plan_cache.h"
#include "net/net_server.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "server/database.h"
#include "server/server.h"
#include "storage/buffer_pool.h"
#include "workload/wisconsin.h"

namespace bench {
namespace {

using stagedb::catalog::Value;
using stagedb::server::Database;

void Reply(int fd, const std::string& text) {
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) _exit(4);  // parent gone
    off += static_cast<size_t>(n);
  }
}

/// Reads one command line; empty on EOF.
std::string ReadCommand(int fd) {
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return "";
}

std::string Kv(const std::string& key, double value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.9g\n", key.c_str(), value);
  return buf;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------- snapshots

struct StageSample {
  int64_t pops = 0;
  double wait_n = 0, wait_sum = 0, svc_n = 0, svc_sum = 0;
};

/// Everything the window deltas are computed from, read only through the
/// server's public accessors.
struct Snapshot {
  std::map<std::string, StageSample> engine;
  int64_t stage_switches = 0;
  int64_t gc_commits = 0, gc_syncs = 0;
  double gc_batch_n = 0, gc_batch_sum = 0, gc_flush_n = 0, gc_flush_sum = 0;
  stagedb::frontend::PlanCacheStats cache;
  int64_t bp_hits = 0, bp_misses = 0;
  int64_t wal_syncs = 0, wal_records = 0, wal_bytes = 0;
  int64_t vac_passes = 0, vac_reclaimed = 0;
  stagedb::net::NetServer::Stats net;
  // NetServer::StatsReport exposes the network stage rows as cumulative
  // p50s and the lifecycle stages as processed counts only.
  std::map<std::string, double> net_wait_p50, net_svc_p50;
  std::map<std::string, int64_t> lifecycle_processed;
};

double Field(const std::string& line, const std::string& name) {
  size_t pos = line.find(" " + name + "=");
  if (pos == std::string::npos) return 0;
  return std::strtod(line.c_str() + pos + name.size() + 2, nullptr);
}

void ParseReport(const std::string& report, Snapshot* s) {
  std::istringstream in(report);
  std::string line;
  int section = 0;  // 1 = network stages, 2 = sql pipeline
  while (std::getline(in, line)) {
    if (line.rfind("-- network stages", 0) == 0) { section = 1; continue; }
    if (line.rfind("-- sql pipeline", 0) == 0) { section = 2; continue; }
    if (line.size() < 3 || line[0] != ' ' || line[1] != ' ') continue;
    std::istringstream words(line);
    std::string name;
    words >> name;
    if (section == 1 && line.find("workers=") != std::string::npos) {
      s->net_wait_p50[name] = Field(line, "wait_p50");
      s->net_svc_p50[name] = Field(line, "svc_p50");
    } else if (section == 2 && line.find("processed=") != std::string::npos) {
      s->lifecycle_processed[name] =
          static_cast<int64_t>(Field(line, "processed"));
    }
  }
}

Snapshot Take(Database* db, stagedb::net::NetServer* srv,
              const std::string& wal_path) {
  Snapshot s;
  auto es = db->EngineStats();
  for (const auto& st : es.stages) {
    StageSample& x = s.engine[st.name];
    x.pops = st.pops;
    x.wait_n = static_cast<double>(st.wait_micros.count());
    x.wait_sum = st.wait_micros.sum();
    x.svc_n = static_cast<double>(st.service_micros.count());
    x.svc_sum = st.service_micros.sum();
  }
  s.stage_switches = es.stage_switches;
  s.gc_commits = es.group_commit.commits;
  s.gc_syncs = es.group_commit.syncs;
  s.gc_batch_n = static_cast<double>(es.group_commit.batch_size.count());
  s.gc_batch_sum = es.group_commit.batch_size.sum();
  s.gc_flush_n = static_cast<double>(es.group_commit.flush_micros.count());
  s.gc_flush_sum = es.group_commit.flush_micros.sum();
  s.cache = db->CacheStats();
  s.bp_hits = db->buffer_pool()->hits();
  s.bp_misses = db->buffer_pool()->misses();
  s.wal_syncs = db->wal()->syncs();
  s.wal_records = db->wal()->num_records();
  s.wal_bytes = FileSize(wal_path);
  if (auto* vac = db->vacuum_stage()) {
    s.vac_passes = vac->passes();
    s.vac_reclaimed = vac->versions_reclaimed();
  }
  s.net = srv->GetStats();
  ParseReport(srv->StatsReport(), &s);
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Deltas(const Snapshot& a, const Snapshot& b) {
  std::string out;
  // Per-table scan stages ("fscan.<table>") count as the fscan layer.
  auto sum = [](const Snapshot& s, const std::string& name) {
    StageSample t;
    for (const auto& [stage, x] : s.engine) {
      if (stage != name && stage.rfind(name + ".", 0) != 0) continue;
      t.pops += x.pops;
      t.wait_n += x.wait_n;
      t.wait_sum += x.wait_sum;
      t.svc_n += x.svc_n;
      t.svc_sum += x.svc_sum;
    }
    return t;
  };
  auto stage = [&](const std::string& prefix, const std::string& name) {
    const StageSample x = sum(a, name), y = sum(b, name);
    out += Kv(prefix + ".pops", static_cast<double>(y.pops - x.pops));
    out += Kv(prefix + ".wait_us",
              Ratio(y.wait_sum - x.wait_sum, y.wait_n - x.wait_n));
    out += Kv(prefix + ".service_us",
              Ratio(y.svc_sum - x.svc_sum, y.svc_n - x.svc_n));
  };
  for (const char* name :
       {"execute", "fscan", "iscan", "qual", "sort", "join", "aggr", "dml"})
    stage(std::string("engine.") + name, name);
  out += Kv("engine.stage_switches",
            static_cast<double>(b.stage_switches - a.stage_switches));

  stage("engine.commit", "commit");
  out += Kv("engine.commit.commits_per_sync",
            Ratio(static_cast<double>(b.gc_commits - a.gc_commits),
                  static_cast<double>(b.gc_syncs - a.gc_syncs)));
  out += Kv("engine.commit.batch_size_mean",
            Ratio(b.gc_batch_sum - a.gc_batch_sum, b.gc_batch_n - a.gc_batch_n));
  out += Kv("engine.commit.flush_us_mean",
            Ratio(b.gc_flush_sum - a.gc_flush_sum, b.gc_flush_n - a.gc_flush_n));
  stage("engine.vacuum", "vacuum");
  out += Kv("engine.vacuum.passes",
            static_cast<double>(b.vac_passes - a.vac_passes));
  out += Kv("engine.vacuum.versions_reclaimed",
            static_cast<double>(b.vac_reclaimed - a.vac_reclaimed));

  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double lookups =
      hits + static_cast<double>(b.cache.misses - a.cache.misses) +
      static_cast<double>(b.cache.invalidations - a.cache.invalidations);
  out += Kv("frontend.plan_cache.lookups", lookups);
  out += Kv("frontend.plan_cache.hit_rate", Ratio(hits, lookups));

  const double bp_hits = static_cast<double>(b.bp_hits - a.bp_hits);
  const double bp_all = bp_hits + static_cast<double>(b.bp_misses - a.bp_misses);
  out += Kv("storage.buffer_pool.accesses", bp_all);
  out += Kv("storage.buffer_pool.hit_rate", Ratio(bp_hits, bp_all));
  out += Kv("raw.wal_syncs", static_cast<double>(b.wal_syncs - a.wal_syncs));
  out += Kv("raw.wal_records",
            static_cast<double>(b.wal_records - a.wal_records));
  out += Kv("raw.wal_bytes", static_cast<double>(b.wal_bytes - a.wal_bytes));

  out += Kv("raw.net_queries", static_cast<double>(b.net.queries - a.net.queries));
  out += Kv("raw.net_ok",
            static_cast<double>(b.net.ok_responses - a.net.ok_responses));
  out += Kv("raw.net_errors",
            static_cast<double>(b.net.error_responses - a.net.error_responses));
  out += Kv("raw.net_shed",
            static_cast<double>(b.net.shed_queries - a.net.shed_queries));
  out += Kv("raw.net_bytes_out",
            static_cast<double>(b.net.bytes_out - a.net.bytes_out));
  for (const char* name : {"read", "write", "dispatch"}) {
    auto get = [](const std::map<std::string, double>& m, const char* k) {
      auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    out += Kv(std::string("net.") + name + ".wait_us", get(b.net_wait_p50, name));
    out += Kv(std::string("net.") + name + ".service_us",
              get(b.net_svc_p50, name));
  }
  for (const char* name :
       {"connect", "parse", "optimize", "execute", "disconnect"}) {
    auto get = [](const std::map<std::string, int64_t>& m, const char* k) {
      auto it = m.find(k);
      return it == m.end() ? int64_t{0} : it->second;
    };
    out += Kv(std::string("server.") + name + ".pops",
              static_cast<double>(get(b.lifecycle_processed, name) -
                                  get(a.lifecycle_processed, name)));
  }
  return out;
}

// ---------------------------------------------------------------- set-up

std::string LoadPointTable(const Config& cfg, Database* db) {
  const std::string table = kPointTable;
  const int64_t rows = TableRows(cfg);
  auto r = db->Execute("CREATE TABLE " + table +
                       " (id INTEGER, v INTEGER, pad VARCHAR(40))");
  if (!r.ok()) return r.status().ToString();
  constexpr int64_t kBatch = 500;
  for (int64_t base = 0; base < rows; base += kBatch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int64_t id = base; id < std::min(rows, base + kBatch); ++id) {
      if (id > base) sql += ", ";
      sql += "(" + std::to_string(id) + ", 0, 'pad-" + std::to_string(id % 1000) +
             "-xxxxxxxxxxxxxxxxxxxxxxxx')";
    }
    r = db->Execute(sql);
    if (!r.ok()) return r.status().ToString();
  }
  r = db->Execute("CREATE INDEX " + table + "_id ON " + table + " (id)");
  if (!r.ok()) return r.status().ToString();
  return "";
}

std::string LoadWisconsin(const Config& cfg, Database* db) {
  const int64_t rows = TableRows(cfg);
  const int64_t pool = cfg.I("buffer_pool_pages");
  int i = 0;
  for (const char* name : {"wa", "wb"}) {
    const int64_t before = db->disk()->num_pages();
    auto t = stagedb::workload::CreateWisconsinTable(
        db->catalog(), name, rows, WisconsinSeed(cfg.seed, i++));
    if (!t.ok()) return t.status().ToString();
    const int64_t pages = db->disk()->num_pages() - before;
    if (pages < 2 * pool)
      return std::string("table ") + name + " has " + std::to_string(pages) +
             " pages, under twice the buffer pool";
  }
  return "";
}

// ---------------------------------------------------------------- replay

/// Literal SQL text of a point op (the form the normalizer sees ad hoc).
std::string PointLiteral(const Request& r) {
  const std::string table = kPointTable;
  return r.op == Op::kRead
             ? "SELECT id, v FROM " + table + " WHERE id = " + std::to_string(r.key)
             : "UPDATE " + table + " SET v = v + 1 WHERE id = " + std::to_string(r.key);
}

/// Times each public entry point of the pipeline for a sample of the
/// generated statements, in pipeline order. Runs after the final wire checks
/// (its writes change the data).
std::string Replay(const Config& cfg, Database* db) {
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  std::map<std::string, std::vector<double>> t;

  std::vector<Request> sample;
  const int64_t rows = TableRows(cfg);
  if (IsHtap(cfg)) {
    PointStream ps(cfg.seed, 0, 0, 1000.0, rows, cfg.D("read_frac"));
    for (int i = 0; i < cfg.I("replay_points"); ++i) sample.push_back(ps.Next());
  }
  ScanStream ss(cfg.seed, 0, 0, rows, IsHtap(cfg));
  for (int i = 0; i < cfg.I("replay_scans"); ++i) sample.push_back(ss.Next());

  std::map<Op, std::shared_ptr<stagedb::server::PreparedStatement>> prepared;
  for (Op op : {Op::kRead, Op::kUpdate}) {
    if (!IsHtap(cfg)) break;
    auto p = db->Prepare(PointSql(op));
    if (!p.ok()) return "error " + p.status().ToString() + "\n";
    prepared[op] = *p;
  }
  stagedb::optimizer::Planner planner(db->catalog(), db->options().planner);
  for (const Request& r : sample) {
    const std::string sql = r.op == Op::kScan ? r.sql : PointLiteral(r);
    auto t0 = Clock::now();
    auto norm = stagedb::frontend::Normalize(sql);
    auto t1 = Clock::now();
    if (!norm.ok()) return "error " + norm.status().ToString() + "\n";
    auto hit = db->plan_cache()->Lookup(norm->key, db->catalog()->version());
    auto t2 = Clock::now();
    auto stmt = stagedb::parser::ParseStatement(sql, db->catalog()->symbols());
    auto t3 = Clock::now();
    if (!stmt.ok()) return "error " + stmt.status().ToString() + "\n";
    auto fresh = planner.Plan(**stmt);
    auto t4 = Clock::now();
    if (!fresh.ok()) return "error " + fresh.status().ToString() + "\n";
    auto cached = hit != nullptr ? hit : db->GetOrPlanCached(*norm);
    if (!cached.ok()) return "error " + cached.status().ToString() + "\n";
    const auto tmpl = *cached;
    auto t5 = Clock::now();
    auto plan = stagedb::frontend::InstantiatePlan(*tmpl->plan, norm->params);
    auto t6 = Clock::now();
    if (!plan.ok()) return "error " + plan.status().ToString() + "\n";
    t["frontend.normalize_us"].push_back(us(t0, t1));
    t["frontend.plan_cache.lookup_us"].push_back(us(t1, t2));
    t["parser.parse_us"].push_back(us(t2, t3));
    t["optimizer.plan_us"].push_back(us(t3, t4));
    t["frontend.instantiate_us"].push_back(us(t5, t6));

    // The submit path the wire takes: prepared EXECUTEs for point ops,
    // instantiated plans for ad-hoc queries.
    auto s0 = Clock::now();
    auto pending = r.op == Op::kScan
                       ? db->SubmitPlanned(plan->get())
                       : db->SubmitPrepared(*prepared[r.op], {Value::Int(r.key)});
    if (!pending.ok()) return "error " + pending.status().ToString() + "\n";
    auto result = (*pending)->Await();
    auto s1 = Clock::now();
    if (!result.ok()) return "error " + result.status().ToString() + "\n";
    const char* cls = r.op == Op::kScan ? "scan" : IsWrite(r.op) ? "write" : "read";
    t[std::string("engine.submit_await_us.") + cls].push_back(us(s0, s1));
  }

  std::string out;
  for (auto& [key, values] : t) out += Kv(key, Median(values));

  // Lifecycle stage service times: the same ad-hoc queries through an
  // otherwise idle StagedServer (the wire's QUERY path), read back from its
  // runtime's stage rows. Its queues are empty, so only service time is
  // reported; queueing under load is not visible here.
  stagedb::server::StagedServer srv(db);
  for (const Request& r : sample) {
    if (r.op != Op::kScan) continue;
    auto res = srv.Submit(r.sql)->Await();
    if (!res.ok()) return "error " + res.status().ToString() + "\n";
  }
  for (const auto& st : srv.runtime().Stats().stages)
    out += Kv("server." + st.name + ".replay_service_us", st.service_micros.Mean());
  return out;
}

}  // namespace

int64_t TableRows(const Config& cfg) { return cfg.I("rows"); }

void ChildMain(const Config& cfg, int cmd_fd, int resp_fd) {
  signal(SIGPIPE, SIG_IGN);
  const std::string wal_path =
      cfg.work_dir + "/wal-" + std::to_string(::getpid()) + ".log";
  ::unlink(wal_path.c_str());

  stagedb::server::DatabaseOptions options;
  options.mode = stagedb::server::ExecutionMode::kStaged;
  options.concurrency = stagedb::server::ConcurrencyMode::kSnapshot;
  options.wal_path = wal_path;
  options.buffer_pool_pages = static_cast<size_t>(cfg.I("buffer_pool_pages"));
  auto db = Database::Open(options);
  if (!db.ok()) {
    Reply(resp_fd, "fail open: " + db.status().ToString() + "\n");
    _exit(3);
  }
  std::string err = IsHtap(cfg) ? LoadPointTable(cfg, db->get())
                                : LoadWisconsin(cfg, db->get());
  if (!err.empty()) {
    Reply(resp_fd, "fail load: " + err + "\n");
    _exit(3);
  }
  stagedb::net::NetServerOptions net_options;
  net_options.port = 0;
  auto srv = stagedb::net::NetServer::Start(db->get(), net_options);
  if (!srv.ok()) {
    Reply(resp_fd, "fail listen: " + srv.status().ToString() + "\n");
    _exit(3);
  }
  Reply(resp_fd, "ready " + std::to_string((*srv)->port()) + "\n");

  Snapshot start;
  while (true) {
    const std::string cmd = ReadCommand(cmd_fd);
    if (cmd == "snap") {
      start = Take(db->get(), srv->get(), wal_path);
      Reply(resp_fd, "ok\n");
    } else if (cmd == "end") {
      Snapshot end = Take(db->get(), srv->get(), wal_path);
      Reply(resp_fd, Deltas(start, end) + "done\n");
    } else if (cmd == "replay") {
      Reply(resp_fd, Replay(cfg, db->get()) + "done\n");
    } else {  // "quit" or EOF
      break;
    }
  }
  (*srv)->Stop(2000);
  srv->reset();
  db->reset();
  ::unlink(wal_path.c_str());
  _exit(0);
}

}  // namespace bench
