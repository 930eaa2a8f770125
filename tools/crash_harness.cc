#include "tools/crash_harness.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "server/database.h"
#include "storage/disk_manager.h"

namespace stagedb::tools {
namespace {

// ----------------------------------------------------------- the journal ---
//
// The child's side channel to the parent: one fdatasync'd line per event.
//   S                      setup (CREATE TABLEs) acked
//   B <thread> <seq> <op> <k> <v>   about to execute the operation
//   A <thread> <seq>       Execute returned OK (commit acked)
//   F <thread> <seq>       Execute returned an error (rolled back)
// "B" is synced before the statement runs and "A" only after it returns, so
// an acked op is provably committed and a committed op provably has a "B".

class Journal {
 public:
  explicit Journal(const std::string& path) {
    fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  }
  ~Journal() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void Log(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string full = line + "\n";
    ssize_t n = ::write(fd_, full.data(), full.size());
    (void)n;
    ::fdatasync(fd_);
  }

 private:
  int fd_ = -1;
  std::mutex mu_;
};

struct JournalOp {
  int64_t seq = 0;
  char op = 'I';  // I / U / D
  int64_t k = 0;
  int64_t v = 0;
  bool acked = false;
  bool failed = false;
};

struct ParsedJournal {
  bool setup_done = false;
  std::map<int, std::vector<JournalOp>> per_thread;
};

bool ParseJournal(const std::string& path, ParsedJournal* out) {
  std::string contents;
  {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return true;  // no journal = child died before opening it
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      contents.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
  }
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof() && !contents.empty() && contents.back() != '\n') {
      break;  // torn final line: the child died mid-journal-write
    }
    std::istringstream ls(line);
    char tag;
    if (!(ls >> tag)) continue;
    if (tag == 'S') {
      out->setup_done = true;
      continue;
    }
    int thread;
    int64_t seq;
    if (!(ls >> thread >> seq)) return false;
    auto& ops = out->per_thread[thread];
    if (tag == 'B') {
      JournalOp op;
      op.seq = seq;
      if (!(ls >> op.op >> op.k >> op.v)) return false;
      ops.push_back(op);
    } else if (tag == 'A' || tag == 'F') {
      if (ops.empty() || ops.back().seq != seq) return false;
      (tag == 'A' ? ops.back().acked : ops.back().failed) = true;
    }
  }
  return true;
}

// --------------------------------------------------------------- the child --

struct IterationConfig {
  bool staged = false;
  bool group_commit = true;
  int max_batch = 64;
  int64_t max_wait_us = 200;
  bool fault_mode = false;                // arm the injector (else clean kill)
  storage::WriteFaultInjector::Fault fault =
      storage::WriteFaultInjector::Fault::kTornWrite;
  int64_t fault_after_appends = 0;
  int64_t kill_delay_ms = 0;              // clean mode: parent's SIGKILL delay
};

IterationConfig MakeConfig(Rng* rng, const CrashHarnessOptions& options,
                           int iteration) {
  IterationConfig cfg;
  cfg.staged = rng->Bernoulli(0.5);
  cfg.group_commit = rng->Bernoulli(0.75);
  cfg.max_batch = static_cast<int>(4 << rng->Uniform(4));  // 4..32
  cfg.max_wait_us = static_cast<int64_t>(50 << rng->Uniform(4));
  switch (options.mode) {
    case CrashHarnessOptions::Mode::kClean:
      cfg.fault_mode = false;
      break;
    case CrashHarnessOptions::Mode::kFault:
      cfg.fault_mode = true;
      break;
    case CrashHarnessOptions::Mode::kMix:
      cfg.fault_mode = (iteration % 2) == 1;
      break;
  }
  switch (rng->Uniform(3)) {
    case 0:
      cfg.fault = storage::WriteFaultInjector::Fault::kDropWrite;
      break;
    case 1:
      cfg.fault = storage::WriteFaultInjector::Fault::kShortWrite;
      break;
    default:
      cfg.fault = storage::WriteFaultInjector::Fault::kTornWrite;
  }
  // Roughly 3 appends per auto-commit op (BEGIN + record + COMMIT); aim the
  // fault into the first half of the run so it reliably lands mid-workload.
  const int64_t total_ops =
      static_cast<int64_t>(options.threads) * options.ops_per_thread;
  cfg.fault_after_appends =
      options.threads + 2 + static_cast<int64_t>(rng->Uniform(
                                static_cast<uint64_t>(3 * total_ops / 2 + 1)));
  cfg.kill_delay_ms = 2 + static_cast<int64_t>(rng->Uniform(60));
  return cfg;
}

/// Runs in the forked child; never returns.
[[noreturn]] void ChildMain(const CrashHarnessOptions& options,
                            const IterationConfig& cfg, uint64_t iter_seed,
                            const std::string& wal_path,
                            const std::string& journal_path) {
  Journal journal(journal_path);
  if (!journal.ok()) _exit(3);

  server::DatabaseOptions db_opts;
  db_opts.wal_path = wal_path;
  db_opts.mode = cfg.staged ? server::ExecutionMode::kStaged
                            : server::ExecutionMode::kVolcano;
  db_opts.group_commit = cfg.group_commit;
  db_opts.group_commit_max_batch = cfg.max_batch;
  db_opts.group_commit_max_wait_us = cfg.max_wait_us;
  auto db_or = server::Database::Open(db_opts);
  if (!db_or.ok()) _exit(3);
  auto db = std::move(*db_or);

  storage::WriteFaultInjector injector;
  if (cfg.fault_mode) {
    db->set_wal_fault_injector(&injector);
    injector.Arm(cfg.fault, cfg.fault_after_appends,
                 [] { ::raise(SIGKILL); });
  }

  for (int t = 0; t < options.threads; ++t) {
    auto r = db->Execute("CREATE TABLE t" + std::to_string(t) +
                         " (k INTEGER, v INTEGER)");
    if (!r.ok()) _exit(3);
  }
  journal.Log("S");

  std::vector<std::thread> workers;
  for (int t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(iter_seed * 1000 + static_cast<uint64_t>(t));
      const std::string table = "t" + std::to_string(t);
      for (int64_t seq = 0; seq < options.ops_per_thread; ++seq) {
        char op;
        int64_t k, v = rng.UniformRange(0, 1 << 20);
        const uint64_t dice = rng.Uniform(10);
        if (dice < 4) {
          op = 'I';
          k = seq;  // fresh key: at most one row per key, ever
        } else {
          op = dice < 7 ? 'U' : 'D';
          k = static_cast<int64_t>(rng.Uniform(seq + 1));
        }
        const std::string id =
            std::to_string(t) + " " + std::to_string(seq);
        journal.Log("B " + id + " " + op + " " + std::to_string(k) + " " +
                    std::to_string(v));
        std::string sql;
        if (op == 'I') {
          sql = "INSERT INTO " + table + " VALUES (" + std::to_string(k) +
                ", " + std::to_string(v) + ")";
        } else if (op == 'U') {
          sql = "UPDATE " + table + " SET v = " + std::to_string(v) +
                " WHERE k = " + std::to_string(k);
        } else {
          sql = "DELETE FROM " + table + " WHERE k = " + std::to_string(k);
        }
        auto r = db->Execute(sql);
        if (r.ok()) {
          journal.Log("A " + id);
        } else {
          // The WAL device died under us (armed fault without SIGKILL
          // racing in yet): record the rollback and stop.
          journal.Log("F " + id);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  db.reset();  // drain the commit stage; a clean kill may land here too
  _exit(0);
}

// ----------------------------------------------------------- verification --

std::string PairsToString(const std::vector<std::pair<int64_t, int64_t>>& v) {
  std::string s = "{";
  size_t shown = 0;
  for (const auto& [k, val] : v) {
    if (shown++ > 8) {
      s += " ...";
      break;
    }
    s += " (" + std::to_string(k) + "," + std::to_string(val) + ")";
  }
  return s + " }";
}

void ApplyOp(std::map<int64_t, int64_t>* shadow, const JournalOp& op) {
  switch (op.op) {
    case 'I':
      (*shadow)[op.k] = op.v;
      break;
    case 'U':
      if (shadow->count(op.k)) (*shadow)[op.k] = op.v;
      break;
    case 'D':
      shadow->erase(op.k);
      break;
  }
}

std::vector<std::pair<int64_t, int64_t>> Flatten(
    const std::map<int64_t, int64_t>& m) {
  return {m.begin(), m.end()};
}

/// Diffs one table against the journal-derived shadow. Returns empty on
/// success, else a description of the divergence.
std::string VerifyThread(server::Database* db, int thread,
                         const std::vector<JournalOp>& ops, bool setup_done) {
  // Split acked prefix semantics: every acked op must be applied; the single
  // trailing op with neither ack nor failure (the op in flight at the kill)
  // may or may not be.
  std::map<int64_t, int64_t> shadow;
  const JournalOp* grey = nullptr;
  for (const auto& op : ops) {
    if (grey != nullptr) {
      return "journal has operations after an unresolved one (seq " +
             std::to_string(grey->seq) + ")";
    }
    if (op.acked) {
      ApplyOp(&shadow, op);
    } else if (!op.failed) {
      grey = &op;
    }
  }

  auto result = db->Execute("SELECT * FROM t" + std::to_string(thread));
  if (!result.ok()) {
    if (setup_done) {
      return "table t" + std::to_string(thread) +
             " missing after setup was acked: " + result.status().ToString();
    }
    return ops.empty() ? ""
                       : "table missing but the journal has operations";
  }
  std::vector<std::pair<int64_t, int64_t>> actual;
  for (const auto& tuple : result->rows) {
    if (tuple.size() != 2 || tuple[0].is_null() || tuple[1].is_null()) {
      return "malformed row in t" + std::to_string(thread);
    }
    actual.emplace_back(tuple[0].int_value(), tuple[1].int_value());
  }
  std::sort(actual.begin(), actual.end());

  const auto expected = Flatten(shadow);
  if (actual == expected) return "";
  if (grey != nullptr) {
    ApplyOp(&shadow, *grey);
    if (actual == Flatten(shadow)) return "";
  }
  return "t" + std::to_string(thread) + " diverged: recovered " +
         std::to_string(actual.size()) + " row(s) " + PairsToString(actual) +
         " vs shadow " + std::to_string(expected.size()) + " row(s) " +
         PairsToString(expected) +
         (grey ? " (grey op seq " + std::to_string(grey->seq) + ")" : "");
}

bool RunIteration(const CrashHarnessOptions& options, int iteration,
                  const std::string& wal_path,
                  const std::string& journal_path) {
  const uint64_t iter_seed = options.seed + static_cast<uint64_t>(iteration);
  Rng rng(iter_seed);
  const IterationConfig cfg = MakeConfig(&rng, options, iteration);
  std::remove(wal_path.c_str());
  std::remove(journal_path.c_str());

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "[crash_harness] fork failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    ChildMain(options, cfg, iter_seed, wal_path, journal_path);
  }

  int wstatus = 0;
  bool reaped = false;
  if (!cfg.fault_mode) {
    // Let the child get through setup (the journal's "S" line) so the kill
    // lands mid-workload, not mid-CREATE; a hung child is killed regardless.
    for (int spin = 0; spin < 5000 && !reaped; ++spin) {
      ParsedJournal probe;
      if (ParseJournal(journal_path, &probe) && probe.setup_done) break;
      reaped = ::waitpid(pid, &wstatus, WNOHANG) == pid;  // already gone?
      if (!reaped) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!reaped) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg.kill_delay_ms));
      ::kill(pid, SIGKILL);
    }
  }
  if (!reaped) ::waitpid(pid, &wstatus, 0);
  const bool killed = WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  const bool finished = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  if (!killed && !finished) {
    std::fprintf(stderr,
                 "[crash_harness] iter %d (seed %llu): child failed "
                 "(wstatus %d)\n",
                 iteration, static_cast<unsigned long long>(iter_seed),
                 wstatus);
    return false;
  }

  ParsedJournal journal;
  if (!ParseJournal(journal_path, &journal)) {
    std::fprintf(stderr,
                 "[crash_harness] iter %d (seed %llu): corrupt journal\n",
                 iteration, static_cast<unsigned long long>(iter_seed));
    return false;
  }

  server::DatabaseOptions ro;
  ro.wal_path = wal_path;
  auto db = server::Database::Open(ro);
  if (!db.ok()) {
    std::fprintf(stderr,
                 "[crash_harness] iter %d (seed %llu): recovery failed: %s\n",
                 iteration, static_cast<unsigned long long>(iter_seed),
                 db.status().ToString().c_str());
    return false;
  }

  bool ok = true;
  // Every acked insert committed with its own commit timestamp, so the
  // recovered high-water mark must cover at least that many commits;
  // otherwise a snapshot taken now could miss acked rows.
  int64_t acked_inserts = 0;
  for (const auto& [t, ops] : journal.per_thread) {
    for (const auto& op : ops) acked_inserts += op.acked && op.op == 'I';
  }
  const int64_t high_water = (*db)->txn_manager()->last_committed();
  if (high_water < acked_inserts) {
    std::fprintf(stderr,
                 "[crash_harness] iter %d (seed %llu): recovered commit "
                 "high-water %lld below acked insert count %lld\n",
                 iteration, static_cast<unsigned long long>(iter_seed),
                 static_cast<long long>(high_water),
                 static_cast<long long>(acked_inserts));
    ok = false;
  }
  for (int t = 0; t < options.threads; ++t) {
    auto it = journal.per_thread.find(t);
    static const std::vector<JournalOp> kNoOps;
    const auto& ops = it == journal.per_thread.end() ? kNoOps : it->second;
    const std::string err =
        VerifyThread(db->get(), t, ops, journal.setup_done);
    if (!err.empty()) {
      std::fprintf(stderr, "[crash_harness] iter %d (seed %llu): %s\n",
                   iteration, static_cast<unsigned long long>(iter_seed),
                   err.c_str());
      ok = false;
    }
  }
  if (options.verbose || !ok) {
    int64_t acked = 0, total = 0;
    for (const auto& [t, ops] : journal.per_thread) {
      total += static_cast<int64_t>(ops.size());
      for (const auto& op : ops) acked += op.acked;
    }
    std::fprintf(
        stderr,
        "[crash_harness] iter %d seed=%llu mode=%s engine=%s "
        "group_commit=%d child=%s ops=%lld acked=%lld tail=%lld "
        "-> %s\n",
        iteration, static_cast<unsigned long long>(iter_seed),
        cfg.fault_mode ? "fault" : "clean", cfg.staged ? "staged" : "volcano",
        cfg.group_commit ? 1 : 0,
        finished ? "finished" : "killed",
        static_cast<long long>(total), static_cast<long long>(acked),
        static_cast<long long>((*db)->wal()->truncated_tail_bytes()),
        ok ? "OK" : "FAIL");
  }
  return ok;
}

}  // namespace

int RunCrashHarness(const CrashHarnessOptions& options) {
  std::string dir = options.dir;
  if (dir.empty()) {
    dir = "/tmp/stagedb_crash_harness_" + std::to_string(::getpid());
  }
  ::mkdir(dir.c_str(), 0755);

  int failures = 0;
  for (int i = 0; i < options.iterations; ++i) {
    const std::string wal = dir + "/iter" + std::to_string(i) + ".wal";
    const std::string journal =
        dir + "/iter" + std::to_string(i) + ".journal";
    if (RunIteration(options, i, wal, journal)) {
      std::remove(wal.c_str());
      std::remove(journal.c_str());
    } else {
      ++failures;
      std::fprintf(stderr,
                   "[crash_harness] artifacts kept: %s %s (replay with "
                   "--seed %llu --iterations 1)\n",
                   wal.c_str(), journal.c_str(),
                   static_cast<unsigned long long>(options.seed +
                                                   static_cast<uint64_t>(i)));
    }
  }
  ::rmdir(dir.c_str());  // succeeds only if everything passed and was removed
  return failures;
}

bool ParseCrashHarnessArgs(int argc, char** argv,
                           CrashHarnessOptions* options) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--iterations N] [--seed N] [--dir PATH] "
                 "[--mode clean|fault|mix] [--threads N] [--ops N] "
                 "[--verbose]\n",
                 argv[0]);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--verbose" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--iterations") {
      options->iterations = std::atoi(value.c_str());
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--dir") {
      options->dir = value;
    } else if (arg == "--mode") {
      if (value == "clean") {
        options->mode = CrashHarnessOptions::Mode::kClean;
      } else if (value == "fault") {
        options->mode = CrashHarnessOptions::Mode::kFault;
      } else if (value == "mix") {
        options->mode = CrashHarnessOptions::Mode::kMix;
      } else {
        return usage();
      }
    } else if (arg == "--threads") {
      options->threads = std::atoi(value.c_str());
    } else if (arg == "--ops") {
      options->ops_per_thread = std::atoi(value.c_str());
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      return usage();
    }
  }
  return true;
}

}  // namespace stagedb::tools
