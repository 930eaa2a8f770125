// Ablation: MVCC snapshot reads vs table locks (analytics never block DML).
//
// The workload is a pair-integrity invariant: table acct holds two rows per
// pair_id whose v columns are bumped together by a single-statement
//   UPDATE acct SET v = v + 1 WHERE pair_id = <p>
// so any reader with a consistent view must see the two rows equal. Writer
// threads hammer their own pair ranges while analytics threads run
// full-table scans, checking every pair and timing every scan. The sweep is
// writer concurrency {1, 4, 8} x {lock, snap}. Both cells run the default
// (snapshot-isolated) database. The lock cell is the blocking baseline: the
// bench wraps every Execute in a table lock of its own (shared for a scan,
// exclusive for an update), so the scan queues behind every writer. The snap
// cell takes no bench lock; the scan reads a registered snapshot and never
// waits.
//
// Correctness gates (CI fails on a nonzero value, see bench_compare.py):
//   * scan_anomaly_count - torn pairs observed by any concurrent scan
//     (unequal v within a pair, or a pair missing/duplicated rows). Zero in
//     BOTH cells: locks serialize, snapshots isolate.
//   * post_vacuum_mismatches - after the writers drain and VacuumNow()
//     reclaims dead versions, every pair must read back exactly
//     ops_per_writer / pairs_per_writer; anything else means a lost or
//     double-applied update.
//   * execute_errors - statements that failed outright, including bench lock
//     timeouts (configured generously; MVCC writers never conflict across
//     pairs).
//   * snapshot_latency_failures - 1 if at the highest writer tier the
//     snapshot-mode scan p99 is not at least 2x better than the lock-mode
//     p99 (the "analytics never block DML" claim, stated as p99_snapshot
//     <= 0.5 * p99_lock).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "server/database.h"
#include "storage/txn.h"

namespace stagedb {
namespace {

constexpr int kPairsPerWriter = 8;
constexpr int kReaderThreads = 2;
// The lock cell's one lock-table key: every statement touches only acct.
constexpr int32_t kAcctLock = 0;

struct CellResult {
  int64_t scans = 0;
  int64_t updates = 0;
  double scan_p50_us = 0;
  double scan_p99_us = 0;
  double wall_ms = 0;
  int64_t anomalies = 0;
  int64_t post_mismatches = 0;
  int64_t errors = 0;
  int64_t reclaimed = 0;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v->size()));
  return (*v)[std::min(idx, v->size() - 1)];
}

/// The lock cell's blocking baseline: each Execute holds the bench's table
/// lock for its whole duration. storage::LockManager, not a shared_mutex:
/// its writer preference keeps a stream of overlapping scans from starving
/// the updates. Disabled (the snap cell), it runs the statement bare.
class StatementLocks {
 public:
  explicit StatementLocks(bool enabled) {
    // A 30 s timeout: the cell measures contention, not failure.
    if (enabled) locks_ = std::make_unique<storage::LockManager>(30'000'000);
  }

  StatusOr<server::QueryResult> Execute(server::Database* db,
                                        const std::string& sql,
                                        bool exclusive) {
    if (locks_ == nullptr) return db->Execute(sql);
    const int64_t owner = next_owner_.fetch_add(1);
    const Status acquired = exclusive
                                ? locks_->AcquireExclusive(owner, kAcctLock)
                                : locks_->AcquireShared(owner, kAcctLock);
    if (!acquired.ok()) return acquired;
    auto result = db->Execute(sql);
    locks_->ReleaseAll(owner);
    return result;
  }

 private:
  std::unique_ptr<storage::LockManager> locks_;
  std::atomic<int64_t> next_owner_{1};
};

/// One full-table scan; returns false on an execution error. Adds to
/// `anomalies` for every pair that is torn (rows unequal or not exactly 2).
bool ScanOnce(server::Database* db, StatementLocks* locks,
              int64_t* anomalies) {
  auto result = locks->Execute(db, "SELECT pair_id, v FROM acct",
                               /*exclusive=*/false);
  if (!result.ok()) return false;
  // pair_id -> (row count, first v seen, torn?)
  std::map<int64_t, std::pair<int64_t, int64_t>> pairs;  // count, v
  int64_t torn = 0;
  for (const auto& row : result->rows) {
    const int64_t p = row[0].int_value();
    const int64_t v = row[1].int_value();
    auto [it, fresh] = pairs.emplace(p, std::make_pair(int64_t{1}, v));
    if (!fresh) {
      ++it->second.first;
      if (it->second.second != v) ++torn;
    }
  }
  for (const auto& [p, cv] : pairs) {
    if (cv.first != 2) ++torn;
  }
  *anomalies += torn;
  return true;
}

CellResult RunCell(bool lock, int writers, int ops_per_writer) {
  server::DatabaseOptions opts;
  opts.mode = server::ExecutionMode::kStaged;
  opts.vacuum_dead_threshold = 64;
  auto db_or = server::Database::Open(opts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    std::exit(1);
  }
  auto db = std::move(*db_or);

  CellResult cell;
  StatementLocks locks(lock);
  const int pairs = writers * kPairsPerWriter;
  {
    auto r = db->Execute("CREATE TABLE acct (pair_id INTEGER, v INTEGER)");
    if (!r.ok()) std::exit(1);
    for (int p = 0; p < pairs; ++p) {
      for (int slot = 0; slot < 2; ++slot) {
        auto ins = db->Execute("INSERT INTO acct VALUES (" +
                               std::to_string(p) + ", 0)");
        if (!ins.ok()) std::exit(1);
      }
    }
  }

  std::atomic<bool> done{false};
  std::atomic<int64_t> errors{0};
  std::vector<int64_t> reader_anomalies(kReaderThreads, 0);
  std::vector<int64_t> reader_scans(kReaderThreads, 0);
  std::vector<std::vector<double>> latencies(kReaderThreads);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      // Each writer owns its own pair range: contention is reader-vs-writer
      // (the claim under test), not writer-vs-writer retries.
      const int base = t * kPairsPerWriter;
      for (int i = 0; i < ops_per_writer; ++i) {
        const int p = base + i % kPairsPerWriter;
        auto r = locks.Execute(
            db.get(),
            "UPDATE acct SET v = v + 1 WHERE pair_id = " + std::to_string(p),
            /*exclusive=*/true);
        if (!r.ok()) errors.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaderThreads; ++t) {
    threads.emplace_back([&, t] {
      while (true) {
        const bool last = done.load(std::memory_order_acquire);
        const auto start = std::chrono::steady_clock::now();
        if (!ScanOnce(db.get(), &locks, &reader_anomalies[t])) {
          errors.fetch_add(1);
        } else {
          const auto end = std::chrono::steady_clock::now();
          latencies[t].push_back(
              std::chrono::duration<double, std::micro>(end - start)
                  .count());
          ++reader_scans[t];
        }
        if (last) break;  // one final scan after the writers drained
      }
    });
  }
  for (int t = 0; t < writers; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (size_t t = writers; t < threads.size(); ++t) threads[t].join();
  const auto wall_end = std::chrono::steady_clock::now();

  cell.updates = static_cast<int64_t>(writers) * ops_per_writer;
  for (int t = 0; t < kReaderThreads; ++t) {
    cell.scans += reader_scans[t];
    cell.anomalies += reader_anomalies[t];
  }
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  cell.scan_p50_us = Percentile(&all, 0.50);
  cell.scan_p99_us = Percentile(&all, 0.99);
  cell.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  cell.errors = errors.load();

  // Quiesced verification: reclaim every dead version (both cells run on
  // versioned storage), then require each pair to read back exactly the
  // number of updates its writer applied.
  auto reclaimed = db->VacuumNow();
  if (reclaimed.ok()) cell.reclaimed = *reclaimed;
  const int64_t expected_v = ops_per_writer / kPairsPerWriter;
  auto final_result = db->Execute("SELECT pair_id, v FROM acct");
  if (!final_result.ok()) {
    cell.post_mismatches += pairs;
  } else {
    std::map<int64_t, std::vector<int64_t>> by_pair;
    for (const auto& row : final_result->rows) {
      by_pair[row[0].int_value()].push_back(row[1].int_value());
    }
    for (int p = 0; p < pairs; ++p) {
      const auto it = by_pair.find(p);
      if (it == by_pair.end() || it->second.size() != 2 ||
          it->second[0] != expected_v || it->second[1] != expected_v) {
        ++cell.post_mismatches;
      }
    }
  }
  return cell;
}

}  // namespace
}  // namespace stagedb

int main(int argc, char** argv) {
  using stagedb::bench::BenchArgs;
  using stagedb::bench::JsonReport;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  // Multiple of kPairsPerWriter so the quiesced per-pair count is exact.
  const int ops = args.smoke ? 96 : 480;

  JsonReport report("ablation_snapshot_reads");
  report.Add("smoke", args.smoke);
  report.Add("ops_per_writer", ops);
  report.Add("pairs_per_writer", stagedb::kPairsPerWriter);
  report.Add("reader_threads", stagedb::kReaderThreads);

  int64_t anomalies = 0, mismatches = 0, errors = 0;
  double lock_top_p99 = 0, snap_top_p99 = 0;
  const std::vector<int> tiers = {1, 4, 8};
  for (int writers : tiers) {
    for (const bool snap : {false, true}) {
      const auto cell = stagedb::RunCell(/*lock=*/!snap, writers, ops);
      const std::string tag =
          std::string(snap ? "_snap" : "_lock") + "_w" +
          std::to_string(writers);
      report.Add("scan_p50_us" + tag, cell.scan_p50_us);
      report.Add("scan_p99_us" + tag, cell.scan_p99_us);
      report.Add("scans" + tag, cell.scans);
      if (snap) report.Add("versions_reclaimed" + tag, cell.reclaimed);
      if (!args.json) {
        std::printf(
            "mode=%-4s writers=%d updates=%-5lld scans=%-5lld "
            "scan_p50=%.0fus scan_p99=%.0fus anomalies=%lld wall=%.0fms\n",
            snap ? "snap" : "lock", writers,
            static_cast<long long>(cell.updates),
            static_cast<long long>(cell.scans), cell.scan_p50_us,
            cell.scan_p99_us, static_cast<long long>(cell.anomalies),
            cell.wall_ms);
      }
      anomalies += cell.anomalies;
      mismatches += cell.post_mismatches;
      errors += cell.errors;
      if (writers == tiers.back()) {
        (snap ? snap_top_p99 : lock_top_p99) = cell.scan_p99_us;
      }
    }
  }

  // The headline claim: with every writer slot busy, a snapshot scan's p99
  // must beat the lock-mode scan's p99 by at least 2x (it never queues).
  const int snapshot_latency_failures =
      (lock_top_p99 > 0 && snap_top_p99 > 0.5 * lock_top_p99) ? 1 : 0;
  report.Add("scan_anomaly_count", anomalies);
  report.Add("post_vacuum_mismatches", mismatches);
  report.Add("execute_errors", errors);
  report.Add("snapshot_latency_failures", snapshot_latency_failures);
  if (!args.json) {
    std::printf(
        "top tier p99: lock=%.0fus snap=%.0fus -> latency gate %s\n",
        lock_top_p99, snap_top_p99,
        snapshot_latency_failures ? "FAIL" : "ok");
  }
  if (args.json) report.Print();
  return (anomalies != 0 || mismatches != 0 || errors != 0 ||
          snapshot_latency_failures != 0)
             ? 1
             : 0;
}
