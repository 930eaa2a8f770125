// Ablation: front-end work reuse (the versioned plan cache).
//
// Replays a parameterized workload through the StagedServer with the plan
// cache on vs. off and reports:
//   * repeat-heavy mix: a handful of statement shapes, thousands of
//     executions with varying literals, concurrent clients — the paper's
//     §2/§5 claim that the parse/optimize stages should serve repeated
//     statements from memoized results. Reports hit rate, end-to-end wall
//     clock, and optimize-stage pop counts (StageRuntime::Stats()).
//   * unique-statement mix: every statement a distinct shape — the
//     adversarial case; shows the cache overhead and a ~0% hit rate.
//   * DDL-interleaved mode: prepared statements race CREATE/DROP epoch
//     churn; every result is checked against the expected value, so a stale
//     plan execution is *detected*, not just hoped absent. The bench exits
//     nonzero if any stale execution is observed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "frontend/plan_cache.h"
#include "server/server.h"

namespace stagedb {
namespace {

using server::Database;
using server::DatabaseOptions;
using server::Request;
using server::ServerOptions;
using server::StagedServer;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::unique_ptr<Database> OpenDb(bool cache_on, int rows, int dims) {
  DatabaseOptions options;
  options.plan_cache = cache_on;
  auto db_or = Database::Open(options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open: %s\n", db_or.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<Database> db = std::move(*db_or);
  auto run = [&](const std::string& sql) {
    auto result = db->Execute(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "setup '%s': %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
  };
  run("CREATE TABLE bench (a INTEGER, b INTEGER)");
  run("CREATE TABLE dim (k INTEGER, v INTEGER)");
  for (int i = 0; i < rows; ++i) {
    run("INSERT INTO bench VALUES (" + std::to_string(i) + ", " +
        std::to_string(i % dims) + ")");
  }
  for (int i = 0; i < dims; ++i) {
    run("INSERT INTO dim VALUES (" + std::to_string(i) + ", " +
        std::to_string(i * 10) + ")");
  }
  return db;
}

struct MixResult {
  double wall_ms = 0;
  double hit_rate = 0;
  long long optimize_pops = 0;
  long long parse_pops = 0;
  long long errors = 0;
};

/// One statement of the workload: shapes repeat, literals vary.
std::string Shape(int shape, int value, int dims, bool unique_mix, int i) {
  if (unique_mix) {
    // Distinct LIMIT per statement forces a distinct cache key (the LIMIT
    // literal is part of the plan shape and stays in the key).
    return "SELECT a FROM bench WHERE a >= " + std::to_string(value) +
           " LIMIT " + std::to_string(i + 1);
  }
  switch (shape % 4) {
    case 0:
      return "SELECT COUNT(*) FROM bench WHERE a < " + std::to_string(value);
    case 1:
      return "SELECT SUM(a) FROM bench WHERE b = " +
             std::to_string(value % dims);
    case 2:
      return "SELECT COUNT(*) FROM bench JOIN dim ON bench.b = dim.k "
             "WHERE dim.v < " +
             std::to_string(value);
    default:
      return "SELECT a, b FROM bench WHERE a > " + std::to_string(value) +
             " AND b < " + std::to_string(1 + value % dims);
  }
}

MixResult RunMix(bool cache_on, bool unique_mix, int clients, int per_client,
                 int rows, int dims) {
  std::unique_ptr<Database> db = OpenDb(cache_on, rows, dims);
  MixResult out;
  // Snapshot after setup so the hit rate reflects the replayed workload
  // only (the setup INSERTs are themselves repeat-heavy and would inflate
  // it).
  const frontend::PlanCacheStats setup = db->CacheStats();
  const auto start = std::chrono::steady_clock::now();
  {
    StagedServer server(db.get());
    std::vector<std::thread> threads;
    std::atomic<long long> errors{0};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(1234 + c);
        for (int i = 0; i < per_client; ++i) {
          const int value = static_cast<int>(rng.Uniform(rows));
          const std::string sql =
              Shape(i % 4, value, dims, unique_mix, c * per_client + i);
          if (!server.Submit(sql)->Await().ok()) errors.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    out.errors = errors.load();
    for (const auto& stage : server.runtime().stages()) {
      if (stage->name() == "optimize") {
        out.optimize_pops = stage->packets_processed();
      }
      if (stage->name() == "parse") out.parse_pops = stage->packets_processed();
    }
  }
  out.wall_ms = MsSince(start);
  const frontend::PlanCacheStats end = db->CacheStats();
  const uint64_t lookups = (end.hits - setup.hits) +
                           (end.misses - setup.misses) +
                           (end.invalidations - setup.invalidations);
  out.hit_rate = lookups == 0
                     ? 0.0
                     : static_cast<double>(end.hits - setup.hits) / lookups;
  return out;
}

struct DdlResult {
  long long executions = 0;
  long long stale_executions = 0;
  long long errors = 0;
  unsigned long long invalidations = 0;
  double wall_ms = 0;
};

DdlResult RunDdlInterleaved(int workers, int per_worker, int rows, int dims) {
  std::unique_ptr<Database> db = OpenDb(/*cache_on=*/true, rows, dims);
  DdlResult out;
  auto prepared_or = db->Prepare("SELECT COUNT(*) FROM bench WHERE a < ?");
  if (!prepared_or.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 prepared_or.status().ToString().c_str());
    std::exit(1);
  }
  auto prepared = *prepared_or;

  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> stop{false};
  std::thread ddl([&] {
    int i = 0;
    while (!stop.load()) {
      const std::string name = "side" + std::to_string(i++ % 3);
      (void)db->Execute("CREATE TABLE " + name + " (z INTEGER)");
      (void)db->Execute("DROP TABLE " + name);
      // Breathe between epoch bumps: plenty of invalidations still land,
      // without the DDL loop monopolizing the catalog lock.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::atomic<long long> stale{0}, errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(99 + w);
      for (int i = 0; i < per_worker; ++i) {
        const int bound = static_cast<int>(rng.Uniform(rows));
        auto result =
            db->ExecutePrepared(*prepared, {catalog::Value::Int(bound)});
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (result->rows[0][0].int_value() != bound) {
          // `a` holds 0..rows-1 exactly once: COUNT(a < bound) == bound.
          // Any other answer means a plan executed against stale state.
          stale.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  ddl.join();
  out.wall_ms = MsSince(start);
  out.executions = static_cast<long long>(workers) * per_worker;
  out.stale_executions = stale.load();
  out.errors = errors.load();
  out.invalidations = db->CacheStats().invalidations;
  return out;
}

}  // namespace
}  // namespace stagedb

int main(int argc, char** argv) {
  using stagedb::bench::BenchArgs;
  using stagedb::bench::JsonReport;
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const int rows = args.smoke ? 300 : 2000;
  const int dims = 8;
  const int clients = 4;
  const int per_client = args.smoke ? 150 : 1000;

  const stagedb::MixResult repeat_on =
      stagedb::RunMix(true, false, clients, per_client, rows, dims);
  const stagedb::MixResult repeat_off =
      stagedb::RunMix(false, false, clients, per_client, rows, dims);
  const stagedb::MixResult unique_on =
      stagedb::RunMix(true, true, clients, args.smoke ? 50 : 250, rows, dims);
  const stagedb::DdlResult ddl = stagedb::RunDdlInterleaved(
      3, args.smoke ? 100 : 500, rows, dims);

  const long long failures = repeat_on.errors + repeat_off.errors +
                             unique_on.errors + ddl.errors +
                             ddl.stale_executions;

  if (args.json) {
    JsonReport report("ablation_plan_cache");
    report.Add("smoke", args.smoke);
    report.Add("clients", clients);
    report.Add("statements_per_client", per_client);
    report.Add("repeat_hit_rate", repeat_on.hit_rate);
    report.Add("repeat_wall_ms_cache_on", repeat_on.wall_ms);
    report.Add("repeat_wall_ms_cache_off", repeat_off.wall_ms);
    report.Add("repeat_optimize_pops_cache_on",
               static_cast<int64_t>(repeat_on.optimize_pops));
    report.Add("repeat_optimize_pops_cache_off",
               static_cast<int64_t>(repeat_off.optimize_pops));
    report.Add("repeat_parse_pops", static_cast<int64_t>(repeat_on.parse_pops));
    report.Add("unique_hit_rate", unique_on.hit_rate);
    report.Add("unique_wall_ms", unique_on.wall_ms);
    report.Add("ddl_executions", static_cast<int64_t>(ddl.executions));
    report.Add("ddl_stale_executions",
               static_cast<int64_t>(ddl.stale_executions));
    report.Add("ddl_invalidations", static_cast<int64_t>(ddl.invalidations));
    report.Add("ddl_wall_ms", ddl.wall_ms);
    report.Add("errors", static_cast<int64_t>(failures));
    report.Print();
  } else {
    std::printf("ablation_plan_cache (rows=%d, %d clients x %d stmts)\n",
                rows, clients, per_client);
    std::printf(
        "  repeat-heavy: hit_rate=%.3f wall on/off = %.1f/%.1f ms, "
        "optimize pops on/off = %lld/%lld\n",
        repeat_on.hit_rate, repeat_on.wall_ms, repeat_off.wall_ms,
        repeat_on.optimize_pops, repeat_off.optimize_pops);
    std::printf("  unique mix:   hit_rate=%.3f wall=%.1f ms\n",
                unique_on.hit_rate, unique_on.wall_ms);
    std::printf(
        "  ddl mode:     %lld executions, %lld stale, %llu invalidations "
        "(%.1f ms)\n",
        ddl.executions, ddl.stale_executions, ddl.invalidations, ddl.wall_ms);
  }
  if (failures != 0) {
    std::fprintf(stderr, "FAILURES: %lld (stale=%lld)\n", failures,
                 ddl.stale_executions);
    return 1;
  }
  return 0;
}
