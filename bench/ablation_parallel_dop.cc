// Ablation: partitioned intra-query parallelism (§4.3). The paper argues a
// staged engine exposes intra-operator parallelism on SMPs: one query's
// hash-join (or aggregation) work can run as N partition packets spread
// over the stage's worker pool instead of serializing on one packet. This
// bench sweeps the degree of parallelism over a join-heavy and an
// aggregate-heavy mix with stage pools held constant (8 workers on the join
// and aggr stages for every run), so the only variable is how many
// partition packets the planner/engine fan out. On a multi-core host the
// join-heavy mix is expected to speed up roughly with min(DOP, cores);
// on a single core the sweep degenerates to a fan-out overhead measurement.
//
// Every run cross-checks its result set against the DOP=1 reference; any
// mismatch makes the bench exit nonzero (and sets the *_mismatch JSON
// fields the CI bench-regression gate hard-fails on).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "engine/staged_engine.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace {

using stagedb::catalog::Catalog;
using stagedb::catalog::Schema;
using stagedb::catalog::Tuple;
using stagedb::catalog::TupleToString;
using stagedb::catalog::TypeId;
using stagedb::catalog::Value;
using stagedb::engine::StagedEngine;
using stagedb::engine::StagedEngineOptions;
using stagedb::optimizer::PhysicalPlan;
using stagedb::optimizer::Planner;
using stagedb::optimizer::PlannerOptions;

constexpr int kDops[] = {1, 2, 4, 8};
constexpr int kPoolWorkers = 8;  // constant: only the packet count varies

struct Workload {
  // Join-heavy: a probe-side table fanning out to kMult build rows per key
  // with a rarely-passing residual predicate — the per-probe work (tuple
  // concatenation + predicate evaluation) dominates the serial scans.
  int64_t build_keys;
  int64_t build_mult;
  int64_t probe_rows;
  // Aggregate-heavy: grouped aggregation with expression arguments.
  int64_t agg_rows;
  int reps;
};

double RunPlanMs(StagedEngine* engine, const PhysicalPlan* plan, int reps,
                 std::vector<std::string>* sorted_rows) {
  // Warm-up run (buffer pool, stage spin-up) is also the correctness probe.
  auto rows = engine->Execute(plan);
  if (!rows.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 rows.status().message().c_str());
    std::exit(1);
  }
  sorted_rows->clear();
  for (const Tuple& t : *rows) sorted_rows->push_back(TupleToString(t));
  std::sort(sorted_rows->begin(), sorted_rows->end());

  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    auto timed = engine->Execute(plan);
    if (!timed.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   timed.status().message().c_str());
      std::exit(1);
    }
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         reps;
}

}  // namespace

int main(int argc, char** argv) {
  const stagedb::bench::BenchArgs args =
      stagedb::bench::BenchArgs::Parse(argc, argv);
  const Workload w = args.smoke
                         ? Workload{4096, 8, 40000, 60000, 3}
                         : Workload{16384, 8, 200000, 240000, 5};

  stagedb::storage::MemDiskManager disk;
  stagedb::storage::BufferPool pool(&disk, 32768);
  Catalog catalog(&pool);

  auto dim = catalog.CreateTable(
      "dim", Schema({{"dkey", TypeId::kInt64, ""},
                     {"dval", TypeId::kInt64, ""}}));
  auto fact = catalog.CreateTable(
      "fact", Schema({{"fkey", TypeId::kInt64, ""},
                      {"fval", TypeId::kInt64, ""}}));
  auto wide = catalog.CreateTable(
      "wide", Schema({{"g", TypeId::kInt64, ""},
                      {"a", TypeId::kInt64, ""},
                      {"b", TypeId::kInt64, ""}}));
  if (!dim.ok() || !fact.ok() || !wide.ok()) return 1;
  for (int64_t i = 0; i < w.build_keys * w.build_mult; ++i) {
    if (!catalog
             .InsertTuple(*dim, {Value::Int(i / w.build_mult),
                                  Value::Int(i % w.build_mult)})
             .ok()) {
      return 1;
    }
  }
  for (int64_t j = 0; j < w.probe_rows; ++j) {
    if (!catalog
             .InsertTuple(*fact,
                          {Value::Int(j % w.build_keys), Value::Int(j)})
             .ok()) {
      return 1;
    }
  }
  for (int64_t i = 0; i < w.agg_rows; ++i) {
    if (!catalog
             .InsertTuple(*wide, {Value::Int(i % 64), Value::Int(i % 1000),
                                   Value::Int(i % 97)})
             .ok()) {
      return 1;
    }
  }

  // Each probe row matches build_mult dim rows; the residual predicate
  // passes only for the first few probe payloads, so the join work (not the
  // result transfer) dominates.
  const std::string join_sql =
      "SELECT fact.fkey, fact.fval, dim.dval FROM fact JOIN dim "
      "ON fact.fkey = dim.dkey WHERE fact.fval + dim.dval < 8";
  const std::string agg_sql =
      "SELECT g, COUNT(*), SUM(a + b), AVG(a), MIN(b), MAX(a) FROM wide "
      "GROUP BY g";

  stagedb::bench::JsonReport report("ablation_parallel_dop");
  report.Add("smoke", args.smoke);
  report.Add("build_rows", w.build_keys * w.build_mult);
  report.Add("probe_rows", w.probe_rows);
  report.Add("agg_rows", w.agg_rows);
  report.Add("pool_workers", kPoolWorkers);
  report.Add("dops", "1,2,4,8");

  if (!args.json) {
    std::printf(
        "Ablation: partitioned intra-query parallelism (%u hardware "
        "threads)\n  join-heavy: %lld probe x %lld-way fan-out, "
        "aggregate-heavy: %lld rows / 64 groups\n\n",
        std::thread::hardware_concurrency(),
        static_cast<long long>(w.probe_rows),
        static_cast<long long>(w.build_mult),
        static_cast<long long>(w.agg_rows));
    std::printf("%6s %14s %14s %14s %14s\n", "dop", "join ms", "join x",
                "agg ms", "agg x");
  }

  double join_ms_dop1 = 0, agg_ms_dop1 = 0;
  std::vector<std::string> join_ref, agg_ref;
  int mismatches = 0;
  for (const int dop : kDops) {
    PlannerOptions popts;
    popts.max_dop = dop;
    Planner planner(&catalog, popts);
    auto join_stmt = stagedb::parser::ParseStatement(join_sql);
    auto agg_stmt = stagedb::parser::ParseStatement(agg_sql);
    if (!join_stmt.ok() || !agg_stmt.ok()) return 1;
    auto join_plan = planner.Plan(**join_stmt);
    auto agg_plan = planner.Plan(**agg_stmt);
    if (!join_plan.ok() || !agg_plan.ok()) return 1;

    StagedEngineOptions opts;
    opts.max_dop = dop;
    opts.stage_pools["join"] = {kPoolWorkers, -1};
    opts.stage_pools["aggr"] = {kPoolWorkers, -1};
    opts.stage_pools["fscan"] = {2, -1};
    StagedEngine engine(&catalog, opts);

    std::vector<std::string> join_rows, agg_rows;
    const double join_ms =
        RunPlanMs(&engine, join_plan->get(), w.reps, &join_rows);
    const double agg_ms =
        RunPlanMs(&engine, agg_plan->get(), w.reps, &agg_rows);

    if (dop == 1) {
      join_ms_dop1 = join_ms;
      agg_ms_dop1 = agg_ms;
      join_ref = join_rows;
      agg_ref = agg_rows;
    } else {
      if (join_rows != join_ref) ++mismatches;
      if (agg_rows != agg_ref) ++mismatches;
    }

    const std::string suffix = "_dop" + std::to_string(dop);
    report.Add("join_ms" + suffix, join_ms);
    report.Add("agg_ms" + suffix, agg_ms);
    report.Add("join_speedup" + suffix,
               join_ms > 0 ? join_ms_dop1 / join_ms : 0.0);
    report.Add("agg_speedup" + suffix,
               agg_ms > 0 ? agg_ms_dop1 / agg_ms : 0.0);
    if (!args.json) {
      std::printf("%6d %14.1f %14.2f %14.1f %14.2f\n", dop, join_ms,
                  join_ms > 0 ? join_ms_dop1 / join_ms : 0.0, agg_ms,
                  agg_ms > 0 ? agg_ms_dop1 / agg_ms : 0.0);
    }
  }
  // Batch-size sweep: same plans at DOP=4 on engines with an explicit page
  // size (tuples_per_page). Each run must reproduce the DOP=1 reference
  // byte-for-byte — partial-batch handling at EOF and batch-aware partition
  // routing are exactly the code paths a wrong morsel boundary would break.
  constexpr int kBatchRows[] = {8, 64, 256};
  report.Add("batch_rows_sweep", "8,64,256");
  PlannerOptions popts;
  popts.max_dop = 4;
  Planner planner(&catalog, popts);
  auto join_stmt = stagedb::parser::ParseStatement(join_sql);
  auto agg_stmt = stagedb::parser::ParseStatement(agg_sql);
  if (!join_stmt.ok() || !agg_stmt.ok()) return 1;
  auto join_plan = planner.Plan(**join_stmt);
  auto agg_plan = planner.Plan(**agg_stmt);
  if (!join_plan.ok() || !agg_plan.ok()) return 1;
  for (const int tuples_per_page : kBatchRows) {
    StagedEngineOptions opts;
    opts.max_dop = 4;
    opts.tuples_per_page = tuples_per_page;
    opts.stage_pools["join"] = {kPoolWorkers, -1};
    opts.stage_pools["aggr"] = {kPoolWorkers, -1};
    opts.stage_pools["fscan"] = {2, -1};
    StagedEngine engine(&catalog, opts);

    std::vector<std::string> join_rows, agg_rows;
    const double join_ms =
        RunPlanMs(&engine, join_plan->get(), w.reps, &join_rows);
    const double agg_ms =
        RunPlanMs(&engine, agg_plan->get(), w.reps, &agg_rows);
    if (join_rows != join_ref) ++mismatches;
    if (agg_rows != agg_ref) ++mismatches;

    const std::string suffix = "_batch" + std::to_string(tuples_per_page);
    report.Add("join_ms" + suffix, join_ms);
    report.Add("agg_ms" + suffix, agg_ms);
    if (!args.json) {
      std::printf("batch=%-4d dop=4 %10.1f join ms %10.1f agg ms\n",
                  tuples_per_page, join_ms, agg_ms);
    }
  }

  report.Add("join_result_rows", static_cast<int64_t>(join_ref.size()));
  report.Add("agg_result_rows", static_cast<int64_t>(agg_ref.size()));
  // Correctness field: any DOP whose result set differs from DOP=1 is a
  // bug, never a tolerable regression (bench_compare hard-fails on it).
  report.Add("result_mismatches", static_cast<int64_t>(mismatches));

  if (args.json) {
    report.Print();
  } else if (mismatches == 0) {
    std::printf("\nall DOP result sets match the DOP=1 reference\n");
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %d DOP result set(s) diverged from DOP=1\n",
                 mismatches);
    return 1;
  }
  return 0;
}
