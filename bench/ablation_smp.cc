// Ablation A7 (§5.3, multi-processor systems): "A staged system naturally
// maps one or more stages to a dedicated CPU ... A single query visits
// several CPUs during the different phases of its execution."
//
// On this host the staged engine's free-run mode already is the SMP mode:
// every operator stage has its own threads and the OS spreads them over the
// cores, so a single query's scan, join, and aggregate overlap. The bench
// compares the volcano engine (one thread per query, the "single CPU handles
// a whole query" model) with the staged pipeline, wall clock, on real
// threads.
#include <chrono>
#include <cstdio>
#include <thread>

#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/wisconsin.h"

using stagedb::catalog::Catalog;
using stagedb::engine::StagedEngine;

int main() {
  stagedb::storage::MemDiskManager disk;
  stagedb::storage::BufferPool pool(&disk, 32768);
  Catalog catalog(&pool);
  if (!stagedb::workload::CreateWisconsinTable(&catalog, "tenk1", 30000).ok() ||
      !stagedb::workload::CreateWisconsinTable(&catalog, "tenk2", 30000).ok()) {
    return 1;
  }
  auto stmt = stagedb::parser::ParseStatement(
      "SELECT tenk1.twenty, COUNT(*), SUM(tenk2.unique1) FROM tenk1 "
      "JOIN tenk2 ON tenk1.unique1 = tenk2.unique2 "
      "WHERE tenk1.fiftypercent = 0 GROUP BY tenk1.twenty");
  if (!stmt.ok()) return 1;
  stagedb::optimizer::Planner planner(&catalog);
  auto plan = planner.Plan(**stmt);
  if (!plan.ok()) return 1;

  constexpr int kReps = 5;
  std::printf("Ablation A7: SMP stage placement (%u hardware threads), "
              "join+agg over 30k-row tables\n\n",
              std::thread::hardware_concurrency());

  // Volcano: the whole query on one CPU.
  double volcano_ms;
  {
    stagedb::exec::ExecContext ctx;
    ctx.catalog = &catalog;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto rows = stagedb::exec::ExecutePlan(plan->get(), &ctx);
      if (!rows.ok()) return 1;
    }
    volcano_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count() /
                 kReps;
  }
  // Staged free-run: stages spread across cores, pipeline overlaps.
  double staged_ms;
  {
    StagedEngine engine(&catalog);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto rows = engine.Execute(plan->get());
      if (!rows.ok()) return 1;
    }
    staged_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count() /
                kReps;
  }
  std::printf("%-44s %10.1f ms/query\n",
              "volcano (whole query on one thread)", volcano_ms);
  std::printf("%-44s %10.1f ms/query\n",
              "staged free-run (stages across CPUs)", staged_ms);
  std::printf("\nPipeline speedup: %.2fx (bounded by this host's %u cores "
              "and by the plan's blocking operators).\n",
              volcano_ms / staged_ms, std::thread::hardware_concurrency());
  return 0;
}
