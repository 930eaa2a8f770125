// Ablation A4 (§4.4 "stage granularity"): fine-grained operator stages (the
// Figure 3 execution engine) versus one coarse execute stage (the monolithic
// end of the trade-off). Fine granularity buys pipeline parallelism: packets
// of one query flow through several stages at once.
#include <chrono>
#include <cstdio>

#include "engine/staged_engine.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/wisconsin.h"

using stagedb::catalog::Catalog;
using stagedb::engine::StagedEngine;
using stagedb::engine::StagedEngineOptions;

namespace {

double RunBatch(StagedEngine* engine,
                const std::vector<const stagedb::optimizer::PhysicalPlan*>&
                    plans,
                int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    for (const auto* plan : plans) {
      auto rows = engine->Execute(plan);
      if (!rows.ok()) exit(1);
    }
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         reps;
}

}  // namespace

int main() {
  stagedb::storage::MemDiskManager disk;
  stagedb::storage::BufferPool pool(&disk, 16384);
  Catalog catalog(&pool);
  if (!stagedb::workload::CreateWisconsinTable(&catalog, "tenk1", 10000).ok() ||
      !stagedb::workload::CreateWisconsinTable(&catalog, "tenk2", 10000).ok()) {
    return 1;
  }
  stagedb::optimizer::Planner planner(&catalog);
  std::vector<std::unique_ptr<stagedb::optimizer::PhysicalPlan>> owned;
  std::vector<const stagedb::optimizer::PhysicalPlan*> plans;
  for (const std::string& sql :
       stagedb::workload::SampleQueries("tenk1", "tenk2", 10000)) {
    auto stmt = stagedb::parser::ParseStatement(sql);
    if (!stmt.ok()) return 1;
    auto plan = planner.Plan(**stmt);
    if (!plan.ok()) return 1;
    owned.push_back(std::move(*plan));
    plans.push_back(owned.back().get());
  }

  std::printf("Ablation A4: stage granularity (5-query Wisconsin batch, "
              "real staged engine)\n\n");
  std::printf("%-12s %-12s %-14s\n", "granularity", "time (ms)", "stages");
  for (auto granularity : {StagedEngineOptions::Granularity::kFine,
                           StagedEngineOptions::Granularity::kCoarse}) {
    StagedEngineOptions opts;
    opts.granularity = granularity;
    StagedEngine engine(&catalog, opts);
    const double ms = RunBatch(&engine, plans, 3);
    std::printf("%-12s %-12.1f %-14zu\n",
                granularity == StagedEngineOptions::Granularity::kFine
                    ? "fine"
                    : "coarse",
                ms, engine.runtime()->stages().size());
  }
  std::printf("\nFine granularity exposes the operator pipeline (more "
              "stages, packets flow concurrently);\ncoarse granularity "
              "resembles the original monolithic design (§4.4: it \"may fail "
              "to fully\nexploit the underlying memory hierarchy\").\n");
  return 0;
}
