// Staged server demo: concurrent clients stream queries through the five
// lifecycle stages of Figure 3 (connect -> parse -> optimize -> execute ->
// disconnect), each stage with its own queue, threads, and counters. The
// per-stage monitoring report at the end is the §5.2 tuning story.
#include <cstdio>
#include <thread>
#include <vector>

#include "server/server.h"
#include "workload/wisconsin.h"

using namespace stagedb::server;  // NOLINT

int main() {
  auto db_or = Database::Open();
  if (!db_or.ok()) return 1;
  Database* db = db_or->get();
  if (!stagedb::workload::CreateWisconsinTable(db->catalog(), "tenk1", 3000)
           .ok() ||
      !stagedb::workload::CreateWisconsinTable(db->catalog(), "tenk2", 3000)
           .ok()) {
    return 1;
  }

  ServerOptions options;
  options.threads_per_stage = 2;
  options.admission_capacity = 32;
  StagedServer server(db, options);

  const auto queries = stagedb::workload::SampleQueries("tenk1", "tenk2", 3000);
  std::printf("running 5 client threads x 12 queries against the staged "
              "server...\n");
  std::vector<std::thread> clients;
  std::atomic<int> errors{0};
  for (int c = 0; c < 5; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 12; ++i) {
        auto result =
            server.Submit(queries[(c * 5 + i) % queries.size()])->Await();
        if (!result.ok()) ++errors;
      }
    });
  }
  for (auto& t : clients) t.join();
  std::printf("done, %d errors\n\n", errors.load());
  std::printf("%s", server.StatsReport().c_str());
  std::printf("statements run: %lld\n",
              static_cast<long long>(db->statements_executed()));
  return errors.load() == 0 ? 0 : 1;
}
