// Tests for the staged and threaded servers: lifecycle staging, admission
// control, concurrency, and staged-vs-threaded result equivalence.
#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "server/server.h"

namespace stagedb::server {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INTEGER, b INTEGER)").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 3) + ")")
                      .ok());
    }
  }
  std::unique_ptr<Database> db_;
};

TEST_F(ServerTest, StagedServerAnswersQueries) {
  StagedServer server(db_.get());
  auto request = server.Submit("SELECT COUNT(*) FROM t");
  auto result = request->Await();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 10);
}

TEST_F(ServerTest, PacketsVisitAllLifecycleStages) {
  StagedServer server(db_.get());
  ASSERT_TRUE(server.Submit("SELECT * FROM t WHERE a < 3")->Await().ok());
  for (const auto& stage : server.runtime().stages()) {
    EXPECT_GE(stage->packets_processed(), 1)
        << "stage " << stage->name() << " never saw the packet";
  }
}

TEST_F(ServerTest, ParseErrorsFlowToDisconnect) {
  StagedServer server(db_.get());
  auto result = server.Submit("SELEKT broken")->Await();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Server still healthy afterwards.
  EXPECT_TRUE(server.Submit("SELECT COUNT(*) FROM t")->Await().ok());
}

TEST_F(ServerTest, DdlBypassesPlannerInsideServer) {
  StagedServer server(db_.get());
  ASSERT_TRUE(server.Submit("CREATE TABLE u (x INTEGER)")->Await().ok());
  ASSERT_TRUE(server.Submit("INSERT INTO u VALUES (1)")->Await().ok());
  auto result = server.Submit("SELECT COUNT(*) FROM u")->Await();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 1);
}

TEST_F(ServerTest, ConcurrentClientsOnStagedServer) {
  ServerOptions opts;
  opts.threads_per_stage = 2;
  StagedServer server(db_.get(), opts);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto r = server.Submit("SELECT b, COUNT(*) FROM t GROUP BY b")->Await();
        if (!r.ok() || r->rows.size() != 3) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, AdmissionControlBoundsInflight) {
  ServerOptions opts;
  opts.admission_capacity = 4;
  StagedServer server(db_.get(), opts);
  std::vector<std::shared_ptr<Request>> requests;
  for (int i = 0; i < 50; ++i) {
    requests.push_back(server.Submit("SELECT COUNT(*) FROM t"));
  }
  for (auto& r : requests) {
    EXPECT_TRUE(r->Await().ok());
  }
}

TEST_F(ServerTest, ThreadedServerMatchesStagedResults) {
  StagedServer staged(db_.get());
  ThreadedServer threaded(db_.get());
  const std::string sql = "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY b";
  auto r1 = staged.Submit(sql)->Await();
  auto r2 = threaded.Submit(sql)->Await();
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->rows.size(), r2->rows.size());
  for (size_t i = 0; i < r1->rows.size(); ++i) {
    EXPECT_EQ(catalog::TupleToString(r1->rows[i]),
              catalog::TupleToString(r2->rows[i]));
  }
}

TEST_F(ServerTest, StatsReportsAreInformative) {
  StagedServer staged(db_.get());
  ThreadedServer threaded(db_.get());
  ASSERT_TRUE(staged.Submit("SELECT * FROM t")->Await().ok());
  ASSERT_TRUE(threaded.Submit("SELECT * FROM t")->Await().ok());
  EXPECT_NE(staged.StatsReport().find("parse"), std::string::npos);
  EXPECT_NE(threaded.StatsReport().find("served=1"), std::string::npos);
}

TEST_F(ServerTest, StagedDatabaseModeUnderServer) {
  DatabaseOptions dbo;
  dbo.mode = ExecutionMode::kStaged;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  ASSERT_TRUE((*db)->Execute("INSERT INTO s VALUES (1), (2), (3)").ok());
  StagedServer server(db->get());
  auto result = server.Submit("SELECT SUM(x) FROM s")->Await();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 6);
}

TEST_F(ServerTest, ConcurrentQueriesOverlapInExecuteStage) {
  // In staged DB mode the execute stage submits to the engine and parks the
  // lifecycle packet, so a single execute worker drives many in-flight
  // queries at once (and their fscan packets share one elevator). A burst of
  // concurrent SELECTs (plus a failing query mid-burst) must all complete
  // correctly through the park/resume path.
  DatabaseOptions dbo;
  dbo.mode = ExecutionMode::kStaged;
  auto db = Database::Open(dbo);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*db)->Execute("INSERT INTO s VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  StagedServer server(db->get());
  std::vector<std::shared_ptr<Request>> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(server.Submit("SELECT COUNT(*), SUM(x) FROM s"));
  }
  auto bad = server.Submit("SELECT nope FROM s");
  for (auto& r : requests) {
    auto result = r->Await();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows[0][0].int_value(), 40);
    EXPECT_EQ(result->rows[0][1].int_value(), 40 * 39 / 2);
  }
  EXPECT_FALSE(bad->Await().ok());
}

// Regression for the Stats race: the old StatsReport mixed an atomic
// `served_` load with an unsynchronized queue read, so a snapshot could show
// more requests served than submitted. Hammer Stats() against concurrent
// submitters and check the invariant chain within every snapshot (the TSan
// leg additionally verifies the locking).
TEST_F(ServerTest, ThreadedStatsSnapshotsAreConsistentUnderLoad) {
  ServerOptions opts;
  opts.worker_threads = 4;
  ThreadedServer server(db_.get(), opts);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load()) {
      const ThreadedServer::ThreadedStats stats = server.Stats();
      EXPECT_GE(stats.submitted, stats.started);
      EXPECT_GE(stats.started, stats.served);
      EXPECT_GE(stats.served, 0);
      EXPECT_GE(stats.queued(), 0);
      EXPECT_GE(stats.in_flight(), 0);
    }
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        if (server.Submit("SELECT COUNT(*) FROM t")->Await().ok()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  observer.join();

  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  const ThreadedServer::ThreadedStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.served, kClients * kPerClient);
  EXPECT_EQ(stats.queued(), 0);
  EXPECT_EQ(stats.in_flight(), 0);
}

TEST_F(ServerTest, NotifyOnDoneFiresOnceEvenIfRegisteredLate) {
  StagedServer server(db_.get());
  std::atomic<int> fired{0};
  auto request = server.Submit("SELECT COUNT(*) FROM t");
  request->NotifyOnDone([&](const auto& result) {
    EXPECT_TRUE(result.ok());
    fired.fetch_add(1);
  });
  ASSERT_TRUE(request->Await().ok());
  // Registering after completion must fire immediately, not never.
  std::atomic<int> late{0};
  request->NotifyOnDone([&](const auto& result) {
    EXPECT_TRUE(result.ok());
    late.fetch_add(1);
  });
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(late.load(), 1);
}

// Await returns only after a callback registered before completion has
// returned, however slow it is; otherwise a caller that registers and then
// awaits can miss the callback's effects.
TEST(RequestTest, AwaitWaitsForSlowCallback) {
  Request request("SELECT 1");
  std::atomic<int> fired{0};
  request.NotifyOnDone([&](const auto&...) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fired.fetch_add(1);
  });
  std::thread completer([&] { request.Complete(QueryResult{}); });
  EXPECT_TRUE(request.Await().ok());
  EXPECT_EQ(fired.load(), 1);
  completer.join();
}

TEST_F(ServerTest, TrySubmitShedsAtCapacityInsteadOfBlocking) {
  DatabaseOptions dbo;
  dbo.disk_latency_micros = 20'000;  // make each query slow enough to pile up
  auto slow_db = Database::Open(dbo);
  ASSERT_TRUE(slow_db.ok());
  ASSERT_TRUE((*slow_db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  ASSERT_TRUE((*slow_db)->Execute("INSERT INTO s VALUES (1)").ok());
  ServerOptions opts;
  opts.admission_capacity = 2;
  StagedServer server(slow_db->get(), opts);
  std::vector<std::shared_ptr<Request>> admitted;
  bool shed = false;
  for (int i = 0; i < 64; ++i) {
    auto request = server.TrySubmit("SELECT COUNT(*) FROM s");
    if (request == nullptr) {
      shed = true;
      break;
    }
    admitted.push_back(std::move(request));
  }
  EXPECT_TRUE(shed) << "64 slow queries against capacity 2 never shed";
  for (auto& r : admitted) EXPECT_TRUE(r->Await().ok());
}

TEST_F(ServerTest, StagedShutdownIsBoundedAndRejectsQueued) {
  DatabaseOptions dbo;
  dbo.disk_latency_micros = 30'000;
  auto slow_db = Database::Open(dbo);
  ASSERT_TRUE(slow_db.ok());
  ASSERT_TRUE((*slow_db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  ASSERT_TRUE((*slow_db)->Execute("INSERT INTO s VALUES (1)").ok());
  StagedServer server(slow_db->get());
  std::vector<std::shared_ptr<Request>> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(server.Submit("SELECT COUNT(*) FROM s"));
  }
  const auto start = std::chrono::steady_clock::now();
  size_t rejected = server.Shutdown(/*deadline_ms=*/100);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(elapsed_ms, 10'000) << "Shutdown must be bounded by its deadline";
  // Every request resolves: finished ok before the deadline, or kAborted.
  size_t aborted = 0;
  for (auto& r : requests) {
    auto result = r->Await();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kAborted)
          << result.status().ToString();
      ++aborted;
    }
  }
  EXPECT_EQ(aborted, rejected);
  // Submissions after the drain abort immediately instead of hanging.
  auto late = server.Submit("SELECT COUNT(*) FROM s");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->Await().status().code(), StatusCode::kAborted);
  // Idempotent: a second drain has nothing left to reject.
  EXPECT_EQ(server.Shutdown(100), 0u);
}

TEST_F(ServerTest, ThreadedShutdownIsBoundedAndRejectsQueued) {
  DatabaseOptions dbo;
  dbo.disk_latency_micros = 30'000;
  auto slow_db = Database::Open(dbo);
  ASSERT_TRUE(slow_db.ok());
  ASSERT_TRUE((*slow_db)->Execute("CREATE TABLE s (x INTEGER)").ok());
  ASSERT_TRUE((*slow_db)->Execute("INSERT INTO s VALUES (1)").ok());
  ServerOptions opts;
  opts.worker_threads = 2;
  ThreadedServer server(slow_db->get(), opts);
  std::vector<std::shared_ptr<Request>> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(server.Submit("SELECT COUNT(*) FROM s"));
  }
  size_t rejected = server.Shutdown(/*deadline_ms=*/100);
  size_t aborted = 0;
  for (auto& r : requests) {
    if (!r->Await().ok()) ++aborted;
  }
  EXPECT_EQ(aborted, rejected);
  EXPECT_GE(server.Stats().rejected, static_cast<int64_t>(rejected));
  EXPECT_EQ(server.Submit("SELECT 1")->Await().status().code(),
            StatusCode::kAborted);
}

}  // namespace
}  // namespace stagedb::server
