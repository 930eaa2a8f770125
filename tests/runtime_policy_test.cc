// Tests for the free-run staged runtime (engine/runtime.h): per-stage
// worker pools and pinning, the park/wake hand-off under per-stage locks
// (an Activate that races with its packet's park is never lost), stats that
// reconcile after concurrent load, and the wake-up budget (a packet move
// wakes only the stage that has work).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "engine/runtime.h"
#include "engine/staged_engine.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

#include "server/database.h"
#include "workload/wisconsin.h"

#if defined(__linux__)
#include <sched.h>
#include <sys/resource.h>
#endif

namespace stagedb::engine {
namespace {

using catalog::Catalog;
using catalog::Schema;
using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;

/// Counts its Run() calls and finishes after `runs` invocations.
class CountingTask : public StageTask {
 public:
  CountingTask(int runs, std::atomic<int>* counter, std::atomic<int>* retired)
      : runs_(runs), counter_(counter), retired_(retired) {}
  RunOutcome Run() override {
    counter_->fetch_add(1);
    return --runs_ > 0 ? RunOutcome::kYield : RunOutcome::kDone;
  }
  void OnRetired() override { retired_->fetch_add(1); }

 private:
  int runs_;
  std::atomic<int>* counter_;
  std::atomic<int>* retired_;
};

const StageRuntime::StageStats& StatsFor(
    const StageRuntime::StatsSnapshot& snap, const std::string& name) {
  for (const auto& s : snap.stages) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no stage named " << name;
  static StageRuntime::StageStats empty;
  return empty;
}

// ---------------------------------------------- pools, pinning, snapshot ---

TEST(StagePoolTest, PerStagePoolSizesAndPinningAreApplied) {
  StageRuntime runtime;
  StagePoolSpec wide;
  wide.num_workers = 3;
  StagePoolSpec pinned;
  pinned.num_workers = 2;
  pinned.pinned_cpu = 0;
  runtime.CreateStage("wide", wide);
  Stage* bound = runtime.CreateStage("bound", pinned);
  const auto snap = runtime.Stats();
  EXPECT_EQ(StatsFor(snap, "wide").num_workers, 3);
  EXPECT_EQ(StatsFor(snap, "wide").pinned_cpu, -1);
  EXPECT_EQ(StatsFor(snap, "bound").num_workers, 2);
  EXPECT_EQ(StatsFor(snap, "bound").pinned_cpu, 0);
#if defined(__linux__)
  // The pinned stage's workers really execute on the requested core —
  // provided the process may run there at all (pinning is best-effort, so a
  // cpuset/taskset that excludes CPU 0 leaves the workers unpinned).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool cpu0_allowed =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_ISSET(0, &allowed);
  std::atomic<int> cpu{-1}, retired{0};
  class CpuProbe : public StageTask {
   public:
    CpuProbe(std::atomic<int>* cpu, std::atomic<int>* retired)
        : cpu_(cpu), retired_(retired) {}
    RunOutcome Run() override {
      cpu_->store(sched_getcpu());
      return RunOutcome::kDone;
    }
    void OnRetired() override { retired_->fetch_add(1); }

   private:
    std::atomic<int>* cpu_;
    std::atomic<int>* retired_;
  } probe(&cpu, &retired);
  bound->Enqueue(&probe);
  while (retired.load() < 1) std::this_thread::yield();
  if (cpu0_allowed) {
    EXPECT_EQ(cpu.load(), 0);
  } else {
    GTEST_LOG_(INFO) << "CPU 0 not in the affinity mask; pin not verifiable";
  }
#else
  (void)bound;
#endif
  runtime.Shutdown();
}

TEST(StagePoolTest, EnginePoolOverridesReachTheRuntime) {
  storage::MemDiskManager disk;
  storage::BufferPool pool(&disk, 256);
  Catalog catalog(&pool);
  auto t = catalog.CreateTable("t", Schema({{"x", TypeId::kInt64, ""}}));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(catalog.InsertTuple(*t, {Value::Int(i)}).ok());
  }
  StagedEngineOptions opts;
  opts.threads_per_stage = 1;
  opts.stage_pools["qual"] = {3, -1};
  opts.stage_pools["fscan"] = {2, -1};  // fallback key for fscan.<table>
  StagedEngine engine(&catalog, opts);
  auto stmt = parser::ParseStatement("SELECT x FROM t WHERE x < 10");
  ASSERT_TRUE(stmt.ok());
  optimizer::Planner planner(&catalog);
  auto plan = planner.Plan(**stmt);
  ASSERT_TRUE(plan.ok());
  auto rows = engine.Execute(plan->get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  const auto snap = engine.runtime()->Stats();
  EXPECT_EQ(StatsFor(snap, "qual").num_workers, 3);
  EXPECT_EQ(StatsFor(snap, "fscan.t").num_workers, 2);
  EXPECT_EQ(StatsFor(snap, "sort").num_workers, 1);
}

// ------------------------------------------------------------- free-run ----

// Free-run serves every packet to completion: every dequeue and latency
// sample is accounted for.
TEST(FreeRunTest, MatchesLegacySchedulingBehaviour) {
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("s", 2);
  std::atomic<int> runs{0}, retired{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(3, &runs, &retired));
    stage->Enqueue(tasks.back().get());
  }
  while (retired.load() < 10) std::this_thread::yield();
  EXPECT_EQ(runs.load(), 30);
  EXPECT_EQ(stage->packets_processed(), 10);
  EXPECT_EQ(stage->packets_yielded(), 20);
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.pops, 30);
  EXPECT_EQ(s.wait_micros.count(), 30u);
  EXPECT_EQ(s.service_micros.count(), 30u);
  EXPECT_EQ(snap.stage_switches, 0);
  EXPECT_FALSE(snap.ToString().empty());
  runtime.Shutdown();
}

// ------------------------------------------------- park/wake hand-off ------

constexpr int kHandoffRounds = 10000;

/// Waits up to a minute for `count` retirements; a lost wake-up leaves a
/// packet parked forever, so this fails instead of hanging.
bool AwaitRetired(const std::atomic<int>& retired, int count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (retired.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A thread that calls stage->Activate(task) on request.
class Activator {
 public:
  explicit Activator(Stage* stage) : stage_(stage) {}
  Activator(const Activator&) = delete;
  Activator& operator=(const Activator&) = delete;
  ~Activator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  /// Asks the thread to activate `task`. With `wait`, returns only after
  /// that Activate call has returned.
  void Request(StageTask* task, bool wait) {
    std::unique_lock<std::mutex> lock(mu_);
    task_ = task;
    const int64_t ticket = ++requested_;
    cv_.notify_all();
    if (wait) cv_.wait(lock, [&] { return served_ >= ticket; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || served_ < requested_; });
      if (served_ == requested_) return;  // stopping, nothing owed
      StageTask* task = task_;
      lock.unlock();
      stage_->Activate(task);
      lock.lock();
      ++served_;
      cv_.notify_all();
    }
  }

  Stage* const stage_;
  std::mutex mu_;
  std::condition_variable cv_;
  StageTask* task_ = nullptr;
  int64_t requested_ = 0;
  int64_t served_ = 0;
  bool stop_ = false;
  std::thread thread_{[this] { Loop(); }};  // last: starts after the rest
};

/// Each Run() has a second thread Activate this packet, then parks it:
/// kBlocked with CanMakeProgress() false, so only that activation can run
/// it again. Odd rounds return only after the Activate call returned (the
/// packet is still running, so the wake must ride wake_pending_); even
/// rounds return at once, racing the Activate against the park decision.
class ActivatedByHelper : public StageTask {
 public:
  ActivatedByHelper(int rounds, Activator* helper, std::atomic<int>* retired)
      : rounds_(rounds), helper_(helper), retired_(retired) {}
  RunOutcome Run() override {
    if (runs_ == rounds_) return RunOutcome::kDone;
    ++runs_;
    helper_->Request(this, /*wait=*/runs_ % 2 == 1);
    return RunOutcome::kBlocked;
  }
  void OnRetired() override { retired_->fetch_add(1); }

 private:
  const int rounds_;
  int runs_ = 0;
  Activator* const helper_;
  std::atomic<int>* const retired_;
};

TEST(WakeHandoffTest, ActivateDuringRunIsNeverLost) {
  StageRuntime runtime;
  Stage* stage = runtime.CreateStage("s", 1);
  Activator helper(stage);
  std::atomic<int> retired{0};
  ActivatedByHelper task(kHandoffRounds, &helper, &retired);
  stage->Enqueue(&task);
  ASSERT_TRUE(AwaitRetired(retired, 1)) << "a wake-up was lost";
  runtime.Shutdown();
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.blocked, kHandoffRounds);
  EXPECT_EQ(s.processed, 1);
  EXPECT_EQ(s.pops, kHandoffRounds + 1);
}

/// Two packets on two stages wake each other: each Run() activates the
/// peer on the peer's stage, then parks. The peer's worker therefore
/// activates this packet while it may still be running or parking on its
/// own stage.
class PingPongTask : public StageTask {
 public:
  PingPongTask(int rounds, std::atomic<int>* retired)
      : rounds_(rounds), retired_(retired) {}
  void set_peer(Stage* stage, PingPongTask* task) {
    peer_stage_ = stage;
    peer_ = task;
  }
  RunOutcome Run() override {
    peer_stage_->Activate(peer_);
    return ++runs_ == rounds_ ? RunOutcome::kDone : RunOutcome::kBlocked;
  }
  void OnRetired() override { retired_->fetch_add(1); }

 private:
  const int rounds_;
  int runs_ = 0;
  std::atomic<int>* const retired_;
  Stage* peer_stage_ = nullptr;
  PingPongTask* peer_ = nullptr;
};

TEST(WakeHandoffTest, ActivateFromAnotherStagesWorkerIsNeverLost) {
  StageRuntime runtime;
  Stage* a = runtime.CreateStage("a", 1);
  Stage* b = runtime.CreateStage("b", 1);
  std::atomic<int> retired{0};
  PingPongTask ping(kHandoffRounds, &retired);
  PingPongTask pong(kHandoffRounds, &retired);
  ping.set_peer(b, &pong);
  pong.set_peer(a, &ping);
  a->Enqueue(&ping);
  ASSERT_TRUE(AwaitRetired(retired, 2)) << "a wake-up was lost";
  runtime.Shutdown();
  const auto snap = runtime.Stats();
  for (const char* name : {"a", "b"}) {
    const auto& s = StatsFor(snap, name);
    EXPECT_EQ(s.pops, kHandoffRounds) << name;
    EXPECT_EQ(s.blocked, kHandoffRounds - 1) << name;
    EXPECT_EQ(s.processed, 1) << name;
  }
}

// ------------------------------------- stats reconcile under concurrency ---

class PolicyEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<storage::MemDiskManager>();
    pool_ = std::make_unique<storage::BufferPool>(disk_.get(), 1024);
    catalog_ = std::make_unique<Catalog>(pool_.get());
    auto t1 = catalog_->CreateTable("t1", Schema({{"a", TypeId::kInt64, ""},
                                                  {"b", TypeId::kInt64, ""}}));
    auto t2 = catalog_->CreateTable("t2", Schema({{"a", TypeId::kInt64, ""},
                                                  {"c", TypeId::kInt64, ""}}));
    ASSERT_TRUE(t1.ok() && t2.ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(*t1, {Value::Int(i), Value::Int(i % 13)})
              .ok());
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          catalog_->InsertTuple(*t2, {Value::Int(i * 5), Value::Int(i % 4)})
              .ok());
    }
  }

  std::unique_ptr<optimizer::PhysicalPlan> Plan(const std::string& sql) {
    auto stmt = parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    optimizer::Planner planner(catalog_.get());
    auto plan = planner.Plan(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  /// Volcano result rows, rendered and sorted, for cross-checking the
  /// staged result.
  std::vector<std::string> VolcanoResult(const optimizer::PhysicalPlan* plan) {
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto rows = exec::ExecutePlan(plan, &ctx);
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? Sorted(*rows) : std::vector<std::string>{};
  }

  /// Volcano result-row count for cross-checking the staged result.
  size_t VolcanoRows(const optimizer::PhysicalPlan* plan) {
    return VolcanoResult(plan).size();
  }

  static std::vector<std::string> Sorted(const std::vector<Tuple>& rows) {
    std::vector<std::string> out;
    for (const Tuple& t : rows) out.push_back(catalog::TupleToString(t));
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

// Four client threads run joins and aggregates through one-page exchange
// buffers (maximum back-pressure: packets park and wake constantly) while a
// monitor thread snapshots the runtime. Every stage row is copied under
// that stage's lock, so in flight each service already counted in pops has
// either ended (outcome counter and service sample recorded together) or
// is still running. At quiescence every dequeue is accounted for exactly
// once and every queue is empty.
TEST_F(PolicyEngineTest, StatsSnapshotConsistentUnderConcurrentSubmit) {
  StagedEngineOptions opts;
  opts.threads_per_stage = 2;
  opts.exchange_capacity_pages = 1;
  opts.tuples_per_page = 8;
  StagedEngine engine(catalog_.get(), opts);
  std::vector<std::unique_ptr<optimizer::PhysicalPlan>> plans;
  plans.push_back(Plan("SELECT b, COUNT(*) FROM t1 GROUP BY b"));
  plans.push_back(Plan("SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a"));
  plans.push_back(Plan(
      "SELECT t2.c, COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.a GROUP BY t2.c"));
  std::vector<size_t> expected;
  for (const auto& plan : plans) expected.push_back(VolcanoRows(plan.get()));

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread monitor([&] {
    while (!done.load()) {
      for (const auto& s : engine.runtime()->Stats().stages) {
        const int64_t ended = s.processed + s.yielded + s.blocked;
        if (s.pops < ended ||
            s.wait_micros.count() != static_cast<uint64_t>(s.pops) ||
            s.service_micros.count() != static_cast<uint64_t>(ended)) {
          ++failures;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        const size_t q = static_cast<size_t>(c + i) % plans.size();
        auto rows = engine.Execute(plans[q].get());
        if (!rows.ok() || rows->size() != expected[q]) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  done = true;
  monitor.join();
  EXPECT_EQ(failures.load(), 0);

  const auto snap = engine.runtime()->Stats();
  EXPECT_EQ(snap.stage_switches, 0);
  for (const auto& s : snap.stages) {
    EXPECT_EQ(s.pops, s.processed + s.yielded + s.blocked) << s.name;
    EXPECT_EQ(s.wait_micros.count(), static_cast<uint64_t>(s.pops)) << s.name;
    EXPECT_EQ(s.service_micros.count(), static_cast<uint64_t>(s.pops))
        << s.name;
    EXPECT_EQ(s.queue_depth, 0u) << s.name;
  }
}

// Free-run is the live runtime's only scheduling policy (the Figure-5 gated
// family lives in simsched). Under it a join feeding an aggregate through
// one-page exchange buffers and 8-row morsels, where producers park on full
// buffers and consumers on empty ones at every page, returns exactly the
// Volcano rows, with one worker per stage and with two.
TEST_F(PolicyEngineTest, AllPoliciesProduceIdenticalResults) {
  auto plan = Plan(
      "SELECT t2.c, COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.a GROUP BY t2.c");
  const std::vector<std::string> expected = VolcanoResult(plan.get());
  ASSERT_FALSE(expected.empty());
  for (const int threads : {1, 2}) {
    StagedEngineOptions opts;
    opts.threads_per_stage = threads;
    opts.exchange_capacity_pages = 1;  // maximum back-pressure stress
    opts.tuples_per_page = 8;
    StagedEngine engine(catalog_.get(), opts);
    auto rows = engine.Execute(plan.get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(Sorted(*rows), expected) << "threads_per_stage=" << threads;
  }
}

// ------------------------------------------------ free-run wake budget ----

#if defined(__linux__)
/// Voluntary context switches of the whole process so far: every time any
/// thread (client or stage worker) blocked.
int64_t VoluntarySwitches() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_nvcsw);
}

int64_t SpuriousWakeups(const StageRuntime::StatsSnapshot& snap) {
  int64_t total = 0;
  for (const auto& st : snap.stages) total += st.spurious_wakeups;
  return total;
}

// Under free-run each packet move wakes one worker of the destination stage
// only, and a scan qualifies its own rows, so a serial query costs a
// handful of switches however many pages it reads. Waking every worker of
// the runtime on every move cost ~18 switches per point SELECT and ~1,450
// per 1% range scan of 6,000 rows (one wake-up storm per 64-row morsel).
// The bounds are counts, which machine load does not move.
TEST(WakeBudgetTest, SerialQueriesStayWithinSwitchBudget) {
  server::DatabaseOptions options;
  options.mode = server::ExecutionMode::kStaged;
  options.buffer_pool_pages = 80;
  auto db = server::Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(
      workload::CreateWisconsinTable((*db)->catalog(), "wa", 6000).ok());
  ASSERT_TRUE((*db)->Execute("CREATE INDEX wa_u2 ON wa (unique2)").ok());

  struct Case {
    const char* name;
    std::string sql;
    size_t rows;
    double max_switches_per_query;
  };
  const Case cases[] = {
      // Index point lookup: iscan -> qual (projection) -> client.
      {"point", "SELECT unique1 FROM wa WHERE unique2 = 77", 1, 8},
      // 1% range over the unindexed unique1: a full fscan of ~190 pages
      // whose 60 survivors leave fscan in one morsel.
      {"range",
       "SELECT unique2, stringu1 FROM wa WHERE unique1 >= 2000 AND "
       "unique1 < 2060",
       60, 16},
      // Full scan of all ~190 pages: fscan -> aggr -> qual. The rows reach
      // the aggregate with zero columns, so no row is allocated on the
      // fscan worker and freed on the aggr worker: as whole 12-value rows
      // they cost 540-640 switches per query on a 4-core VM (release
      // build), largely waits on the malloc arena the two shared; zero-
      // width rows cost ~75.
      {"count_all", "SELECT COUNT(*) FROM wa", 1, 200},
  };
  constexpr int kQueries = 40;
  constexpr double kMaxSpuriousPerQuery = 1.0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto warm = (*db)->Execute(c.sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_EQ(warm->rows.size(), c.rows);
    const int64_t spurious_before = SpuriousWakeups((*db)->EngineStats());
    const int64_t switches_before = VoluntarySwitches();
    for (int i = 0; i < kQueries; ++i) {
      auto result = (*db)->Execute(c.sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    const double switches =
        static_cast<double>(VoluntarySwitches() - switches_before) / kQueries;
    const double spurious =
        static_cast<double>(SpuriousWakeups((*db)->EngineStats()) -
                            spurious_before) /
        kQueries;
    EXPECT_LE(switches, c.max_switches_per_query);
    EXPECT_LE(spurious, kMaxSpuriousPerQuery);
    RecordProperty(std::string(c.name) + "_switches_per_query",
                   std::to_string(switches));
  }
}
#endif  // __linux__

}  // namespace
}  // namespace stagedb::engine
