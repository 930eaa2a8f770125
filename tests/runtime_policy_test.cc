// Tests for the Figure-5 scheduling-policy family in the real staged
// runtime (engine/runtime.h): gated visit isolation, T-gated re-gate bounds,
// rotation fairness, per-stage worker pools and pinning, stats-snapshot
// consistency under concurrent load, free-run equivalence with the
// pre-policy-object behaviour, and the free-run wake-up budget (a packet
// move wakes only the stage that has work).
#include <atomic>
#include <condition_variable>
#include <mutex>
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

/// One-shot open/close latch (C++17 has no std::latch).
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

/// Counts its Run() calls, optionally announces the first one, optionally
/// blocks each Run() on a latch, and finishes after `runs` invocations.
class CountingTask : public StageTask {
 public:
  CountingTask(int runs, std::atomic<int>* counter,
               std::atomic<int>* retired = nullptr, Latch* hold = nullptr,
               Latch* started = nullptr)
      : runs_(runs), counter_(counter), retired_(retired), hold_(hold),
        started_(started) {}
  RunOutcome Run() override {
    if (started_ != nullptr) started_->Open();
    if (hold_ != nullptr) hold_->Wait();
    counter_->fetch_add(1);
    return --runs_ > 0 ? RunOutcome::kYield : RunOutcome::kDone;
  }
  void OnRetired() override {
    if (retired_ != nullptr) retired_->fetch_add(1);
  }

 private:
  int runs_;
  std::atomic<int>* counter_;
  std::atomic<int>* retired_;
  Latch* hold_;
  Latch* started_;
};

/// Enqueues a successor packet from inside its own service (an "arrival
/// during the visit"), then finishes.
class ChainTask : public StageTask {
 public:
  ChainTask(Stage* stage, StageTask* next, std::atomic<int>* retired)
      : stage_(stage), next_(next), retired_(retired) {}
  RunOutcome Run() override {
    if (next_ != nullptr) stage_->Enqueue(next_);
    return RunOutcome::kDone;
  }
  void OnRetired() override { retired_->fetch_add(1); }

 private:
  Stage* stage_;
  StageTask* next_;
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

// ----------------------------------------------------- D-gated semantics ---

// The defining D-gated property: the gate closes when the rotation arrives,
// so a packet that arrives while another is in service is NOT admitted to
// the open visit even though a second worker is free — it waits for the
// next visit.
TEST(DGatedTest, ArrivalsDuringServiceWaitForNextVisit) {
  StageRuntime runtime(MakeSchedulerPolicy(SchedulerPolicy::kDGated));
  Stage* stage = runtime.CreateStage("s", 2);
  std::atomic<int> a_runs{0}, b_runs{0}, retired{0};
  Latch hold, started;
  CountingTask a(1, &a_runs, &retired, &hold, &started);
  CountingTask b(1, &b_runs, &retired);
  stage->Enqueue(&a);
  started.Wait();  // a is in service; the visit's gate (size 1) is consumed
  stage->Enqueue(&b);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(b_runs.load(), 0) << "D-gated visit admitted an arrival";
  hold.Open();
  while (retired.load() < 2) std::this_thread::yield();
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.visits, 2);       // b was served by a second rotation arrival
  EXPECT_EQ(s.gate_rounds, 2);  // one gate per D-gated visit
  EXPECT_EQ(s.pops, 2);
  runtime.Shutdown();
}

// A packet enqueued from inside service (self-chaining) is an arrival too:
// D-gated serves the chain one visit per link, non-gated drains it in one.
TEST(DGatedTest, SelfEnqueueIsServedNextVisitButSameVisitWhenNonGated) {
  for (const bool gated : {true, false}) {
    StageRuntime runtime(gated ? SchedulerPolicy::kDGated
                               : SchedulerPolicy::kCohort);
    Stage* stage = runtime.CreateStage("s", 1);
    std::atomic<int> retired{0};
    ChainTask c(stage, nullptr, &retired);
    ChainTask b(stage, &c, &retired);
    ChainTask a(stage, &b, &retired);
    stage->Enqueue(&a);
    while (retired.load() < 3) std::this_thread::yield();
    const auto snap = runtime.Stats();
    const auto& s = StatsFor(snap, "s");
    EXPECT_EQ(s.pops, 3);
    EXPECT_EQ(s.visits, gated ? 3 : 1);
    runtime.Shutdown();
  }
}

// ---------------------------------------------------- T-gated(k) bounds ----

// T-gated(2) may re-gate once per visit: a chain of self-enqueueing packets
// is served two gate rounds per visit, so 4 links take exactly 2 visits and
// 4 gate rounds. The same chain under D-gated takes 4 visits.
TEST(TGatedTest, RegateBoundIsHonoured) {
  StageRuntime runtime(MakeSchedulerPolicy(SchedulerPolicy::kTGated,
                                           /*gate_rounds=*/2));
  EXPECT_EQ(runtime.policy().name(), "T-gated(2)");
  Stage* stage = runtime.CreateStage("s", 1);
  std::atomic<int> retired{0};
  ChainTask d(stage, nullptr, &retired);
  ChainTask c(stage, &d, &retired);
  ChainTask b(stage, &c, &retired);
  ChainTask a(stage, &b, &retired);
  stage->Enqueue(&a);
  while (retired.load() < 4) std::this_thread::yield();
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.pops, 4);
  EXPECT_EQ(s.visits, 2);
  EXPECT_EQ(s.gate_rounds, 4);  // two rounds per visit
  runtime.Shutdown();
}

TEST(TGatedTest, GateRoundsBelowTwoClampToTwo) {
  auto policy = MakeSchedulerPolicy(SchedulerPolicy::kTGated, 0);
  EXPECT_EQ(policy->name(), "T-gated(2)");
}

// ------------------------------------------------------ rotation fairness --

// Three stages, two packets each needing three service rounds. Packets hold
// on a latch until everything is enqueued, so the rotation schedule is
// deterministic: D-gated visits each stage round-robin, one gated batch per
// visit, and no stage is starved or visited out of turn.
TEST(RotationTest, DGatedRoundRobinIsFair) {
  StageRuntime runtime(SchedulerPolicy::kDGated);
  Stage* a = runtime.CreateStage("a", 1);
  Stage* b = runtime.CreateStage("b", 1);
  Stage* c = runtime.CreateStage("c", 1);
  std::atomic<int> runs{0}, retired{0};
  Latch hold;
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (Stage* stage : {a, b, c}) {
    for (int i = 0; i < 2; ++i) {
      tasks.push_back(
          std::make_unique<CountingTask>(3, &runs, &retired, &hold));
      stage->Enqueue(tasks.back().get());
    }
  }
  hold.Open();
  while (retired.load() < 6) std::this_thread::yield();
  EXPECT_EQ(runs.load(), 18);
  const auto snap = runtime.Stats();
  // Every stage got the same number of dequeues; visit counts are within
  // one batch of each other (the first visit at stage "a" opened before the
  // second packet arrived, so "a" needs one extra visit).
  int64_t min_visits = INT64_MAX, max_visits = 0;
  for (const char* name : {"a", "b", "c"}) {
    const auto& s = StatsFor(snap, name);
    EXPECT_EQ(s.pops, 6) << name;
    EXPECT_EQ(s.queue_depth, 0u) << name;
    min_visits = std::min(min_visits, s.visits);
    max_visits = std::max(max_visits, s.visits);
  }
  EXPECT_GE(min_visits, 3);
  EXPECT_LE(max_visits - min_visits, 1);
  // Round-robin across three stages: at least (total visits - 1) switches.
  EXPECT_GE(snap.stage_switches, 8);
  runtime.Shutdown();
}

// ---------------------------------------------- pools, pinning, snapshot ---

TEST(StagePoolTest, PerStagePoolSizesAndPinningAreApplied) {
  StageRuntime runtime(SchedulerPolicy::kFreeRun);
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

// ----------------------------------------------- free-run equivalence ------

// kFreeRun with uniform pools must reproduce the pre-policy-object
// behaviour: same counters as the legacy RuntimeTest, no cohort rotation
// state (visits stay 0), every dequeue and latency sample accounted for.
TEST(FreeRunTest, MatchesLegacySchedulingBehaviour) {
  StageRuntime runtime(SchedulerPolicy::kFreeRun);
  EXPECT_EQ(runtime.policy().name(), "free-run");
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
  EXPECT_EQ(runtime.stage_switches(), 0);
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.visits, 0);  // free-run never opens cohort visits
  EXPECT_EQ(s.pops, 30);
  EXPECT_EQ(s.wait_micros.count(), 30u);
  EXPECT_EQ(s.service_micros.count(), 30u);
  EXPECT_FALSE(runtime.Stats().ToString().empty());
  runtime.Shutdown();
}

// ------------------------------------------- custom policies are pluggable -

// A policy that admits exactly one packet per visit (strict alternation) —
// not one of the named four, exercising the open SchedulingPolicy interface.
TEST(CustomPolicyTest, SinglePacketVisitsAlternate) {
  class OneAtATime : public SchedulingPolicy {
   public:
    std::string name() const override { return "one-at-a-time"; }
    int64_t OnVisitStart(size_t) override { return 1; }
  };
  StageRuntime runtime(std::make_unique<OneAtATime>());
  Stage* stage = runtime.CreateStage("s", 1);
  std::atomic<int> runs{0}, retired{0};
  std::vector<std::unique_ptr<CountingTask>> tasks;
  Latch hold;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(1, &runs, &retired, &hold));
    stage->Enqueue(tasks.back().get());
  }
  hold.Open();
  while (retired.load() < 4) std::this_thread::yield();
  const auto snap = runtime.Stats();
  const auto& s = StatsFor(snap, "s");
  EXPECT_EQ(s.pops, 4);
  EXPECT_EQ(s.visits, 4);  // one packet admitted per rotation arrival
  runtime.Shutdown();
}

// A buggy policy returning a non-positive admission must not wedge the
// runtime in an open visit with an empty gate: the stage is skipped (no
// visit opens), and shutdown still completes cleanly.
TEST(CustomPolicyTest, NonPositiveAdmissionNeverOpensEmptyVisits) {
  class RefuseAll : public SchedulingPolicy {
   public:
    std::string name() const override { return "refuse-all"; }
    int64_t OnVisitStart(size_t) override { return -5; }  // bogus admission
  };
  StageRuntime runtime(std::make_unique<RefuseAll>());
  Stage* stage = runtime.CreateStage("s", 1);
  std::atomic<int> runs{0}, retired{0};
  CountingTask t(1, &runs, &retired);
  stage->Enqueue(&t);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(runs.load(), 0);  // nothing admitted, by the policy's choice
  const auto snap = runtime.Stats();
  EXPECT_EQ(StatsFor(snap, "s").visits, 0);  // but no empty visit opened
  runtime.Shutdown();  // and the runtime shuts down without wedging
}

// ------------------------------------- stats consistency under concurrency -

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

  /// Volcano result-row count for cross-checking the staged result.
  size_t VolcanoRows(const optimizer::PhysicalPlan* plan) {
    exec::ExecContext ctx;
    ctx.catalog = catalog_.get();
    auto rows = exec::ExecutePlan(plan, &ctx);
    EXPECT_TRUE(rows.ok());
    return rows->size();
  }

  std::unique_ptr<storage::MemDiskManager> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
};

// Four client threads hammer a gated engine while a monitor thread snapshots
// the runtime; at quiescence every dequeue must be accounted for exactly
// once (pops == processed + yielded + blocked, histograms complete).
TEST_F(PolicyEngineTest, StatsSnapshotConsistentUnderConcurrentSubmit) {
  StagedEngineOptions opts;
  opts.scheduler = SchedulerPolicy::kTGated;
  opts.scheduler_gate_rounds = 3;
  opts.threads_per_stage = 2;
  StagedEngine engine(catalog_.get(), opts);
  auto plan1 = Plan("SELECT b, COUNT(*) FROM t1 GROUP BY b");
  auto plan2 = Plan("SELECT t1.a, t2.c FROM t1 JOIN t2 ON t1.a = t2.a");
  const size_t rows1 = VolcanoRows(plan1.get());
  const size_t rows2 = VolcanoRows(plan2.get());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread monitor([&] {
    while (!done.load()) {
      const auto snap = engine.runtime()->Stats();
      for (const auto& s : snap.stages) {
        if (s.pops < s.processed) ++failures;  // never under-counts
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 6; ++i) {
        const bool first = (c + i) % 2 == 0;
        auto rows = engine.Execute(first ? plan1.get() : plan2.get());
        if (!rows.ok() || rows->size() != (first ? rows1 : rows2)) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  done = true;
  monitor.join();
  EXPECT_EQ(failures.load(), 0);

  const auto snap = engine.runtime()->Stats();
  EXPECT_EQ(snap.policy, "T-gated(3)");
  for (const auto& s : snap.stages) {
    EXPECT_EQ(s.pops, s.processed + s.yielded + s.blocked) << s.name;
    EXPECT_EQ(s.wait_micros.count(), static_cast<uint64_t>(s.pops)) << s.name;
    EXPECT_EQ(s.service_micros.count(), static_cast<uint64_t>(s.pops))
        << s.name;
    EXPECT_EQ(s.queue_depth, 0u) << s.name;
    EXPECT_GE(s.gate_rounds, s.visits) << s.name;
  }
}

// All four policies complete the same dataflow with correct results — the
// gated rotation must never deadlock the producer/consumer back-pressure
// protocol (parked packets are woken into the *next* visit's gate).
TEST_F(PolicyEngineTest, AllPoliciesProduceIdenticalResults) {
  auto plan = Plan(
      "SELECT t2.c, COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.a GROUP BY t2.c");
  const size_t expected = VolcanoRows(plan.get());
  for (auto policy :
       {SchedulerPolicy::kFreeRun, SchedulerPolicy::kCohort,
        SchedulerPolicy::kDGated, SchedulerPolicy::kTGated}) {
    StagedEngineOptions opts;
    opts.scheduler = policy;
    opts.exchange_capacity_pages = 1;  // maximum back-pressure stress
    opts.tuples_per_page = 8;
    StagedEngine engine(catalog_.get(), opts);
    auto rows = engine.Execute(plan.get());
    ASSERT_TRUE(rows.ok()) << engine.runtime()->policy().name();
    EXPECT_EQ(rows->size(), expected) << engine.runtime()->policy().name();
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
