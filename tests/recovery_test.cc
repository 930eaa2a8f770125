// Durability & recovery tests (PR 6): WAL framing (torn-tail tolerance, CRC
// detection), write-fault injection, the group-commit stage's batching and
// ack-ordering invariants, TransactionManager recovery edge cases (WAL
// records replayed into a recording applier), and
// whole-Database restart/replay through DatabaseOptions::wal_path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/commit_stage.h"
#include "recording_applier.h"
#include "server/database.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace stagedb {
namespace {

using storage::WalRecord;
using storage::WriteAheadLog;
using storage::WriteFaultInjector;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/stagedb_rec_" + name + "_" +
         std::to_string(::getpid());
}

WalRecord MakeInsert(int64_t txn, int32_t table, const std::string& row) {
  WalRecord r;
  r.txn_id = txn;
  r.type = WalRecord::Type::kInsert;
  r.table_id = table;
  r.after = row;
  return r;
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

int64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<int64_t>(f.tellg()) : -1;
}

// ------------------------------------------------------------ WAL framing ---

TEST(WalFramingTest, ZeroLengthFileOpensEmpty) {
  const std::string path = TempPath("wal_zero");
  std::remove(path.c_str());
  AppendRawBytes(path, "");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->num_records(), 0);
  EXPECT_EQ((*wal)->truncated_tail_bytes(), 0);
  std::remove(path.c_str());
}

TEST(WalFramingTest, TornTailTruncatedOnReopen) {
  const std::string path = TempPath("wal_torn");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeInsert(1, 0, "row" + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // A crash mid-append: only a prefix of the next frame reached the disk.
  const std::string frame =
      storage::EncodeWalFrame(MakeInsert(1, 0, "half-written row"));
  AppendRawBytes(path, frame.substr(0, frame.size() / 2));
  const int64_t dirty_size = FileSize(path);
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ((*wal)->num_records(), 5);
    EXPECT_GT((*wal)->truncated_tail_bytes(), 0);
    // The torn bytes are gone from the file: appends restart cleanly.
    EXPECT_LT(FileSize(path), dirty_size);
    ASSERT_TRUE((*wal)->Append(MakeInsert(2, 0, "after recovery")).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // And a third open sees a clean log with all six records.
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->num_records(), 6);
  EXPECT_EQ((*wal)->truncated_tail_bytes(), 0);
  std::remove(path.c_str());
}

TEST(WalFramingTest, ShortHeaderTailTruncated) {
  const std::string path = TempPath("wal_hdr");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(MakeInsert(1, 0, "whole")).ok());
  }
  AppendRawBytes(path, "\x03");  // 1 byte of a would-be header
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->num_records(), 1);
  EXPECT_EQ((*wal)->truncated_tail_bytes(), 1);
  std::remove(path.c_str());
}

TEST(WalFramingTest, CrcMismatchTailTruncated) {
  const std::string path = TempPath("wal_crc");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeInsert(1, 0, "rec" + std::to_string(i)))
                      .ok());
    }
  }
  // Flip a byte inside the last record's payload: length parses, CRC fails.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-3, std::ios::end);
  f.put('\xff');
  f.close();
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->num_records(), 2);
  EXPECT_GT((*wal)->truncated_tail_bytes(), 0);
  std::remove(path.c_str());
}

TEST(WalFramingTest, SyncAdvancesDurableLsn) {
  const std::string path = TempPath("wal_sync");
  std::remove(path.c_str());
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok());
  auto& wal = *wal_or;
  EXPECT_EQ(wal->durable_lsn(), 0);
  auto lsn = wal->Append(MakeInsert(1, 0, "a"));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(wal->durable_lsn(), 0);  // appended, not yet synced
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->durable_lsn(), *lsn);
  EXPECT_EQ(wal->syncs(), 1);
  std::remove(path.c_str());
}

TEST(WalFramingTest, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xcbf43926.
  EXPECT_EQ(storage::WalCrc32("123456789", 9), 0xcbf43926u);
}

// -------------------------------------------------------- fault injection ---

class WalFaultTest : public ::testing::TestWithParam<WriteFaultInjector::Fault> {
};

TEST_P(WalFaultTest, DamagedTailRecoversToLastGoodRecord) {
  const std::string path = TempPath("wal_fault");
  std::remove(path.c_str());
  constexpr int kGood = 4;
  {
    auto wal_or = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal_or.ok());
    auto& wal = *wal_or;
    WriteFaultInjector injector;
    wal->set_fault_injector(&injector);
    // Fault fires on the append after the good ones; empty callback means
    // the device just goes dead (the crash harness SIGKILLs here instead).
    injector.Arm(GetParam(), kGood, {});
    for (int i = 0; i < kGood; ++i) {
      ASSERT_TRUE(
          wal->Append(MakeInsert(1, 0, "good" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
    auto bad = wal->Append(MakeInsert(1, 0, "doomed record"));
    EXPECT_FALSE(bad.ok());
    EXPECT_TRUE(injector.fired());
    // The device is dead from here on.
    EXPECT_FALSE(wal->Append(MakeInsert(1, 0, "x")).ok());
    EXPECT_FALSE(wal->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->num_records(), kGood);
  if (GetParam() == WriteFaultInjector::Fault::kDropWrite) {
    EXPECT_EQ((*wal)->truncated_tail_bytes(), 0);  // nothing landed
  } else {
    EXPECT_GT((*wal)->truncated_tail_bytes(), 0);  // short/torn frame dropped
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllFaults, WalFaultTest,
                         ::testing::Values(
                             WriteFaultInjector::Fault::kDropWrite,
                             WriteFaultInjector::Fault::kShortWrite,
                             WriteFaultInjector::Fault::kTornWrite));

// ----------------------------------------------------- group-commit stage ---

TEST(GroupCommitTest, ConcurrentCommitsShareSyncs) {
  const std::string path = TempPath("gc_batch");
  std::remove(path.c_str());
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok());
  auto& wal = *wal_or;
  constexpr int kCommits = 32;
  {
    engine::StageRuntime runtime;
    engine::GroupCommitStage::Options opts;
    opts.max_batch = 64;
    opts.max_wait_us = 3000;  // wide window so concurrent commits coalesce
    engine::GroupCommitStage gc(&runtime, wal.get(), opts,
                                engine::StagePoolSpec{1, -1});
    std::vector<std::thread> threads;
    std::vector<int64_t> lsns(kCommits, 0);
    for (int i = 0; i < kCommits; ++i) {
      threads.emplace_back([&, i] {
        auto ticket = gc.Submit(i + 1);
        ASSERT_TRUE(ticket->Wait().ok());
        lsns[i] = ticket->lsn();
      });
    }
    for (auto& t : threads) t.join();
    const auto counters = gc.counters();
    EXPECT_EQ(counters.commits, kCommits);
    EXPECT_GE(counters.batches, 1);
    // The whole point: far fewer fsyncs than commits.
    EXPECT_LT(counters.batches, kCommits);
    EXPECT_EQ(counters.batch_size.count(),
              static_cast<uint64_t>(counters.batches));
    // Ack-ordering invariant, part 1: every ticket has a durable lsn.
    std::set<int64_t> distinct;
    for (int64_t lsn : lsns) {
      EXPECT_GT(lsn, 0);
      EXPECT_LE(lsn, wal->durable_lsn());
      distinct.insert(lsn);
    }
    EXPECT_EQ(distinct.size(), static_cast<size_t>(kCommits));
    gc.Drain();
    runtime.Shutdown();
  }
  // All 32 commit records durable.
  auto reopened = WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->CommittedTxns().size(), static_cast<size_t>(kCommits));
  std::remove(path.c_str());
}

TEST(GroupCommitTest, DrainFlushesPendingAndRejectsNew) {
  const std::string path = TempPath("gc_drain");
  std::remove(path.c_str());
  auto wal_or = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal_or.ok());
  engine::StageRuntime runtime;
  engine::GroupCommitStage::Options opts;
  opts.max_wait_us = 1000000;  // window would hold commits for a second...
  engine::GroupCommitStage gc(&runtime, wal_or->get(), opts,
                              engine::StagePoolSpec{1, -1});
  auto ticket = gc.Submit(7);
  gc.Drain();  // ...but drain forces the flush immediately
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_GT(ticket->lsn(), 0);
  auto late = gc.Submit(8);
  EXPECT_FALSE(late->Wait().ok());
  runtime.Shutdown();
  std::remove(path.c_str());
}

// ------------------------------------------- TransactionManager edge cases ---

// Each case appends WAL records directly and recovers them into a recording
// applier, the same interface Database's catalog applier implements.
class TxnRecoveryTest : public ::testing::Test {
 protected:
  void Append(WriteAheadLog* wal, std::initializer_list<WalRecord> records) {
    for (const WalRecord& r : records) ASSERT_TRUE(wal->Append(r).ok());
  }

  WriteAheadLog wal_;
  test::RecordingApplier applier_;
  storage::RecoveryStats stats_;
};

TEST_F(TxnRecoveryTest, AbortWithoutBeginRecordIsHarmless) {
  // An ABORT (and a stray row record) for a transaction that never logged
  // BEGIN replays to nothing and is not counted as a loser.
  Append(&wal_, {MakeInsert(999, 0, "orphan"),
                 test::TxnRecord(WalRecord::Type::kAbort, 999)});
  storage::TransactionManager fresh(&wal_);
  ASSERT_TRUE(fresh.Recover(&applier_, &stats_).ok());
  EXPECT_TRUE(applier_.ops.empty());
  EXPECT_EQ(stats_.applied_records, 0);
  EXPECT_EQ(stats_.committed_txns, 0);
  EXPECT_EQ(stats_.loser_txns, 0);
}

TEST_F(TxnRecoveryTest, CommitOfEmptyTxnReplaysNothing) {
  Append(&wal_, {test::TxnRecord(WalRecord::Type::kBegin, 1),
                 test::TxnRecord(WalRecord::Type::kCommit, 1)});
  storage::TransactionManager fresh(&wal_);
  ASSERT_TRUE(fresh.Recover(&applier_, &stats_).ok());
  EXPECT_EQ(stats_.committed_txns, 1);
  EXPECT_EQ(stats_.applied_records, 0);
  EXPECT_TRUE(applier_.ops.empty());
}

TEST_F(TxnRecoveryTest, RecoverTwiceEqualsRecoverOnce) {
  const std::string path = TempPath("wal_idem");
  std::remove(path.c_str());
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    Append(wal->get(), {test::TxnRecord(WalRecord::Type::kBegin, 1),
                        MakeInsert(1, 0, "a"), MakeInsert(1, 0, "b"),
                        test::TxnRecord(WalRecord::Type::kCommit, 1)});
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  storage::TransactionManager fresh(wal->get());
  storage::RecoveryStats second;
  ASSERT_TRUE(fresh.Recover(&applier_, &stats_).ok());
  EXPECT_EQ(stats_.applied_records, 2);
  EXPECT_EQ(applier_.ops,
            (std::vector<std::string>{"insert 0 a", "insert 0 b"}));
  // Second pass is the guarded no-op.
  ASSERT_TRUE(fresh.Recover(&applier_, &second).ok());
  EXPECT_EQ(second.applied_records, 0);
  EXPECT_EQ(applier_.ops.size(), 2u);
  std::remove(path.c_str());
}

TEST_F(TxnRecoveryTest, RecoverAdvancesTxnIds) {
  // New ids and commit timestamps continue above the highest in the log.
  WalRecord commit = test::TxnRecord(WalRecord::Type::kCommit, 41);
  commit.ts = 7;
  Append(&wal_, {test::TxnRecord(WalRecord::Type::kBegin, 41), commit});
  storage::TransactionManager fresh(&wal_);
  ASSERT_TRUE(fresh.Recover(&applier_, &stats_).ok());
  EXPECT_GT(fresh.AllocateTxnId(), 41);
  EXPECT_EQ(fresh.last_committed(), 7);
  EXPECT_GT(fresh.AllocateCommitTs(), 7);
}

// --------------------------------------------------------- Database-level ---

class DatabaseRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = TempPath("db_wal");
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }

  std::unique_ptr<server::Database> OpenDb(
      server::ExecutionMode mode = server::ExecutionMode::kVolcano,
      bool group_commit = true) {
    server::DatabaseOptions opts;
    opts.wal_path = wal_path_;
    opts.mode = mode;
    opts.group_commit = group_commit;
    auto db = server::Database::Open(opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  static std::vector<std::string> Dump(server::Database* db,
                                       const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const auto& t : r->rows) rows.push_back(catalog::TupleToString(t));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static void Exec(server::Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  std::string wal_path_;
};

TEST_F(DatabaseRecoveryTest, RestartReplaysCommittedDml) {
  std::vector<std::string> before;
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE t (k INTEGER, v VARCHAR(16))");
    Exec(db.get(), "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'x')");
    Exec(db.get(), "UPDATE t SET v = 'three' WHERE k = 3");
    Exec(db.get(), "DELETE FROM t WHERE k = 2");
    before = Dump(db.get(), "SELECT * FROM t");
    ASSERT_EQ(before.size(), 2u);
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->recovery_stats().committed_txns, 0);
  EXPECT_EQ(Dump(db.get(), "SELECT * FROM t"), before);
}

TEST_F(DatabaseRecoveryTest, RestartSkipsUncommittedTransaction) {
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE t (k INTEGER)");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    Exec(db.get(), "BEGIN");
    Exec(db.get(), "INSERT INTO t VALUES (2)");
    // No COMMIT: the database closes with the transaction open (a crash
    // from the log's point of view).
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->recovery_stats().loser_txns, 0);
  EXPECT_EQ(Dump(db.get(), "SELECT * FROM t"),
            std::vector<std::string>{"(1)"});
}

TEST_F(DatabaseRecoveryTest, DdlSurvivesRestart) {
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE keep (k INTEGER, v VARCHAR(8))");
    Exec(db.get(), "CREATE TABLE doomed (z INTEGER)");
    Exec(db.get(), "CREATE INDEX keep_k ON keep (k)");
    Exec(db.get(), "INSERT INTO keep VALUES (10, 'ten')");
    Exec(db.get(), "DROP TABLE doomed");
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->recovery_stats().ddl_records, 4);
  EXPECT_EQ(Dump(db.get(), "SELECT v FROM keep WHERE k = 10"),
            std::vector<std::string>{"(ten)"});
  auto gone = db->Execute("SELECT * FROM doomed");
  EXPECT_FALSE(gone.ok());
}

TEST_F(DatabaseRecoveryTest, ExplicitTxnCommitDurableRollbackNot) {
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE t (k INTEGER)");
    Exec(db.get(), "BEGIN");
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    Exec(db.get(), "COMMIT");
    Exec(db.get(), "BEGIN");
    Exec(db.get(), "INSERT INTO t VALUES (2)");
    Exec(db.get(), "ROLLBACK");
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Dump(db.get(), "SELECT * FROM t"),
            std::vector<std::string>{"(1)"});
}

// Both modes build the commit and vacuum stages on one path: each is a row
// of EngineStats() beside the host runtime's own stages.
TEST_F(DatabaseRecoveryTest, CommitStageAndRestartInBothModes) {
  for (const auto mode :
       {server::ExecutionMode::kVolcano, server::ExecutionMode::kStaged}) {
    SCOPED_TRACE(mode == server::ExecutionMode::kStaged ? "staged" : "volcano");
    std::remove(wal_path_.c_str());
    std::vector<std::string> before;
    {
      auto db = OpenDb(mode);
      ASSERT_NE(db, nullptr);
      Exec(db.get(), "CREATE TABLE t (k INTEGER, v VARCHAR(16))");
      for (int i = 0; i < 20; ++i) {
        Exec(db.get(), "INSERT INTO t VALUES (" + std::to_string(i) + ", 'r" +
                           std::to_string(i) + "')");
      }
      before = Dump(db.get(), "SELECT * FROM t");
      const auto snap = db->EngineStats();
      EXPECT_TRUE(snap.group_commit.enabled);
      EXPECT_EQ(snap.group_commit.commits, 20);
      std::vector<std::string> names;
      for (const auto& stage : snap.stages) names.push_back(stage.name);
      EXPECT_NE(std::find(names.begin(), names.end(), "commit"), names.end());
      EXPECT_NE(std::find(names.begin(), names.end(), "vacuum"), names.end());
    }
    auto db = OpenDb(mode);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(Dump(db.get(), "SELECT * FROM t"), before);
  }
}

TEST_F(DatabaseRecoveryTest, GroupCommitOffStillDurable) {
  {
    auto db = OpenDb(server::ExecutionMode::kVolcano, /*group_commit=*/false);
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE t (k INTEGER)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2)");
    // One fsync per commit: wal syncs >= 1 DDL + 1 DML commit.
    EXPECT_GE(db->wal()->syncs(), 2);
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Dump(db.get(), "SELECT * FROM t").size(), 2u);
}

TEST_F(DatabaseRecoveryTest, ReopenTwiceIsStable) {
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    Exec(db.get(), "CREATE TABLE t (k INTEGER)");
    Exec(db.get(), "INSERT INTO t VALUES (1), (2), (3)");
    Exec(db.get(), "DELETE FROM t WHERE k = 2");
  }
  std::vector<std::string> first;
  {
    auto db = OpenDb();
    ASSERT_NE(db, nullptr);
    first = Dump(db.get(), "SELECT * FROM t");
  }
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(Dump(db.get(), "SELECT * FROM t"), first);
  EXPECT_EQ(first.size(), 2u);
}

}  // namespace
}  // namespace stagedb
