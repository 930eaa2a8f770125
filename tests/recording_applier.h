// A storage::RecoveryApplier that records what TransactionManager::Recover
// replays, for tests that append WAL records directly instead of running a
// Database.
#ifndef STAGEDB_TESTS_RECORDING_APPLIER_H_
#define STAGEDB_TESTS_RECORDING_APPLIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/txn.h"
#include "storage/wal.h"

namespace stagedb::test {

/// Logs each replayed operation as one line: "ddl <record type> <name>",
/// "insert <table> <row>", "delete <table> <row>" or
/// "update <table> <before> -> <after>".
class RecordingApplier : public storage::RecoveryApplier {
 public:
  Status ApplyDdl(const storage::WalRecord& record) override {
    ops.push_back(std::string("ddl ") +
                  storage::WalRecordTypeName(record.type) + " " +
                  record.before);
    return Status::OK();
  }
  Status ApplyInsert(int32_t table_id, const std::string& row) override {
    ops.push_back("insert " + std::to_string(table_id) + " " + row);
    return Status::OK();
  }
  Status ApplyDelete(int32_t table_id, const std::string& before) override {
    ops.push_back("delete " + std::to_string(table_id) + " " + before);
    return Status::OK();
  }
  Status ApplyUpdate(int32_t table_id, const std::string& before,
                     const std::string& after) override {
    ops.push_back("update " + std::to_string(table_id) + " " + before +
                  " -> " + after);
    return Status::OK();
  }

  std::vector<std::string> ops;
};

/// A WAL record of `type` for transaction `txn` on table 0. Row records take
/// `before` / `after` images; a DDL record names its object in `before`.
inline storage::WalRecord TxnRecord(storage::WalRecord::Type type, int64_t txn,
                                    const std::string& before = "",
                                    const std::string& after = "") {
  storage::WalRecord r;
  r.txn_id = txn;
  r.type = type;
  r.table_id = 0;
  r.before = before;
  r.after = after;
  return r;
}

}  // namespace stagedb::test

#endif  // STAGEDB_TESTS_RECORDING_APPLIER_H_
