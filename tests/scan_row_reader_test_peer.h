// Test access to the scan row reader: how many rows the readers turned into
// Values, and readers that interpret their predicate instead of running the
// compiled program.
#ifndef STAGEDB_TESTS_SCAN_ROW_READER_TEST_PEER_H_
#define STAGEDB_TESTS_SCAN_ROW_READER_TEST_PEER_H_

#include <atomic>
#include <cstdint>

#include "exec/executor.h"

namespace stagedb::exec {

class ScanRowReaderTestPeer {
 public:
  /// Rows decoded by every ScanRowReader destroyed so far in this process.
  /// A query's readers are gone once Volcano's ExecutePlan or the staged
  /// engine's Execute returns.
  static int64_t RowsDecoded() { return ScanRowReader::rows_decoded_total_; }

  /// While one exists, readers constructed (a query's are built when it is
  /// planned into executors or packets) interpret every predicate.
  class InterpretPredicates {
   public:
    InterpretPredicates() { ScanRowReader::suppress_program_ = true; }
    ~InterpretPredicates() { ScanRowReader::suppress_program_ = false; }
    InterpretPredicates(const InterpretPredicates&) = delete;
    InterpretPredicates& operator=(const InterpretPredicates&) = delete;
  };
};

}  // namespace stagedb::exec

#endif  // STAGEDB_TESTS_SCAN_ROW_READER_TEST_PEER_H_
