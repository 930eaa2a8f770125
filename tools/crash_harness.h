// Crash-recovery harness: forks a child that runs randomized DML against a
// WAL-backed database, kills it at a random point (optionally mid-write via
// the storage fault injector, producing dropped/short/torn tails), restarts,
// recovers, and diffs every table against a shadow model built from the
// child's acked-operation journal.
//
// The invariant under test is the group-commit ack contract: an operation the
// child observed as successful (journaled "A" after Execute returned OK) must
// survive the crash; an operation in flight at the kill (journaled "B" with no
// "A") may have committed or not, but nothing else may differ. Recovery must
// also restore the commit-timestamp high-water mark, so snapshots taken after
// the restart see everything the crashed process acked.
#ifndef STAGEDB_TOOLS_CRASH_HARNESS_H_
#define STAGEDB_TOOLS_CRASH_HARNESS_H_

#include <cstdint>
#include <string>

namespace stagedb::tools {

struct CrashHarnessOptions {
  enum class Mode {
    kClean,  ///< SIGKILL from the parent after a random delay
    kFault,  ///< fault injector kills the child mid-WAL-write
    kMix,    ///< alternate between the two
  };

  uint64_t seed = 1;
  int iterations = 1;
  /// Working directory for per-iteration WAL + journal files. Empty = a
  /// directory under the system temp dir. Artifacts of failed iterations
  /// are kept; successful ones are deleted.
  std::string dir;
  Mode mode = Mode::kMix;
  int threads = 3;
  int ops_per_thread = 400;
  bool verbose = false;
};

/// Runs `options.iterations` crash/recover/verify cycles. Returns the number
/// of failed iterations (0 = all invariants held). Prints the seed and keeps
/// the WAL + journal of any failing iteration for replay.
int RunCrashHarness(const CrashHarnessOptions& options);

/// Parses --flag=value / --flag value style arguments into `options`.
/// Returns false (after printing usage to stderr) on an unknown flag.
bool ParseCrashHarnessArgs(int argc, char** argv, CrashHarnessOptions* options);

}  // namespace stagedb::tools

#endif  // STAGEDB_TOOLS_CRASH_HARNESS_H_
