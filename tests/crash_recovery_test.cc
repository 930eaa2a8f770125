// Drives the fork/kill/recover/verify loop of tools/crash_harness from the
// test suite: randomized kill points on both the clean-kill and
// fault-injection (torn-write) paths, zero lost acked commits, zero
// divergence from the shadow model. Heavier sweeps run in CI via the
// crash_harness binary; this keeps a deterministic slice in every ctest run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "tools/crash_harness.h"

namespace stagedb {
namespace {

// ThreadSanitizer does not support fork-heavy tests (the child inherits a
// snapshot of the TSan runtime's state and may self-deadlock).
bool RunningUnderTsan() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

tools::CrashHarnessOptions BaseOptions(const std::string& tag) {
  tools::CrashHarnessOptions options;
  options.dir = testing::TempDir() + "/stagedb_crash_" + tag + "_" +
                std::to_string(::getpid());
  options.seed = 0xC0FFEE;
  options.iterations = 4;
  options.threads = 3;
  options.ops_per_thread = 200;
  return options;
}

TEST(CrashRecoveryTest, CleanKillNeverLosesAckedCommits) {
  if (RunningUnderTsan()) GTEST_SKIP() << "fork unsupported under TSan";
  auto options = BaseOptions("clean");
  options.mode = tools::CrashHarnessOptions::Mode::kClean;
  EXPECT_EQ(tools::RunCrashHarness(options), 0);
}

TEST(CrashRecoveryTest, TornWriteTailNeverLosesAckedCommits) {
  if (RunningUnderTsan()) GTEST_SKIP() << "fork unsupported under TSan";
  auto options = BaseOptions("fault");
  options.mode = tools::CrashHarnessOptions::Mode::kFault;
  EXPECT_EQ(tools::RunCrashHarness(options), 0);
}

}  // namespace
}  // namespace stagedb
