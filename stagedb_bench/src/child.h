// The forked server process: one Database + NetServer per workload, driven
// by the load generator over TCP and controlled over a pair of pipes.
//
// Control protocol (one text line per command, parent -> child):
//   snap   — record the window-start stats snapshot; replies "ok"
//   end    — record the window-end snapshot; replies "key value" lines of
//            counter deltas, then "done"
//   replay — embedded pass: re-runs a sample of the generated statements
//            through the public entry points in pipeline order, timing each
//            call; replies "key value" lines, then "done"
//   quit   — graceful NetServer::Stop, then exit 0 (EOF does the same)
// On start the child replies "ready <port>" once tables, indexes and the
// listener exist, or "fail <reason>".
#ifndef STAGEDB_BENCH_CHILD_H_
#define STAGEDB_BENCH_CHILD_H_

#include "bench.h"

namespace bench {

/// Number of base rows of the workload's main table(s).
int64_t TableRows(const Config& cfg);

/// Entry point of the forked child; never returns.
[[noreturn]] void ChildMain(const Config& cfg, int cmd_fd, int resp_fd);

}  // namespace bench

#endif  // STAGEDB_BENCH_CHILD_H_
