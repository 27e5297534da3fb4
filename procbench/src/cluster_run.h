// procbench — one timed run of a Plan on a forked ProcessCluster.
//
// The driver measures only what it can see from outside the nodes:
//   setup  spawn() → wait_ready()   (durable boot included)
//   run    run()   → wait_done(), in wall time and in the CPU time the node
//          processes spent (/proc/<pid>/schedstat)
// Counts come from fetch_stats, fetch_log and the files in the state dir.
// Every run is checked exactly before its numbers count.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dsm/audit/trace_io.h"
#include "dsm/net/control.h"
#include "workloads.h"

namespace procbench {

struct RepOptions {
  /// Durable nodes (`optcm serve --state-dir` defaults: fsync on every
  /// record, one snapshot per mutation) in a fresh `<state_root>/run-<pid>-<k>`
  /// directory, removed again before run_rep returns.
  bool durable = false;
  std::string state_root;
  /// Called with the state dir after the nodes have shut down and before the
  /// directory is removed (the traced mode replays the storage layer there).
  std::function<void(const std::string&)> inspect_state;
  /// Fetch and check every node's log.  Without logs the await check rests
  /// on timing: a run that ends before kAwaitTimeout cannot contain an await
  /// that reached it.
  bool fetch_logs = true;
};

struct RepResult {
  std::string error;  ///< empty when the run and every check passed
  double setup_s = 0;
  double run_s = 0;
  double ctl_rtt_us = 0;     ///< one kPing round trip, after wait_ready
  double node_cpu_s = 0;     ///< CPU time of all nodes from run() to wait_done()
  /// Largest node's anonymous resident memory (RssAnon) at run end minus at
  /// ready: what the node itself holds for the workload.
  double node_anon_mb = 0;
  std::uint64_t state_bytes = 0;  ///< bytes left in the state dir (durable)
  std::vector<dsm::NodeNetStats> stats_before;  ///< per node, before kRun
  std::vector<dsm::NodeNetStats> stats;         ///< per node, after the run
  std::vector<dsm::ImportedRun> logs;  ///< per node, when fetched
};

/// Spawns a cluster, runs `plan` once, fetches stats (and logs, if asked),
/// shuts down and checks the run exactly: each node's ARQ sent its writes to
/// every peer and delivered exactly the other nodes' writes (and wait_done
/// saw every protocol quiescent, so each was applied), nothing was abandoned
/// or malformed, no frame errors, and no await reached its timeout.  With
/// logs, also: each node recorded exactly its script and applied every write
/// once.  Never throws; a failure is reported in `error`.
[[nodiscard]] RepResult run_rep(const Plan& plan, const RepOptions& options,
                                std::size_t rep_index);

/// Name of the filesystem holding `path` ("ext4", "tmpfs", …).
[[nodiscard]] std::string filesystem_type(const std::string& path);

}  // namespace procbench
