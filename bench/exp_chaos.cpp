// exp_chaos — the process-tier chaos sweep: nemesis schedules × drop rates
// over a real forked cluster (EXPERIMENTS.md; docs/FAULTS.md).
//
// Every cell runs the same dense write workload under a different fault
// regime — steady link noise, rolling asymmetric partitions, reconnect
// churn, or a SIGKILL crash with a WAL failpoint — through the same
// `--nemesis` DSL the CLI exposes, so the bench doubles as an end-to-end
// exercise of NemesisPlan::parse + run_nemesis.  Each node's final log is
// merged as fetched: a crashed node's respawn replayed its WAL into its log,
// so that log holds the whole run.  Causal consistency of the merged log is
// a HARD requirement: a violation aborts the bench, it is never a table
// column that quietly reads "no".  Reported instead: wall time,
// injected-fault volume, the ARQ repair bill, and the storage-failpoint
// accounting.

#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "dsm/history/checker.h"
#include "dsm/net/merge.h"
#include "dsm/net/nemesis.h"
#include "dsm/net/process_cluster.h"

namespace {

using namespace dsm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kProcs = 3;
constexpr Value kLast = 30;

/// p0 streams 30 writes at a 2ms cadence; p1/p2 poll for the final value —
/// dense enough that every fault window has traffic in flight.
std::vector<Script> make_workload() {
  std::vector<Script> scripts(kProcs);
  for (Value v = 1; v <= kLast; ++v) {
    scripts[0].push_back(write_step(sim_ms(2), 0, v));
  }
  scripts[1].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  scripts[2].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  return scripts;
}

struct CellStats {
  double wall_ms = 0;
  std::uint64_t faults = 0;   ///< dropped+duplicated+corrupted+reordered
  std::uint64_t blocked = 0;  ///< partition-eaten frames
  std::uint64_t retx = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t wal_retries = 0;
  std::uint64_t wal_fsync_errors = 0;
};

/// One (schedule, drop) cell.  False aborts the sweep (setup failure or a
/// consistency violation).
bool run_cell(const std::string& schedule_name, const std::string& spec,
              double drop, CellStats* out) {
  std::string err;
  const auto plan = NemesisPlan::parse(spec, kProcs, &err);
  if (!plan.has_value()) {
    std::fprintf(stderr, "bad nemesis spec '%s': %s\n", spec.c_str(),
                 err.c_str());
    return false;
  }

  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = kProcs;
  config.shape.n_vars = 1;
  config.net_faults = plan->boot_plan();
  config.net_faults.all.drop = drop;
  config.storage_fail = plan->wal_fails;

  std::string state_dir;
  if (plan->has_crashes() || !plan->wal_fails.empty()) {
    state_dir = "/tmp/optcm-chaos-bench-XXXXXX";
    if (::mkdtemp(state_dir.data()) == nullptr) return false;
    config.shape.recoverable = true;
    config.state_dir = state_dir;
  }

  const auto scripts = make_workload();
  bool ok = false;
  CellStats stats;
  {
    ProcessCluster cluster(config);
    if (!cluster.spawn() || !cluster.wait_ready()) goto done;
    {
      const auto t0 = Clock::now();
      if (!cluster.run(scripts, /*time_scale=*/1)) goto done;
      const auto outcome = run_nemesis(cluster, *plan, scripts, 1);
      if (!outcome.ok) {
        std::fprintf(stderr, "nemesis failed (%s): %s\n",
                     schedule_name.c_str(), outcome.error.c_str());
        goto done;
      }
      if (!cluster.wait_done()) goto done;
      stats.wall_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - t0)
                          .count();

      NodeNetStats total;
      for (ProcessId p = 0; p < kProcs; ++p) {
        const auto s = cluster.fetch_stats(p);
        if (!s.has_value()) goto done;
        total += *s;
      }
      stats.faults = total.faults.dropped + total.faults.duplicated +
                     total.faults.corrupted + total.faults.reordered;
      stats.blocked = total.faults.blocked;
      stats.retx = total.reliable.retransmissions;
      stats.dup_suppressed = total.reliable.duplicates_suppressed;
      stats.wal_retries = total.wal.write_retries;
      stats.wal_fsync_errors = total.wal.fsync_errors;

      std::vector<ImportedRun> runs;
      for (ProcessId p = 0; p < kProcs; ++p) {
        auto run = cluster.fetch_log(p);
        if (!run.has_value()) goto done;
        runs.push_back(std::move(*run));
      }
      const auto merged = merge_runs(runs);
      if (!merged.has_value() ||
          !ConsistencyChecker::check(merged->history).consistent()) {
        std::fprintf(stderr,
                     "CONSISTENCY VIOLATION in cell (%s, drop=%.2f)\n",
                     schedule_name.c_str(), drop);
        goto done;
      }
    }
    ok = cluster.shutdown();
  }
done:
  if (!state_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }
  *out = stats;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!dsm::bench::init_bench_json(argc, argv)) return 2;
  using dsm::Table;
  using dsm::bench::emit;

  // Schedules expressed in the `optcm drive --nemesis` DSL.  Event times sit
  // inside the workload's ~60ms write window.
  const std::vector<std::pair<std::string, std::string>> schedules = {
      {"steady", "seed=101"},
      {"partition", "seed=101;partition=0:1@5+20;partition=0:2@15+20"},
      {"flap", "seed=101;flap=1:0@5+10x3"},
      {"crash", "seed=101;crash=1@20;wal-fail=1:eio@1"},
  };
  const std::vector<double> drops = {0.0, 0.05, 0.2};

  Table table({"schedule", "drop", "wall (ms)", "faults", "blocked", "retx",
               "dup suppr", "wal retries", "fsync errs"});
  for (const auto& [name, spec] : schedules) {
    for (const double drop : drops) {
      CellStats s;
      if (!run_cell(name, spec, drop, &s)) return 1;
      table.add(name, drop, s.wall_ms, s.faults, s.blocked, s.retx,
                s.dup_suppressed, s.wal_retries, s.wal_fsync_errors);
    }
  }
  emit("nemesis schedule x drop rate (3-process cluster, 30 writes)", table);

  return dsm::bench::finish_bench_json("exp_chaos") ? 0 : 1;
}
