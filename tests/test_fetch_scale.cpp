// A node's run log past the control-frame cap, fetched through the kFetchLog
// cursor from a live forked cluster.  The run has 300 000 writes, so it is
// kept out of the sanitize/net labels: instrumented nodes fall far behind
// its 5 µs script steps.  The cluster tests of test_net.cpp run the same
// fetch path there on smaller logs.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>
#include <vector>

#include "dsm/audit/trace_io.h"
#include "dsm/history/checker.h"
#include "dsm/net/frame.h"
#include "dsm/net/merge.h"
#include "dsm/net/process_cluster.h"

namespace dsm {
namespace {

/// The encoded size of a fetched node log: its records logged again.
std::uint64_t encoded_bytes(const ImportedRun& run) {
  RunRecorder log(run.history.n_procs(), run.history.n_vars());
  for (const Operation& op : run.history.all_ops()) log.restore_op(op);
  for (const RunEvent& e : run.events) log.restore_event(e);
  return log.log_bytes();
}

/// A run whose node logs would not fit one control frame — the
/// single-reply fetch answered kError past kMaxFrameBytes — arrives in full
/// through the kFetchLog cursor, op by op and event by event.
TEST(ProcessClusterTest, LogPastTheFrameCapIsFetchedByCursor) {
  // Five nodes, so each logs four remote writes per own write: one kRun
  // takes at most 65 536 script steps.
  constexpr std::size_t kProcs = 5;
  constexpr std::size_t kWrites = 60'000;  // per node
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = kProcs;
  config.shape.n_vars = 2;
  std::vector<Script> scripts(kProcs);
  for (std::size_t p = 0; p < kProcs; ++p) {
    for (std::size_t i = 0; i < kWrites; ++i) {
      scripts[p].push_back(
          write_step(sim_us(5), static_cast<VarId>(i % 2),
                     static_cast<Value>(1'000'000'000'000'000 + i)));
    }
  }
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));
  ASSERT_TRUE(cluster.wait_done());

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < kProcs; ++p) {
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value()) << "process " << p;
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  for (ProcessId p = 0; p < kProcs; ++p) {
    SCOPED_TRACE("process " + std::to_string(p));
    EXPECT_GT(encoded_bytes(runs[p]), kMaxFrameBytes);
    EXPECT_EQ(runs[p].history.local(p).size(), kWrites);
    // A send and a local apply per own write; a receipt and an apply per
    // remote write.
    EXPECT_EQ(runs[p].events.size(), 2 * kProcs * kWrites);
    for (std::size_t i = 0; i < runs[p].events.size(); ++i) {
      ASSERT_EQ(runs[p].events[i].at, p) << "event " << i;
    }
  }
  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  // The driver's peak resident set, for the record (no bound): see it with
  // --gtest_output=xml.
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  RecordProperty("driver_peak_rss_kib", std::to_string(usage.ru_maxrss));
}

}  // namespace
}  // namespace dsm
