// A node's run log past the control-frame cap, fetched through the kFetchLog
// cursor from a live forked cluster.  The run has 51 000 writes, so it is
// kept out of the sanitize/net labels: instrumented nodes fall far behind
// its 5 µs script steps.  The cluster tests of test_net.cpp run the same
// fetch path there on smaller logs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/audit/trace_io.h"
#include "dsm/history/checker.h"
#include "dsm/net/frame.h"
#include "dsm/net/merge.h"
#include "dsm/net/process_cluster.h"

namespace dsm {
namespace {

/// A run whose node logs would not fit one control frame as JSONL — the
/// single-reply fetch answered kError past kMaxFrameBytes — arrives in full
/// through the kFetchLog cursor, op by op and event by event.
TEST(ProcessClusterTest, LogPastTheFrameCapIsFetchedByCursor) {
  constexpr std::size_t kProcs = 3;
  constexpr std::size_t kWrites = 17'000;  // per node
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
    EXPECT_GT(export_trace_jsonl(runs[p].history, runs[p].events).size(),
              kMaxFrameBytes);
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
}

}  // namespace
}  // namespace dsm
