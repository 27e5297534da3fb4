// Tests for the deterministic fault-injection layer (docs/FAULTS.md):
// NetFaultPlan draw streams and wire codec, FaultyTransport over real TCP
// pairs (exactly-once under a heavy fault mix, asymmetric partitions), the
// nemesis DSL (parse / expand / trace determinism), typed control-plane
// timeouts, and a fork-based cluster run under link faults checked against
// the simulator — plus an in-process nemesis partition schedule.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/history/checker.h"
#include "dsm/net/control.h"
#include "dsm/net/faulty_transport.h"
#include "dsm/net/merge.h"
#include "dsm/net/nemesis.h"
#include "dsm/net/process_cluster.h"
#include "dsm/net/socket.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/sim/latency.h"
#include "dsm/sim/reliable.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

/// Drive `loop` until `pred()` holds or `timeout_ms` of wall time passes.
template <typename Pred>
bool pump(NetLoop& loop, Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.poll_once(sim_ms(2));
  }
  return true;
}

struct CapturingSink final : MessageSink {
  std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> got;
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    got.emplace_back(from,
                     std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
};

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------------ draw determinism ---

TEST(FaultPlan, DrawStreamIsAPureFunctionOfThePlan) {
  NetFaultPlan plan;
  plan.seed = 0xFEEDFACE;
  plan.all.drop = 0.3;
  plan.all.delay = 0.2;
  plan.all.delay_min = sim_ms(1);
  plan.all.delay_max = sim_ms(5);
  std::vector<NetFaultPlan::Draw> first;
  for (std::uint64_t i = 0; i < 200; ++i) first.push_back(plan.draw(0, 1, i));
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto d = plan.draw(0, 1, i);
    EXPECT_EQ(d.dropped, first[i].dropped) << i;
    EXPECT_EQ(d.delayed, first[i].delayed) << i;
    EXPECT_EQ(d.delay_us, first[i].delay_us) << i;
  }
  // A different directed link gets an independent stream.
  bool any_differ = false;
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (plan.draw(1, 0, i).dropped != first[i].dropped) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultPlan, EnablingOneFaultNeverPerturbsTheOthers) {
  // All random fields are drawn unconditionally in fixed order: adding
  // duplication to a plan must not change which frames get dropped.
  NetFaultPlan sparse;
  sparse.seed = 42;
  sparse.all.drop = 0.25;
  NetFaultPlan dense = sparse;
  dense.all.duplicate = 0.5;
  dense.all.corrupt = 0.5;
  dense.all.reorder = 0.5;
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(sparse.draw(0, 2, i).dropped, dense.draw(0, 2, i).dropped) << i;
  }
}

TEST(FaultPlan, EncodeDecodeRoundTripsEveryField) {
  NetFaultPlan plan;
  plan.seed = 7;
  plan.all.drop = 0.125;
  plan.all.delay = 0.5;
  plan.all.delay_min = sim_us(100);
  plan.all.delay_max = sim_ms(2);
  plan.all.bytes_per_ms = 64;
  auto& ab = plan.override_link(1, 2);
  ab.blocked = true;
  auto& ba = plan.override_link(2, 1);
  ba.drop = 0.75;
  ba.reorder = 0.25;

  const auto decoded = NetFaultPlan::decode(plan.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seed, 7u);
  EXPECT_EQ(decoded->all.drop, 0.125);
  EXPECT_EQ(decoded->all.delay_max, sim_ms(2));
  EXPECT_EQ(decoded->all.bytes_per_ms, 64u);
  ASSERT_EQ(decoded->links.size(), 2u);
  EXPECT_TRUE(decoded->link(1, 2).blocked);
  EXPECT_FALSE(decoded->link(2, 1).blocked);
  EXPECT_EQ(decoded->link(2, 1).drop, 0.75);
  // The draw streams of original and decoded plans agree.
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.draw(2, 1, i).dropped, decoded->draw(2, 1, i).dropped);
  }
}

TEST(FaultPlan, DecodeRejectsTruncationAndGarbage) {
  NetFaultPlan plan;
  plan.seed = 3;
  plan.override_link(0, 1).blocked = true;
  const auto wire = plan.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(NetFaultPlan::decode(prefix).has_value()) << "cut=" << cut;
  }
  auto trailing = wire;
  trailing.push_back(0xAB);
  EXPECT_FALSE(NetFaultPlan::decode(trailing).has_value());
}

// ------------------------------------- FaultyTransport over real sockets ---

/// Two TcpTransports on one NetLoop, each wrapped in a FaultyTransport, with
/// ReliableNodes on top — the exact layering ProcessNode uses.
class FaultyPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::string> peers(2);
    for (std::size_t p = 0; p < 2; ++p) {
      listen_fds_[p] = net::listen_on(net::Addr{});  // 127.0.0.1:0
      ASSERT_GE(listen_fds_[p], 0);
      peers[p] = "127.0.0.1:" + std::to_string(net::local_port(listen_fds_[p]));
    }
    for (std::size_t p = 0; p < 2; ++p) {
      TcpTransportConfig config;
      config.self = static_cast<ProcessId>(p);
      config.peers = peers;
      config.listen_fd = listen_fds_[p];
      config.reconnect_min = sim_ms(2);
      config.reconnect_max = sim_ms(50);
      transports_[p] = std::make_unique<TcpTransport>(loop_, std::move(config));
      faulty_[p] = std::make_unique<FaultyTransport>(
          loop_, *transports_[p], static_cast<ProcessId>(p));
    }
  }

  void start_both() {
    transports_[0]->start();
    transports_[1]->start();
    ASSERT_TRUE(pump(loop_, [this] {
      return transports_[0]->fully_connected() &&
             transports_[1]->fully_connected();
    })) << "mesh never connected";
  }

  NetLoop loop_;
  int listen_fds_[2] = {-1, -1};
  std::unique_ptr<TcpTransport> transports_[2];
  std::unique_ptr<FaultyTransport> faulty_[2];
};

/// Tentpole acceptance at the transport layer: a hostile link (drops,
/// duplicates, corruption, reordering) between two ReliableNodes still
/// yields exactly-once delivery, with corrupted frames rejected by the
/// receiver's defensive decode rather than delivered mangled.
TEST_F(FaultyPairTest, ArqSurvivesAHostileLinkExactlyOnce) {
  CapturingSink upper[2];
  ReliableConfig arq = net_reliable_defaults();
  arq.rto = sim_ms(10);
  ReliableNode node0(loop_.queue(), *faulty_[0], 0, upper[0], arq);
  ReliableNode node1(loop_.queue(), *faulty_[1], 1, upper[1], arq);
  faulty_[0]->attach(0, node0);
  faulty_[1]->attach(1, node1);

  NetFaultPlan hostile;
  hostile.seed = 99;
  hostile.all.drop = 0.2;
  hostile.all.duplicate = 0.2;
  hostile.all.corrupt = 0.15;
  hostile.all.reorder = 0.15;
  faulty_[1]->set_plan(hostile);
  start_both();

  constexpr std::size_t kMessages = 40;
  for (std::size_t i = 0; i < kMessages; ++i) {
    node1.send(0, make_payload(bytes_of("m" + std::to_string(i))));
    loop_.poll_once(sim_us(200));
  }
  ASSERT_TRUE(pump(loop_, [&] {
    return upper[0].got.size() == kMessages && node1.quiescent();
  }, 20'000)) << "delivered " << upper[0].got.size();

  std::vector<std::string> delivered;
  for (const auto& [from, bytes] : upper[0].got) {
    EXPECT_EQ(from, 1u);
    delivered.emplace_back(bytes.begin(), bytes.end());
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(std::unique(delivered.begin(), delivered.end()), delivered.end());
  EXPECT_EQ(delivered.size(), kMessages);

  // The shim really injected, the ARQ really repaired, and every corrupted
  // frame was caught by the receiver's decode (never delivered mangled).
  const FaultStatsNet& fs = faulty_[1]->stats();
  EXPECT_GT(fs.dropped, 0u);
  EXPECT_GT(fs.duplicated, 0u);
  EXPECT_GT(fs.corrupted, 0u);
  EXPECT_GE(node1.stats().retransmissions, fs.dropped);
  EXPECT_GE(node0.stats().malformed_dropped, fs.corrupted);
  EXPECT_EQ(node1.stats().abandoned, 0u);
}

TEST_F(FaultyPairTest, AsymmetricPartitionBlocksExactlyOneDirection) {
  CapturingSink sinks[2];
  faulty_[0]->attach(0, sinks[0]);
  faulty_[1]->attach(1, sinks[1]);

  NetFaultPlan plan;
  plan.override_link(0, 1).blocked = true;  // 0→1 dead, 1→0 alive
  faulty_[0]->set_plan(plan);
  start_both();

  for (int i = 0; i < 3; ++i) {
    faulty_[0]->send(0, 1, make_payload(bytes_of("into the void")));
    faulty_[1]->send(1, 0, make_payload(bytes_of("gets through")));
  }
  ASSERT_TRUE(pump(loop_, [&] { return sinks[0].got.size() == 3; }));
  EXPECT_TRUE(sinks[1].got.empty());
  EXPECT_EQ(faulty_[0]->stats().blocked, 3u);
  EXPECT_EQ(faulty_[1]->stats().blocked, 0u);

  // Healing the partition (a fresh plan) lets traffic flow again.
  faulty_[0]->set_plan(NetFaultPlan{});
  faulty_[0]->send(0, 1, make_payload(bytes_of("after heal")));
  ASSERT_TRUE(pump(loop_, [&] { return !sinks[1].got.empty(); }));
  EXPECT_EQ(sinks[1].got.back().second, bytes_of("after heal"));
}

TEST_F(FaultyPairTest, PlanUpdateKeepsFrameCountersAligned) {
  // set_plan must not reset the per-link frame index: the draw stream
  // continues where it left off, so a nemesis heal/start cycle replays
  // identically across runs.
  CapturingSink sinks[2];
  faulty_[0]->attach(0, sinks[0]);
  faulty_[1]->attach(1, sinks[1]);
  NetFaultPlan plan;
  plan.seed = 5;
  plan.all.drop = 0.5;
  faulty_[0]->set_plan(plan);
  start_both();

  // Predict which of the first 20 sends survive, straight from the plan.
  std::size_t expect_through = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (!plan.draw(0, 1, i).dropped) ++expect_through;
  }
  for (int i = 0; i < 10; ++i) {
    faulty_[0]->send(0, 1, make_payload(bytes_of("x")));
  }
  faulty_[0]->set_plan(plan);  // mid-stream re-install, same mix
  for (int i = 0; i < 10; ++i) {
    faulty_[0]->send(0, 1, make_payload(bytes_of("x")));
  }
  ASSERT_TRUE(pump(loop_, [&] {
    return sinks[1].got.size() >= expect_through;
  })) << "got " << sinks[1].got.size() << " want " << expect_through;
  // Drain any stragglers, then confirm the exact count.
  for (int i = 0; i < 50; ++i) loop_.poll_once(sim_us(500));
  EXPECT_EQ(sinks[1].got.size(), expect_through);
  EXPECT_EQ(faulty_[0]->stats().dropped, 20 - expect_through);
}

// --------------------------------------------------------- nemesis DSL -----

TEST(Nemesis, ParsesAFullSpec) {
  std::string err;
  const auto plan = NemesisPlan::parse(
      "seed=9;drop=0.1;dup=0.05;corrupt=0.02;reorder=0.1;"
      "delay=0.2:1:8;throttle=512;partition=1:2@15+30;flap=0:2@10+5x3;"
      "crash=0@40;wal-fail=1:enospc@3",
      /*n_procs=*/3, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_EQ(plan->base.drop, 0.1);
  EXPECT_EQ(plan->base.duplicate, 0.05);
  EXPECT_EQ(plan->base.corrupt, 0.02);
  EXPECT_EQ(plan->base.delay, 0.2);
  EXPECT_EQ(plan->base.delay_min, sim_ms(1));
  EXPECT_EQ(plan->base.delay_max, sim_ms(8));
  EXPECT_EQ(plan->base.bytes_per_ms, 512u);
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].from, 1u);
  EXPECT_EQ(plan->partitions[0].to, 2u);
  EXPECT_EQ(plan->partitions[0].at_ms, 15u);
  EXPECT_EQ(plan->partitions[0].dur_ms, 30u);
  ASSERT_EQ(plan->flaps.size(), 1u);
  EXPECT_EQ(plan->flaps[0].count, 3u);
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_TRUE(plan->has_crashes());
  ASSERT_EQ(plan->wal_fails.size(), 1u);
  EXPECT_EQ(plan->wal_fails[0].first, 1u);
  EXPECT_EQ(plan->wal_fails[0].second.kind, StorageFailpoint::Kind::kEnospc);
  EXPECT_EQ(plan->wal_fails[0].second.at_call, 3u);
  // The boot plan carries the seed and base mix with no overrides.
  const auto boot = plan->boot_plan();
  EXPECT_EQ(boot.seed, 9u);
  EXPECT_EQ(boot.all.drop, 0.1);
  EXPECT_TRUE(boot.links.empty());
}

TEST(Nemesis, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop=1.5",           // probability out of range
      "drop=x",             // not a number
      "partition=0:9@5+5",  // node out of range
      "partition=1:1@5+5",  // self-partition
      "crash=5@10",         // node out of range
      "flap=0:1@5",         // missing +GAPxCNT
      "wal-fail=0:bad@1",   // unknown failure kind
      "wibble=3",           // unknown key
      "seed=",              // empty value
      "partition=0:1",      // missing @MS+DUR
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(NemesisPlan::parse(spec, 3, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// Every number in a spec is a strict decimal u64: no sign (strtoull would
// accept one and wrap), and no window whose end overflows — a wrapped heal
// would land before its partition and never fire.
TEST(Nemesis, RejectsSignsAndOverflowingWindows) {
  const char* bad[] = {
      "crash=0@-5",                              // wraps to 2^64-5 ms
      "crash=0@+40",                             // explicit sign
      "seed=-1",
      "throttle=-5",
      "partition=1:2@-5+10",                     // heal before start
      "partition=1:2@18446744073709551610+10",   // MS+DUR overflows
      "flap=0:1@18446744073709551615+1x2",       // MS+GAP overflows
      "flap=0:1@1+9223372036854775808x3",        // GAP*(CNT-1) overflows
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(NemesisPlan::parse(spec, 3, &err).has_value()) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
  // The largest window that still fits keeps its heal after its start.
  const auto edge =
      NemesisPlan::parse("partition=1:2@18446744073709551605+10", 3, nullptr);
  ASSERT_TRUE(edge.has_value());
  const auto events = expand(*edge);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().kind, NemesisEvent::Kind::kPartitionHeal);
  EXPECT_EQ(events.back().at_ms, std::numeric_limits<std::uint64_t>::max());
}

TEST(Nemesis, ExpandIsSortedAndDeterministic) {
  std::string err;
  const auto plan = NemesisPlan::parse(
      "partition=2:0@30+10;partition=0:1@5+30;flap=1:2@20+4x2;crash=1@20",
      3, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  const auto events = expand(*plan);
  // 2 partitions × (start+heal) + 2 flaps + 1 crash = 7 events, time-sorted.
  ASSERT_EQ(events.size(), 7u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at_ms, events[i].at_ms) << i;
  }
  EXPECT_EQ(events.front().at_ms, 5u);
  EXPECT_EQ(events.front().kind, NemesisEvent::Kind::kPartitionStart);
  // The rendered trace is byte-identical across a reparse.
  const auto again = NemesisPlan::parse(
      "partition=2:0@30+10;partition=0:1@5+30;flap=1:2@20+4x2;crash=1@20",
      3, nullptr);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(trace_str(events), trace_str(expand(*again)));
  EXPECT_NE(trace_str(events).find("+5ms partition 0->1 start"),
            std::string::npos);
  EXPECT_NE(trace_str(events).find("+20ms crash p1"), std::string::npos);
}

// ------------------------------------------------- control-plane faults ----

TEST(ControlFaults, TimeoutRendersAsControlTimeout) {
  EXPECT_EQ(to_string(ControlError::kTimeout), "ControlTimeout");
  EXPECT_EQ(to_string(ControlError::kNone), "none");
}

TEST(ControlFaults, SilentListenerSurfacesATypedTimeout) {
  // A listener that accepts but never answers: the call must come back as
  // kTimeout within the deadline instead of wedging the driver.
  const int listen_fd = net::listen_on(net::Addr{});  // 127.0.0.1:0
  ASSERT_GE(listen_fd, 0);
  net::Addr addr;
  addr.port = net::local_port(listen_fd);
  ControlClient client;
  ASSERT_TRUE(client.connect(addr, 1000));
  ControlMessage ping;
  ping.op = ControlOp::kPing;
  const auto start = std::chrono::steady_clock::now();
  const auto reply = client.call(ping, /*timeout_ms=*/300);
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(client.last_error(), ControlError::kTimeout);
  EXPECT_LT(took, std::chrono::seconds(5));
  ::close(listen_fd);
}

// ------------------------------------------- fork-based cluster chaos ------

/// The per-run total of every injected-fault counter across the cluster.
FaultStatsNet total_faults(ProcessCluster& cluster) {
  FaultStatsNet total;
  for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
    const auto stats = cluster.fetch_stats(p);
    EXPECT_TRUE(stats.has_value()) << "process " << p;
    if (!stats.has_value()) continue;
    total += stats->faults;
  }
  return total;
}

/// Chaos acceptance: Ĥ₁ under a seeded drop+reorder mix still merges to a
/// checker-clean log that matches the simulator byte for byte — the fault
/// layer perturbs timing, never outcomes.
TEST(ClusterChaos, H1UnderLinkFaultsMatchesSimulator) {
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  config.net_faults.seed = 7;
  config.net_faults.all.drop = 0.05;
  config.net_faults.all.reorder = 0.05;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  ASSERT_TRUE(cluster.run(paper::make_h1_scripts(), /*time_scale=*/3000));
  ASSERT_TRUE(cluster.wait_done());

  const FaultStatsNet faults = total_faults(cluster);
  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < 3; ++p) {
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value()) << "process " << p;
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  const auto report =
      OptimalityAuditor::audit(merged->history, merged->events);
  EXPECT_TRUE(report.safe());
  EXPECT_TRUE(report.live());

  const ConstantLatency latency(sim_us(10));
  SimRunConfig sim_config;
  sim_config.n_procs = 3;
  sim_config.n_vars = 2;
  sim_config.latency = &latency;
  const auto sim = run_sim(sim_config, paper::make_h1_scripts());
  ASSERT_TRUE(sim.settled);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sequence_str(runs[p].events, p), sim.recorder->sequence_str(p))
        << "process " << p << " (faults: dropped=" << faults.dropped
        << " reordered=" << faults.reordered << ")";
  }
}

/// An in-process nemesis schedule: a rolling asymmetric partition over a
/// dense write load.  The schedule must execute, block real traffic, and
/// the post-reconcile merge must stay consistent.
TEST(ClusterChaos, NemesisPartitionScheduleRunsAndReconciles) {
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());

  constexpr Value kLast = 30;
  std::vector<Script> scripts(3);
  for (Value v = 1; v <= kLast; ++v) {
    scripts[0].push_back(write_step(sim_ms(2), 0, v));
  }
  scripts[1].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  scripts[2].push_back(read_until_step(0, 0, kLast, sim_ms(1)));

  std::string err;
  const auto plan = NemesisPlan::parse(
      "seed=11;partition=0:1@5+25;partition=0:2@20+20", 3, &err);
  ASSERT_TRUE(plan.has_value()) << err;

  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));
  const auto outcome = run_nemesis(cluster, *plan, scripts, /*time_scale=*/1);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(cluster.wait_done());

  const FaultStatsNet faults = total_faults(cluster);
  EXPECT_GT(faults.blocked, 0u);  // the partitions really ate frames

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < 3; ++p) {
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value());
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  // Both readers eventually saw the final write despite the partitions.
  for (ProcessId p = 1; p <= 2; ++p) {
    bool saw_last = false;
    for (const OpRef ref : runs[p].history.local(p)) {
      const Operation& op = runs[p].history.op(ref);
      if (!op.is_write() && op.value == kLast) saw_last = true;
    }
    EXPECT_TRUE(saw_last) << "process " << p;
  }
}

}  // namespace
}  // namespace dsm
