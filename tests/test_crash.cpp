// Crash/recovery tests: protocol checkpoints (snapshot/restore), the sim
// harness's crash mode (checkpoint + the peers' ARQ resends, Theorems 4/5
// under crashes and partitions), determinism with faults enabled, and the
// kill()/restart() path of CausalMemory's replica threads.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/audit/trace_render.h"
#include "dsm/codec/codec.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/net/causal_memory.h"
#include "dsm/protocols/registry.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------- snapshot/restore roundtrips ---

struct NullObs final : ProtocolObserver {};

/// Endpoint that parks every outgoing frame for manual delivery, so tests
/// can checkpoint a protocol with a NON-empty pending buffer.
class ParkingEndpoint final : public Endpoint {
 public:
  void broadcast(Payload bytes) override { parked.push_back(*bytes); }
  void send(ProcessId, Payload bytes) override { parked.push_back(*bytes); }
  std::vector<std::vector<std::uint8_t>> parked;
};

class SnapshotRoundtrip : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SnapshotRoundtrip, RestoreReproducesStateAndResnapshotsIdentically) {
  const ProtocolKind kind = GetParam();
  NullObs obs;
  ParkingEndpoint ep0;
  ParkingEndpoint ep2;
  const auto p0 = make_protocol(kind, 0, 3, 4, ep0, obs);
  const auto p2 = make_protocol(kind, 2, 3, 4, ep2, obs);
  p0->start();
  p2->start();

  // p0 issues two writes; p2 receives them OUT of order so the second one
  // sits in its pending buffer — the checkpoint must carry that buffer.
  p0->write(0, 11);
  p0->write(1, 22);
  ASSERT_EQ(ep0.parked.size(), 2u);
  p2->on_message(0, ep0.parked[1]);
  ByteWriter w;
  p2->snapshot(w);
  const std::vector<std::uint8_t> checkpoint = std::move(w).take();

  ParkingEndpoint ep2b;
  const auto fresh = make_protocol(kind, 2, 3, 4, ep2b, obs);
  ByteReader r(checkpoint);
  ASSERT_TRUE(fresh->restore(r));
  EXPECT_TRUE(r.exhausted());

  // Checkpoints are canonical: re-snapshotting the restored instance must
  // reproduce the exact bytes (stats are deliberately not included).
  ByteWriter w2;
  fresh->snapshot(w2);
  EXPECT_EQ(std::move(w2).take(), checkpoint);

  // Both instances then finish the run identically once the gap arrives.
  p2->on_message(0, ep0.parked[0]);
  fresh->on_message(0, ep0.parked[0]);
  for (VarId x = 0; x < 4; ++x) {
    EXPECT_EQ(p2->peek(x).value, fresh->peek(x).value) << "var " << x;
    EXPECT_EQ(p2->peek(x).writer, fresh->peek(x).writer) << "var " << x;
  }
  EXPECT_EQ(p2->quiescent(), fresh->quiescent());
}

TEST_P(SnapshotRoundtrip, TruncatedCheckpointIsRejected) {
  const ProtocolKind kind = GetParam();
  NullObs obs;
  ParkingEndpoint ep;
  const auto proto = make_protocol(kind, 1, 3, 4, ep, obs);
  proto->write(2, 7);
  ByteWriter w;
  proto->snapshot(w);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  ASSERT_GT(bytes.size(), 1u);
  bytes.resize(bytes.size() / 2);

  ParkingEndpoint ep2;
  const auto fresh = make_protocol(kind, 1, 3, 4, ep2, obs);
  ByteReader r(bytes);
  EXPECT_FALSE(fresh->restore(r));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SnapshotRoundtrip,
    ::testing::Values(ProtocolKind::kOptP, ProtocolKind::kOptPWs,
                      ProtocolKind::kAnbkh, ProtocolKind::kAnbkhWs,
                      ProtocolKind::kOptPConv),
    [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ------------------------------------------------- sim-harness crash mode --

struct CrashParams {
  ProtocolKind kind;
  std::size_t crashes;
  SimTime partition_len;  // 0 = none
  double drop;
  std::uint64_t seed;
};

// Names the row in the test name; gtest's default byte dump would include
// the struct's indeterminate padding and change from build to build.
void PrintTo(const CrashParams& p, std::ostream* os) {
  *os << "crash=" << p.crashes << " cut=" << p.partition_len / sim_ms(1)
      << "ms drop=" << p.drop;
}

SimRunConfig crash_config(const CrashParams& p, const LatencyModel& latency) {
  SimRunConfig cfg;
  cfg.kind = p.kind;
  cfg.n_procs = 4;
  cfg.n_vars = 4;
  cfg.latency = &latency;
  cfg.fault.drop = p.drop;
  cfg.fault.seed = p.seed ^ 0xFA;
  if (p.partition_len > 0) {
    cfg.fault.split({0}, cfg.n_procs, sim_ms(6), sim_ms(6) + p.partition_len);
  }
  for (std::size_t i = 0; i < p.crashes; ++i) {
    CrashEvent e;
    e.p = static_cast<ProcessId>(1 + i % 3);
    e.at = sim_ms(4) + static_cast<SimTime>(i) * sim_ms(9);
    e.restart_at = e.at + sim_ms(6);
    cfg.crash.events.push_back(e);
  }
  cfg.arq.rto = sim_ms(2);
  return cfg;
}

std::vector<Script> crash_workload(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 4;
  spec.ops_per_proc = 40;
  spec.write_fraction = 0.5;
  spec.mean_gap = sim_us(400);
  spec.seed = seed;
  return generate_workload(spec);
}

class CrashSweep : public ::testing::TestWithParam<CrashParams> {};

TEST_P(CrashSweep, SurvivingHistoryPassesEveryCheck) {
  const auto& p = GetParam();
  const UniformLatency latency(sim_us(100), sim_us(900), p.seed ^ 0xA0);
  const auto result = run_sim(crash_config(p, latency), crash_workload(p.seed));

  ASSERT_TRUE(result.settled);
  EXPECT_EQ(result.reliable.abandoned, 0u);

  // Every crash recovered: restarted, caught up, buffer drained (Theorem 5
  // liveness across crash/restart).
  ASSERT_EQ(result.recoveries.size(), p.crashes);
  for (const RecoveryRecord& rec : result.recoveries) {
    EXPECT_TRUE(rec.recovered) << "p" << rec.proc;
    EXPECT_GE(rec.recovered_at, rec.restarted_at);
  }
  if (p.crashes > 0) {
    // The ARQ repaired the crashes: restored windows and RESEND answers
    // count as retransmissions.
    EXPECT_GT(result.reliable.retransmissions, 0u);
  }

  EXPECT_TRUE(
      ConsistencyChecker::check(result.recorder->history()).consistent());
  const auto audit = OptimalityAuditor::audit(*result.recorder);
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  if (p.kind == ProtocolKind::kOptP) {
    // Theorem 4 survives recovery: checkpoints never roll back an apply, so
    // a restarted process cannot manufacture false causality.
    EXPECT_EQ(audit.total_unnecessary(), 0u);
  }
}

const CrashParams kCrashGrid[] = {
    {ProtocolKind::kOptP, 1, 0, 0.0, 21},
    {ProtocolKind::kOptP, 2, 0, 0.2, 22},
    {ProtocolKind::kOptP, 3, sim_ms(10), 0.1, 23},
    {ProtocolKind::kOptP, 1, sim_ms(10), 0.0, 24},
    {ProtocolKind::kAnbkh, 2, 0, 0.1, 25},
    {ProtocolKind::kAnbkh, 1, sim_ms(10), 0.2, 26},
    {ProtocolKind::kOptPWs, 2, sim_ms(8), 0.1, 27},
};

INSTANTIATE_TEST_SUITE_P(
    Grid, CrashSweep, ::testing::ValuesIn(kCrashGrid),
    [](const ::testing::TestParamInfo<CrashParams>& param_info) {
      std::string name = to_string(param_info.param.kind);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_s" + std::to_string(param_info.param.seed);
    });

// Crash mode's exact behaviour, pinned: every observer event in order, each
// recovery episode, and every counter the run reports (with telemetry on,
// the metrics CSV and the kept trace too), folded into one FNV-1a digest.
// A refactor of the crash path must leave each digest unchanged.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string crash_run_fingerprint(const SimRunResult& r, std::size_t n_procs) {
  std::ostringstream out;
  for (ProcessId p = 0; p < n_procs; ++p) {
    out << r.recorder->sequence_str(p) << '\n';
  }
  for (const RecoveryRecord& rec : r.recoveries) {
    out << rec.proc << ' ' << rec.crashed_at << ' ' << rec.restarted_at << ' '
        << rec.recovered_at << ' ' << rec.recovered << '\n';
  }
  for (const ProtocolStats& s : r.stats) {
    out << s.writes_issued << ' ' << s.reads_issued << ' '
        << s.messages_received << ' ' << s.remote_applies << ' '
        << s.delayed_writes << ' ' << s.skipped_writes << ' '
        << s.stale_discards << ' ' << s.peak_pending << '\n';
  }
  for_each_stat(r.reliable,
                [&](const char*, std::uint64_t v) { out << v << ' '; });
  out << '\n'
      << r.net.messages_sent << ' ' << r.net.bytes_sent << ' '
      << r.net.max_latency_seen << ' ' << r.faults.dropped << ' '
      << r.faults.duplicated << ' ' << r.faults.partition_dropped << ' '
      << r.faults.crash_dropped << ' '
      << r.end_time << ' ' << r.settled << '\n';
  return out.str();
}

struct PinnedCrashRun {
  CrashParams params;
  double duplicate;
  bool telemetry;
  std::uint64_t digest;
};

const PinnedCrashRun kPinnedCrashRuns[] = {
    {kCrashGrid[0], 0.0, false, 0x000970C75E1B0D1C},
    {kCrashGrid[1], 0.0, false, 0xC2CBFFBE285D34CE},
    {kCrashGrid[2], 0.0, false, 0x8F8B3F458ACE1F04},
    {kCrashGrid[3], 0.0, false, 0x80A55146D3D9F826},
    {kCrashGrid[4], 0.0, false, 0x387DFEB1B5FF9D1A},
    {kCrashGrid[5], 0.0, false, 0x2B8DF421D81CC4A0},
    {kCrashGrid[6], 0.0, false, 0x8F62B874E598999A},
    // Crash + partition + drop (+ duplicates) with telemetry, and the
    // timeline rendered from the run log.
    {{ProtocolKind::kOptP, 2, sim_ms(8), 0.15, 33}, 0.05, true,
     0xADF813D57FB38E3C},
    {{ProtocolKind::kOptP, 3, sim_ms(10), 0.1, 23}, 0.0, true,
     0xCDAFA4A957EE8F2F},
    {{ProtocolKind::kAnbkh, 1, sim_ms(10), 0.2, 26}, 0.05, true,
     0xCC42F84D573D0EDF},
    {{ProtocolKind::kOptPWs, 2, sim_ms(8), 0.1, 27}, 0.0, true,
     0x30E08354DDDEDDCB},
};

TEST(CrashMode, BehaviourMatchesPinnedDigests) {
  for (const PinnedCrashRun& pin : kPinnedCrashRuns) {
    const CrashParams& p = pin.params;
    const UniformLatency latency(sim_us(100), sim_us(900), p.seed ^ 0xA0);
    SimRunConfig cfg = crash_config(p, latency);
    cfg.fault.duplicate = pin.duplicate;
    RunTelemetry telemetry(cfg.n_procs);
    if (pin.telemetry) cfg.telemetry = &telemetry;
    const auto result = run_sim(cfg, crash_workload(p.seed));
    std::string fingerprint = crash_run_fingerprint(result, cfg.n_procs);
    if (pin.telemetry) {
      fingerprint +=
          telemetry.metrics_csv() +
          render_trace_csv(result.recorder->events(), result.recoveries);
    }
    EXPECT_EQ(fnv1a(fingerprint), pin.digest)
        << std::hex << "0x" << fnv1a(fingerprint) << std::dec << " for "
        << to_string(p.kind) << " seed " << p.seed << " telemetry "
        << pin.telemetry;
  }
}

TEST(CrashMode, BackToBackCrashesOfOneProcessRecoverEachTime) {
  CrashParams p{ProtocolKind::kOptP, 0, 0, 0.0, 31};
  const UniformLatency latency(sim_us(100), sim_us(600), 31);
  auto cfg = crash_config(p, latency);
  for (int i = 0; i < 3; ++i) {
    CrashEvent e;
    e.p = 2;
    e.at = sim_ms(3) + static_cast<SimTime>(i) * sim_ms(7);
    e.restart_at = e.at + sim_ms(4);
    cfg.crash.events.push_back(e);
  }
  const auto result = run_sim(cfg, crash_workload(31));
  ASSERT_TRUE(result.settled);
  ASSERT_EQ(result.recoveries.size(), 3u);
  for (const auto& rec : result.recoveries) EXPECT_TRUE(rec.recovered);
  EXPECT_TRUE(
      ConsistencyChecker::check(result.recorder->history()).consistent());
  EXPECT_EQ(OptimalityAuditor::audit(*result.recorder).total_unnecessary(), 0u);
}

TEST(CrashMode, OverlappingCrashWindowsOfTwoProcessesRepairEachOther) {
  // p1 and p2 are down simultaneously; each misses writes the other holds.
  // p1 restarts first: its RESUME frames to the still-down p2 are lost and
  // repeat until p2, restarted, answers; p2's own restore resends its window
  // to p1.
  CrashParams p{ProtocolKind::kOptP, 0, 0, 0.0, 32};
  const UniformLatency latency(sim_us(100), sim_us(600), 32);
  auto cfg = crash_config(p, latency);
  cfg.crash.events.push_back(CrashEvent{1, sim_ms(4), sim_ms(11)});
  cfg.crash.events.push_back(CrashEvent{2, sim_ms(6), sim_ms(13)});
  const auto result = run_sim(cfg, crash_workload(32));
  ASSERT_TRUE(result.settled);
  ASSERT_EQ(result.recoveries.size(), 2u);
  for (const auto& rec : result.recoveries) EXPECT_TRUE(rec.recovered);
  const auto audit = OptimalityAuditor::audit(*result.recorder);
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u);
}

TEST(CrashMode, SameSeedGivesByteIdenticalTraceUnderFullFaultLoad) {
  // "Same seed ⇒ byte-identical trace" must survive the whole fault stack:
  // drops, duplicates, a partition, two crashes, adaptive RTO jitter.
  CrashParams p{ProtocolKind::kOptP, 2, sim_ms(8), 0.15, 33};
  const UniformLatency latency(sim_us(100), sim_us(900), 33);
  auto cfg = crash_config(p, latency);
  cfg.fault.duplicate = 0.05;

  const auto a = run_sim(cfg, crash_workload(33));
  const auto b = run_sim(cfg, crash_workload(33));
  ASSERT_TRUE(a.settled);
  ASSERT_TRUE(b.settled);
  EXPECT_EQ(export_run_archive(*a.recorder), export_run_archive(*b.recorder));
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.reliable.retransmissions, b.reliable.retransmissions);
  EXPECT_EQ(a.net.bytes_sent, b.net.bytes_sent);
  ASSERT_EQ(a.recoveries.size(), b.recoveries.size());
  for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
    EXPECT_EQ(a.recoveries[i].recovered_at, b.recoveries[i].recovered_at);
  }
}

void run_token_under_crash_plan() {
  CrashParams p{ProtocolKind::kTokenWs, 1, 0, 0.0, 34};
  const ConstantLatency latency(sim_us(100));
  (void)run_sim(crash_config(p, latency), crash_workload(34));
}

TEST(CrashModeDeathTest, TokenProtocolIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_token_under_crash_plan(), "class-P");
}

// ----------------------------------------- CausalMemory kill()/restart() ---

TEST(CausalMemoryRecovery, KilledProcessCatchesUpAfterRestart) {
  CausalMemory::Options cfg;
  cfg.replicas = 3;
  cfg.capacity = 2;
  cfg.recoverable = true;
  CausalMemory cluster(cfg);

  cluster.write(0, 0, 1);
  ASSERT_TRUE(cluster.sync(5000ms));

  cluster.kill(1);
  EXPECT_FALSE(cluster.alive(1));
  cluster.write(0, 0, 2);  // p1 misses this entirely
  cluster.write(2, 1, 3);
  std::this_thread::sleep_for(50ms);  // let the deliveries hit the dead node
  EXPECT_GT(cluster.crash_dropped(), 0u);

  cluster.restart(1);
  EXPECT_TRUE(cluster.alive(1));
  ASSERT_TRUE(cluster.sync(5000ms));
  EXPECT_EQ(cluster.peek(1, 0).value, 2);
  EXPECT_EQ(cluster.peek(1, 1).value, 3);
  // Applied once before the kill and twice after the restart: the peers'
  // ARQs resent what p1 missed while down.
  EXPECT_GE(cluster.stats(1).remote_applies, 3u);

  const auto check = ConsistencyChecker::check(cluster.recorder().history());
  EXPECT_TRUE(check.consistent());
  const auto audit = OptimalityAuditor::audit(cluster.recorder());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
}

TEST(CausalMemoryRecovery, ConcurrentTrafficAroundKillRestartStaysCorrect) {
  CausalMemory::Options cfg;
  cfg.protocol = ProtocolKind::kOptP;
  cfg.replicas = 4;
  cfg.capacity = 4;
  cfg.max_jitter_us = 200;
  cfg.seed = 7;
  cfg.recoverable = true;
  CausalMemory cluster(cfg);

  // Clients hammer p0/p2/p3 while p1 is killed mid-run and restarted.
  std::vector<std::thread> clients;
  for (const ProcessId p : {ProcessId{0}, ProcessId{2}, ProcessId{3}}) {
    clients.emplace_back([&cluster, p] {
      Rng rng(7u * 31 + p);
      for (int i = 0; i < 40; ++i) {
        const auto var = static_cast<VarId>(rng.below(4));
        if (rng.chance(0.5)) {
          cluster.write(p, var, static_cast<Value>(p) * 1000 + i);
        } else {
          (void)cluster.read(p, var);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(rng.below(300)));
      }
    });
  }
  std::this_thread::sleep_for(2ms);
  cluster.kill(1);
  std::this_thread::sleep_for(5ms);
  cluster.restart(1);
  for (auto& t : clients) t.join();
  ASSERT_TRUE(cluster.sync(10'000ms));
  // Quiescent ⇒ p1 has applied every client write, so this write causally
  // dominates all of them and must become the final value everywhere.
  cluster.write(1, 0, 4242);
  ASSERT_TRUE(cluster.sync(10'000ms));

  const auto check = ConsistencyChecker::check(cluster.recorder().history());
  EXPECT_TRUE(check.consistent())
      << (check.violations.empty() ? "" : check.violations[0].detail);
  const auto audit = OptimalityAuditor::audit(cluster.recorder());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u) << "Theorem 4 (threaded recovery)";
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(cluster.peek(p, 0).value, 4242) << "p" << p;
  }
}

TEST(CausalMemoryRecovery, StatsAccumulateAcrossIncarnations) {
  CausalMemory::Options cfg;
  cfg.replicas = 2;
  cfg.capacity = 1;
  cfg.recoverable = true;
  CausalMemory cluster(cfg);
  cluster.write(1, 0, 1);
  ASSERT_TRUE(cluster.sync(5000ms));
  const auto before = cluster.stats(1);
  cluster.kill(1);
  cluster.restart(1);
  ASSERT_TRUE(cluster.sync(5000ms));
  cluster.write(1, 0, 2);
  ASSERT_TRUE(cluster.sync(5000ms));
  const auto after = cluster.stats(1);
  EXPECT_GE(after.writes_issued, before.writes_issued + 1);
}

void build_recoverable_token_cluster() {
  CausalMemory::Options cfg;
  cfg.protocol = ProtocolKind::kTokenWs;
  cfg.recoverable = true;
  CausalMemory cluster(cfg);
}

TEST(CausalMemoryRecoveryDeathTest, TokenProtocolIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(build_recoverable_token_cluster(), "class-P");
}

}  // namespace
}  // namespace dsm
