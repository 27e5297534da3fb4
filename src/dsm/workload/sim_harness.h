// optcm — the simulation harness: one protocol cluster, one workload, one
// deterministic run.
//
// Hosts one NodeStack (dsm/runtime/node_stack.h) per process on the simulated
// network — the same stack ProcessNode hosts on its sockets — executes the
// per-process scripts as chained events, lets the system settle, and returns
// the recorded run (history + event log + per-process stats).  Everything —
// operation interleaving, message latencies, tie-breaking — is a pure
// function of the config, so runs are exactly reproducible and two protocol
// kinds can be compared on identical message-arrival patterns (see
// latency.h on per-pair-indexed draws).
//
// Fault modes (docs/FAULTS.md), in increasing order of hostility:
//   * reliable network (default) — exactly the paper's Section 3.1 channels;
//   * faulty datagrams (config.fault) — drops/duplicates/partitions, with the
//     stack's ARQ layer (dsm/sim/reliable.h) rebuilding exactly-once;
//   * crash/restart (config.crash) — a CrashEvent kills a process's stack
//     (protocol and ARQ: all volatile state, and the traffic in flight to
//     it) and restarts it from its last checkpoint, taken after every
//     state-mutating event; the peers' ARQs resend what it lost, all at once
//     when its RESUME frame reaches them (dsm/sim/reliable.h).  Crash mode
//     always builds the ARQ, because a crashed receiver drops traffic even
//     on an otherwise perfect network.

#pragma once

#include <memory>
#include <vector>

#include "dsm/objects/object_store.h"
#include "dsm/protocols/registry.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/sim/fault.h"
#include "dsm/sim/network.h"
#include "dsm/sim/reliable.h"
#include "dsm/workload/script.h"

namespace dsm {

class RunTelemetry;

struct SimRunConfig {
  ProtocolKind kind = ProtocolKind::kOptP;
  std::size_t n_procs = 3;
  std::size_t n_vars = 2;
  const LatencyModel* latency = nullptr;  ///< required; not owned
  Network::LatencyOverride latency_override;  ///< optional choreography hook
  ProtocolConfig protocol_config;
  /// Faulty-datagram mode: when active, the harness interposes the ARQ layer
  /// (dsm/sim/reliable.h) between protocols and the lossy network, restoring
  /// the paper's exactly-once channel assumption end to end.
  FaultPlan fault;
  /// Crash/restart mode: processes in the plan crash (volatile state and
  /// in-flight traffic lost) and later restart from their checkpoint.
  /// Requires a class-𝒫 buffering protocol (token-ws is rejected: a crashed
  /// token holder would need an election, which is out of scope).
  CrashPlan crash;
  ReliableConfig arq;  ///< ARQ tuning (initial/min/max RTO, retries, jitter)
  /// After the scripts finish, keep simulating in chunks of `settle_chunk`
  /// until every protocol is quiescent, at most `max_settle_chunks` times
  /// (the token protocol's circulation keeps the queue non-empty forever, so
  /// "queue drained" is not a usable stop condition for it).
  SimTime settle_chunk = sim_ms(50);
  std::size_t max_settle_chunks = 10'000;
  /// Optional instrumentation (dsm/telemetry/telemetry.h): when set, the run
  /// feeds the metrics registry and trace buffer — protocol events through an
  /// observer tee, buffer depth/deficit through protocol hooks, transport
  /// stats folded at the end.  Must outlive the run_sim call.  When null
  /// (default) the run is byte-identical to an uninstrumented one and pays
  /// only null-pointer checks.
  RunTelemetry* telemetry = nullptr;
};

struct SimRunResult {
  std::unique_ptr<RunRecorder> recorder;   ///< history + ordered event log
  /// Typed-object state (set iff config.protocol_config.objects was): the
  /// store that answered the run's Observe steps; replica_digest() across
  /// processes witnesses typed-state convergence.
  std::unique_ptr<ObjectStore> objects;
  std::vector<ProtocolStats> stats;        ///< per process (summed across
                                           ///< incarnations in crash mode)
  NetworkStats net;
  FaultStats faults;                       ///< drops/dups injected (if any)
  ReliableStats reliable;                  ///< ARQ totals (if fault mode)
  std::vector<RecoveryRecord> recoveries;  ///< one per crash event
  SimTime end_time = 0;
  bool settled = false;  ///< all protocols quiescent before the chunk cap

  [[nodiscard]] std::uint64_t total_delayed() const;
  [[nodiscard]] std::uint64_t total_applies() const;
  [[nodiscard]] std::uint64_t total_skipped() const;
};

/// Runs `scripts[p]` on process p (scripts.size() == config.n_procs).
[[nodiscard]] SimRunResult run_sim(const SimRunConfig& config,
                                   const std::vector<Script>& scripts);

}  // namespace dsm
