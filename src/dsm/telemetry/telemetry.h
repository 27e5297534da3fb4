// optcm — RunTelemetry: the per-run instrumentation facade.
//
// One RunTelemetry instance captures everything observable about one run:
//
//   * it tees the ProtocolObserver event stream (observe_through) into the
//     metrics registry and, when the caller asked for one, the trace buffer,
//     without disturbing the existing recorder/auditor pipeline;
//   * it hands each node a ProtocolInstrumentation (pending-buffer depth and
//     enabling-set deficit — facts only the protocol can see);
//   * the harnesses report lifecycle facts (write ops, crashes, restarts,
//     checkpoints) and fold transport-layer stat blocks into it at the end
//     of the run (fold_network / fold_reliable / fold_recovery).
//
// Attachment is optional everywhere: a run without a RunTelemetry pays one
// null-pointer check per hook site and nothing else (the acceptance bar is
// < 2% on bench/micro_core with telemetry absent).
//
// Lifetime: the RunTelemetry must outlive the run it instruments (harnesses
// reset the clock hook when the run ends, so reading exports afterwards is
// safe even though the harness clock is gone).
//
// Thread-safety: every recording entry point is safe when each node records
// from its own thread (CausalMemory's replica loops) — counters/gauges are
// atomic, per-node summaries and receipt times are only touched from their
// node's thread of control, and the trace buffer is mutex-guarded.  Exports are meant
// for after the run has quiesced.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dsm/objects/opcodes.h"
#include "dsm/protocols/protocol.h"
#include "dsm/protocols/recovery.h"
#include "dsm/sim/fault.h"
#include "dsm/sim/network.h"
#include "dsm/sim/reliable.h"
#include "dsm/telemetry/metrics.h"
#include "dsm/telemetry/trace.h"

namespace dsm {

class RunTelemetry {
 public:
  /// Harness clock in µs: simulated time under run_sim, the loop's wall
  /// clock in ProcessNode, µs since construction in CausalMemory.  Must be
  /// callable from any thread that records events.
  using ClockFn = std::function<std::uint64_t()>;

  /// Whether the run keeps a trace beside its metrics.  Only a caller that
  /// exports one asks: each TraceEvent costs a vector-clock copy and a
  /// locked append, and without a trace none is built.
  enum class Trace : bool { kOff, kKeep };

  explicit RunTelemetry(std::size_t n_procs, Trace trace = Trace::kOff);
  ~RunTelemetry();

  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  /// Install (or clear, with {}) the timestamp source.
  ///
  /// \pre no thread is recording events: a harness installs its clock
  ///      before any event flows and clears it only after every thread that
  ///      records has stopped.  now() reads the clock without a lock, so a
  ///      swap racing a recording thread is a data race.
  void set_clock(ClockFn clock);

  /// Current timestamp (0 when no clock is installed).
  [[nodiscard]] std::uint64_t now() const;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] bool keeps_trace() const noexcept { return trace_ != nullptr; }
  /// \pre keeps_trace()
  [[nodiscard]] const TraceBuffer& trace() const;

  /// Build the observer tee: protocol events are recorded here, then
  /// forwarded unchanged to `downstream` (the run recorder).  Call once per
  /// run; `downstream` must outlive the returned observer's use.
  [[nodiscard]] ProtocolObserver& observe_through(ProtocolObserver& downstream);

  /// Per-node buffer instrumentation to install via
  /// CausalProtocol::set_instrumentation.  Stable for this object's lifetime.
  [[nodiscard]] ProtocolInstrumentation& instrumentation(ProcessId p);

  // ---- lifecycle facts reported by the harnesses ----

  /// An application-level write operation was issued at p (counted
  /// separately from updates sent: writing-semantics protocols coalesce).
  void record_write_op(ProcessId p, VarId x, Value v);
  /// A typed-object operation (mutation or accessor) was issued at p.
  void record_object_op(ProcessId p, SpecId spec);
  /// Process p crashed (volatile state lost).
  void record_crash(ProcessId p);
  /// Process p restarted from its checkpoint.
  void record_restart(ProcessId p);
  /// Process p took a synchronous checkpoint of `bytes` encoded bytes.
  void record_checkpoint(ProcessId p, std::uint64_t bytes);

  // ---- end-of-run stat folds (idempotence is the caller's concern) ----

  void fold_network(const NetworkStats& net, const FaultStats& faults);
  void fold_reliable(ProcessId p, const ReliableStats& arq);
  /// One adaptive-RTO observation (µs) for p's ARQ toward some peer.
  void sample_rto(ProcessId p, std::uint64_t rto_us);
  void fold_recovery(ProcessId p, const RecoveryStats& rec);

  // ---- exports (call after the run has quiesced; traces need keeps_trace())

  [[nodiscard]] std::string metrics_csv() const { return metrics_.csv(); }
  [[nodiscard]] std::string chrome_trace() const;
  [[nodiscard]] std::string trace_csv() const;

  [[nodiscard]] std::size_t n_procs() const noexcept {
    return metrics_.n_procs();
  }

 private:
  class Tee;
  class NodeInstr;

  MetricsRegistry metrics_;
  std::unique_ptr<TraceBuffer> trace_;  ///< null unless Trace::kKeep
  ClockFn clock_;
  std::unique_ptr<Tee> tee_;
  std::vector<std::unique_ptr<NodeInstr>> instr_;
};

}  // namespace dsm
