// optcm — threaded deployment: n protocol instances on real threads.
//
// Where the simulator proves *what* the protocols do (deterministically), the
// threaded cluster proves the same code is correct under real concurrency:
// every node runs a delivery thread draining its RingInbox — one lock-free
// SPSC ring per directed link plus a futex doorbell (dsm/runtime/ring_inbox.h)
// — client threads call read/write through the cluster; a per-node mutex
// serializes protocol access (the CausalProtocol concurrency contract).  The
// single-producer contract per ring holds because all sends FROM node i are
// made under node i's mutex.  Messages travel as encoded bytes, with optional
// seeded per-message delivery jitter so interleavings vary across seeds while
// staying loosely reproducible.
//
// The recorder captures the same event log as in simulation, so the
// consistency checker and the optimality auditor run unchanged on threaded
// runs — the integration tests do exactly that.
//
// Recoverable mode (config.recoverable) adds crash tolerance with the same
// checkpoint mechanics as the simulator's crash mode: a RecoveryNode sits
// between the transport and each protocol, every state-mutating operation
// synchronously checkpoints under the node mutex, kill(p) destroys the
// protocol instance (messages delivered while down are dropped, like a
// crashed host), and restart(p) rebuilds it from the checkpoint and runs
// anti-entropy catch-up against the peers' write logs.  There is no ARQ
// layer here — the inboxes are lossless (a full ring spills to a guarded
// deque instead of dropping) — so the catch-up exchange is the ONLY
// repair path for messages dropped while down; it suffices because every
// peer logs every write it has seen and serves it on request.
//
// The per-process stack itself — protocol construction, recovery wiring,
// checkpoints, kill/restart accounting — is ProtocolHost
// (dsm/runtime/protocol_host.h), shared with the multi-process ProcessNode
// runtime; this class adds only what is thread-specific: ring inboxes,
// delivery threads, and the per-node mutex.

#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsm/audit/stability.h"
#include "dsm/common/rng.h"
#include "dsm/objects/object_store.h"
#include "dsm/protocols/recovery.h"
#include "dsm/protocols/registry.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/runtime/protocol_host.h"
#include "dsm/runtime/ring_inbox.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

class ThreadCluster {
 public:
  struct Config {
    ProtocolKind kind = ProtocolKind::kOptP;
    std::size_t n_procs = 3;
    std::size_t n_vars = 8;
    ProtocolConfig protocol_config;
    /// Max artificial per-message delivery delay (µs); 0 disables jitter.
    std::uint32_t max_jitter_us = 0;
    std::uint64_t seed = 1;
    /// Enable kill()/restart(): checkpointing, write logging and catch-up.
    /// Requires a class-𝒫 buffering protocol (token-ws is rejected).
    bool recoverable = false;
    /// Additional observers teed alongside the recorder (e.g. a
    /// StabilityTracker); must be thread-safe and outlive the cluster.
    std::vector<ProtocolObserver*> extra_observers;
    /// Optional instrumentation (dsm/telemetry/telemetry.h): protocol events
    /// tee into it (timestamped in ns since the cluster epoch), buffer
    /// depth/deficit flows through protocol hooks, and recovery stats fold in
    /// at shutdown.  Must outlive the cluster; null (default) costs only
    /// null-pointer checks.
    RunTelemetry* telemetry = nullptr;
  };

  explicit ThreadCluster(const Config& config);
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Issue w_p(x)v.  Thread-safe; callers for different p proceed in
  /// parallel.  The process must be up.
  void write(ProcessId p, VarId x, Value v);

  /// Issue r_p(x).  The process must be up.
  ReadResult read(ProcessId p, VarId x);

  /// Issue a typed mutation (spec must match the schema's spec for x) and
  /// return its apply result at p (e.g. CAS success).  Requires
  /// config.protocol_config.objects; replicated exactly like a write.
  Value mutate(ProcessId p, VarId x, SpecId spec, OpCode opcode, Value arg,
               Value arg2 = 0);

  /// Issue a typed accessor: one real protocol read (the causal Write_co
  /// merge) followed by the spec's observe over p's materialized state.
  Value observe(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                Value arg = 0);

  /// The typed-object store (null unless config.protocol_config.objects).
  [[nodiscard]] const ObjectStore* objects() const noexcept {
    return objects_.get();
  }

  /// Non-recording peek at p's local copy (monitoring only; ⊥ while down).
  [[nodiscard]] ReadResult peek(ProcessId p, VarId x) const;

  /// Crash process p (recoverable mode only): its protocol state dies, and
  /// messages delivered while it is down are dropped.
  void kill(ProcessId p);

  /// Restart a killed process from its last checkpoint and broadcast a
  /// catch-up request for everything missed while down.
  void restart(ProcessId p);

  [[nodiscard]] bool alive(ProcessId p) const;

  /// Blocks until no message is in flight and every protocol is quiescent,
  /// or the timeout elapses.  Returns true on quiescence.  Never true while
  /// a process is down.
  bool await_quiescence(std::chrono::milliseconds timeout);

  /// Stops delivery threads (idempotent; also run by the destructor).
  void shutdown();

  [[nodiscard]] const RunRecorder& recorder() const noexcept { return *recorder_; }
  /// Summed across incarnations in recoverable mode.
  [[nodiscard]] ProtocolStats stats(ProcessId p) const;
  [[nodiscard]] RecoveryStats recovery_stats() const;
  /// Messages dropped because they arrived at a killed process.
  [[nodiscard]] std::uint64_t crash_dropped() const;
  [[nodiscard]] std::size_t n_procs() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t n_vars() const noexcept { return n_vars_; }

 private:
  struct Node;

  /// Endpoint implementation pushing encoded bytes into peer inboxes.
  /// A broadcast posts ONE refcounted payload to every inbox — no
  /// per-receiver byte copies (the buffer is immutable and the refcount is
  /// atomic, so the sharing is race-free across delivery threads).
  class ClusterEndpoint final : public Endpoint {
   public:
    ClusterEndpoint(ThreadCluster& cluster, ProcessId self)
        : cluster_(&cluster), self_(self) {}
    void broadcast(Payload bytes) override;
    void send(ProcessId to, Payload bytes) override;

   private:
    ThreadCluster* cluster_;
    ProcessId self_;
  };

  struct Node {
    std::unique_ptr<ClusterEndpoint> endpoint;
    /// The protocol stack (shared with ProcessNode); guarded by mu.
    std::unique_ptr<ProtocolHost> host;
    /// Lock-free inbox: one SPSC ring per sending peer + futex doorbell.
    std::unique_ptr<RingInbox> inbox;
    std::thread delivery;
    mutable std::mutex mu;  ///< serializes all protocol access
  };

  void deliver_loop(ProcessId p);
  void post(ProcessId from, ProcessId to, Payload bytes);

  ProtocolKind kind_;
  ProtocolConfig protocol_config_;
  std::size_t n_vars_;
  std::uint32_t max_jitter_us_;
  bool recoverable_;
  RunTelemetry* telemetry_;  ///< nullable
  std::unique_ptr<RunRecorder> recorder_;
  std::unique_ptr<ProtocolObserver> fanout_;  ///< set iff extra observers given
  std::unique_ptr<ReplayFilterObserver> filter_;  ///< recoverable mode only
  std::unique_ptr<ObjectStore> objects_;  ///< set iff a schema was configured
  ProtocolObserver* observer_ = nullptr;  ///< the chain head protocols report to
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<bool> stopped_{false};
  std::mutex jitter_mu_;
  Rng jitter_rng_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace dsm
