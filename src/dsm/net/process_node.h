// optcm — ProcessNode: one protocol process as one OS process.
//
// The node hosts the same NodeStack (dsm/runtime/node_stack.h) that run_sim
// hosts per simulated process — ARQ over a datagram transport, then a
// ProtocolHost, killed and restarted as one crash unit — on a TcpTransport
// driven by a poll-based NetLoop, with a FaultyTransport and a ShardMux in
// between.  Above the stack sit the same ScriptRunner and observer chain as
// in the simulator, so the observer-event log a node records is directly
// comparable (sequence_str) with a simulator run of the same workload.
//
// A node is steered remotely: the cluster driver opens a control connection
// through the node's ordinary listen port (Hello role = control) and speaks
// the request/reply protocol in dsm/net/control.h — install a script, poll
// for completion, fetch the recorded trace and stats, inject faults, kill
// and restart the stack in process, shut down.  run() blocks until a
// kShutdown has been received and acknowledged.  With a state dir the node
// also keeps a WAL and spills each checkpoint to a snapshot file.
//
// Everything runs on the single NetLoop thread: socket dispatch, ARQ timers,
// script steps, and control handling interleave through one EventQueue, so
// the protocol needs no locking — the same confinement contract as the
// simulator.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsm/net/control.h"
#include "dsm/net/ring_mesh.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/runtime/node_stack.h"
#include "dsm/runtime/observer_chain.h"
#include "dsm/sim/reliable.h"
#include "dsm/storage/state_dir.h"
#include "dsm/storage/wal.h"
#include "dsm/storage/wal_sink.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/script_runner.h"

namespace dsm {

/// ARQ defaults tuned for loopback TCP: the transport itself is lossless per
/// connection incarnation, so the RTO only matters across reconnects — keep
/// it well above loopback RTT to avoid spurious retransmits but short enough
/// that a 10ms redial window is repaired promptly.
[[nodiscard]] ReliableConfig net_reliable_defaults();

struct ProcessNodeConfig {
  ProtocolHost::Shape shape;  ///< protocol kind/topology; shape.self is us
  /// "host:port" per process; see TcpTransportConfig.
  std::vector<std::string> peers;
  int listen_fd = -1;  ///< adopted listener (fork harness), or -1 to bind
  ReliableConfig arq = net_reliable_defaults();
  /// Durable state directory (docs/DURABILITY.md).  Empty = in-memory only.
  /// Non-empty requires shape.recoverable: on boot the node restores the
  /// latest snapshot, replays the WAL tail, and rejoins via anti-entropy; a
  /// kill -9 of the OS process loses at most the one in-flight mutation that
  /// had not yet committed to the WAL (and that only if fsync allows it).
  std::string state_dir;
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  /// Group-commit the WAL at NetLoop tick edges (docs/PERF.md): one fsync
  /// per tick covers every mutation batch committed during that tick,
  /// instead of one per batch.  Kill-9 durability is unchanged (the page
  /// cache survives the process); the power-loss window grows from one
  /// mutation to one tick.  Requires a durable state_dir.
  bool wal_group_commit = false;
  /// Initial link-fault plan (docs/FAULTS.md); also settable at runtime via
  /// the control plane (kSetFaults).  Inactive by default.
  NetFaultPlan net_faults;
  /// Storage failpoints armed at boot: injected write/fsync failures in the
  /// WAL and snapshot paths (docs/FAULTS.md).
  std::vector<StorageFailpoint> storage_fail;
  /// Shard-per-core packing (docs/ARCHITECTURE.md): when non-null, this node
  /// is one shard of a ShardHost and the mesh carries its traffic to the
  /// co-located shards [mesh->base(), mesh->base()+mesh->count()) over SPSC
  /// rings; only genuinely remote peers get TCP connections.  The mesh is
  /// owned by the host and must outlive the node.  Null = classic one-node
  /// process (the mux is a pass-through).
  RingMesh* mesh = nullptr;
};

class ProcessNode final {
 public:
  explicit ProcessNode(ProcessNodeConfig config);
  ~ProcessNode();

  ProcessNode(const ProcessNode&) = delete;
  ProcessNode& operator=(const ProcessNode&) = delete;

  /// Start the transport + protocol and serve until a control kShutdown has
  /// been acknowledged (its reply flushed).
  void run();

  [[nodiscard]] TcpTransport& transport() noexcept { return transport_; }

 private:
  /// One adopted control connection (frame-assembled in, buffered out).
  struct ControlConn {
    int fd = -1;
    FrameAssembler rx;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };

  void adopt_control(int fd, std::vector<std::uint8_t> residual);
  void on_control_ready(int fd, NetLoop::Ready ready);
  void process_control_frames(ControlConn& conn);
  [[nodiscard]] ControlMessage handle_control(const ControlMessage& req);
  void start_run(const ControlMessage& req);
  [[nodiscard]] bool run_done() const;
  [[nodiscard]] bool stack_quiescent() const;
  void reply(ControlConn& conn, const ControlMessage& msg);
  void flush_control(ControlConn& conn);
  void drop_control(int fd);
  [[nodiscard]] bool control_flushed() const;

  // -- durability (config_.state_dir non-empty) ------------------------------
  [[nodiscard]] bool durable() const noexcept {
    return !config_.state_dir.empty();
  }
  /// Open the StateDir, restore snapshot + WAL, start the host (restored or
  /// fresh), reconcile the ≤1-mutation gap between WAL and snapshot, and
  /// install the spill hook.  Runs before the loop; see docs/DURABILITY.md.
  void boot_durable();
  /// Spill hook: commit the new log bytes to the WAL, then atomically write the
  /// snapshot file ([u64 op count] + the stack's encoded checkpoint).
  void spill();
  /// Tick-edge group-commit barrier (config_.wal_group_commit): one fsync
  /// covering every WAL record appended during the tick.
  void wal_tick();
  [[nodiscard]] std::uint64_t local_op_count() const;

  ProcessNodeConfig config_;
  NetLoop loop_;
  RunTelemetry telemetry_;
  RunRecorder recorder_;
  TcpTransport transport_;
  /// Shard router above the sockets: co-located shards ride the ring mesh,
  /// remote peers the TcpTransport.  Without a mesh it forwards verbatim.
  ShardMux mux_;
  /// Fault-injection shim between the stack's ARQ and the mux: every
  /// outgoing ARQ frame passes through it, faulted or not (inactive plan =
  /// verbatim forward) — so nemesis faults hit ring and socket links alike.
  /// The stack attaches itself as the shim's sink.
  FaultyTransport faulty_;
  /// Wakes the runner's parked awaits on every apply: the chain's fanout
  /// link, below its replay filter, so a suppressed echo wakes nothing.
  AwaitWaker waker_;
  /// recorder ← telemetry tee ← waker fanout ← replay filter (recoverable
  /// mode: crash recovery legitimately redelivers updates, and a respawned
  /// peer may re-broadcast a reconciled write) ← object store (typed
  /// schemas, answering the script's Observe steps).
  ObserverChain chain_;
  std::unique_ptr<NodeStack> stack_;
  Script script_;  ///< installed by kRun; runner_ points into it
  std::unique_ptr<ScriptRunner> runner_;
  std::map<int, ControlConn> controls_;
  bool shutdown_ = false;
  // -- durable state (boot_durable) ------------------------------------------
  /// Storage failpoints routed through the WAL and snapshot writers (armed
  /// from config_.storage_fail; pass-through when empty).
  FailpointIoHooks io_hooks_;
  std::optional<StateDir> state_;
  std::optional<Wal> wal_;
  /// Commits the recorder's log to the WAL: the recorder's records are the
  /// WAL's records.
  std::optional<WalLogCommitter> wal_log_;
  std::uint64_t replayed_local_ops_ = 0;  ///< script resume index
  /// Counted here, reported with the layers' structs by kFetchStats.
  NodeStats node_stats_;
};

}  // namespace dsm
