// optcm — ProcessCluster: a forked single-host cluster plus its driver.
//
// The harness behind `optcm drive` and the net tests: it binds one listener
// per process on an abstract AF_UNIX stream socket (all nodes share this
// host, so TCP loopback would only add kernel work), forks one child per
// process, and each child runs a ProcessNode that adopts its inherited
// listener (race-free — bound before any child exists).  The parent never
// touches the data plane; it steers the run over per-node control
// connections (dsm/net/control.h) with plain blocking I/O:
//
//   spawn() → wait_ready() → run(scripts) → wait_done() → fetch logs/stats
//   → shutdown() (kShutdown + waitpid, SIGKILL after a grace period)
//
// Because the listeners exist before fork, a control connect never races node
// startup, and kRun is only sent once every node reports a fully connected
// peer mesh — so connection establishment cannot perturb the scripted
// workload's timing.
//
// Fork hygiene: the parent is single-threaded while spawning; children
// _exit() (no atexit handlers, no sanitizer leak sweep of the briefly shared
// address space) and close every inherited fd they don't own.

#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsm/audit/trace_io.h"
#include "dsm/net/control.h"
#include "dsm/net/process_node.h"
#include "dsm/storage/wal.h"

namespace dsm {

/// Why the last control round failed (docs/FAULTS.md: the control plane is a
/// fault surface like any other — a hung or killed node must surface as a
/// typed timeout at the driver, never as an indefinite block).
enum class ControlError : std::uint8_t {
  kNone = 0,
  kTimeout,    ///< the node did not answer within the deadline
  kClosed,     ///< connect failed, EOF, or a hard socket error
  kMalformed,  ///< the node's reply did not decode
};

[[nodiscard]] std::string_view to_string(ControlError e);

/// Request/reply client for one node's control channel.  The socket is
/// non-blocking; every round — including the write side — is bounded by the
/// caller's deadline, so a node that stops reading (SIGSTOP, kernel stall)
/// times out instead of wedging the driver.
class ControlClient {
 public:
  ControlClient() = default;
  ~ControlClient();

  ControlClient(ControlClient&& other) noexcept;
  ControlClient& operator=(ControlClient&& other) noexcept;
  ControlClient(const ControlClient&) = delete;
  ControlClient& operator=(const ControlClient&) = delete;

  /// Connect to a node's listen address and present a control Hello.
  [[nodiscard]] bool connect(const net::Addr& addr, int timeout_ms);

  /// One request/reply round.  std::nullopt on I/O failure, malformed reply,
  /// or timeout (see last_error()); the connection is dead afterwards in the
  /// failure cases.
  [[nodiscard]] std::optional<ControlMessage> call(const ControlMessage& req,
                                                   int timeout_ms);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] ControlError last_error() const noexcept { return error_; }
  void close();

 private:
  using Deadline = std::chrono::steady_clock::time_point;
  [[nodiscard]] bool write_deadline(const std::uint8_t* data, std::size_t size,
                                    Deadline deadline);

  int fd_ = -1;
  FrameAssembler rx_;
  ControlError error_ = ControlError::kNone;
};

struct ProcessClusterConfig {
  /// Template for every node's stack; `self` is overwritten per process.
  NodeStack::Shape shape;
  ReliableConfig arq = net_reliable_defaults();
  int control_timeout_ms = 10'000;  ///< per control round-trip
  /// Extra attempts (after the first) for IDEMPOTENT control rounds that time
  /// out or find the connection dead — each retry reconnects first.  Rounds
  /// with side effects (kRun, kShutdown) never retry: a lost reply leaves
  /// "did it apply?" ambiguous.
  int control_retries = 2;
  /// Durable state root: node p persists under `<state_dir>/node-p`.  Empty =
  /// in-memory nodes; non-empty exactly when shape.recoverable, and lets a
  /// node survive kill_process()/respawn_process(), a real SIGKILL.
  std::string state_dir;
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  /// Tick-edge WAL group commit on every node (see ProcessNodeConfig).
  bool wal_group_commit = false;
  /// Shard-per-core packing: fork ceil(n_procs / shards_per_proc) children,
  /// each a ShardHost running that many consecutive shards over a ring mesh
  /// (docs/ARCHITECTURE.md).  1 = classic one-process-per-node.  Values > 1
  /// are incompatible with kill_process()/respawn_process() — SIGKILL takes
  /// out a whole shard group, which is not the fault being modelled.
  std::size_t shards_per_proc = 1;
  /// Link-fault plan every node boots with (respawned incarnations included);
  /// replaceable per node at runtime via set_faults().
  NetFaultPlan net_faults;
  /// Storage failpoints armed per node at boot (docs/FAULTS.md).
  std::vector<std::pair<ProcessId, StorageFailpoint>> storage_fail;
};

class ProcessCluster {
 public:
  explicit ProcessCluster(ProcessClusterConfig config);
  ~ProcessCluster();  ///< best-effort shutdown(), then SIGKILL leftovers

  ProcessCluster(const ProcessCluster&) = delete;
  ProcessCluster& operator=(const ProcessCluster&) = delete;

  /// Bind listeners, fork the children, open the control channels.  False on
  /// any setup failure (cluster is torn down again).
  [[nodiscard]] bool spawn();

  /// Block until every node reports a fully connected peer mesh.
  [[nodiscard]] bool wait_ready(int timeout_ms = 10'000);

  /// Install scripts[p] on node p (scripts.size() must equal n_procs) and
  /// start them; every step delay is multiplied by `time_scale`.
  [[nodiscard]] bool run(const std::vector<Script>& scripts,
                         std::uint64_t time_scale);

  /// Poll until every node is done (script finished, protocol + ARQ
  /// quiescent, transport flushed) — all simultaneously.
  [[nodiscard]] bool wait_done(int timeout_ms = 60'000);

  // -- fault injection -------------------------------------------------------
  [[nodiscard]] bool kill_connection(ProcessId node, ProcessId peer);
  /// Install/replace node's link-fault plan (nemesis partition start/heal).
  [[nodiscard]] bool set_faults(ProcessId node, const NetFaultPlan& plan);

  // -- process death: the one way a node crashes -----------------------------

  /// SIGKILL node's OS process and reap it; its control channel is closed.
  /// The node gets no chance to flush anything — exactly the crash the
  /// durable state dir (docs/DURABILITY.md) is designed to survive.
  [[nodiscard]] bool kill_process(ProcessId node);

  /// Fork a fresh child for a kill_process()ed node on its original name and
  /// state dir; the new incarnation restores snapshot + WAL, rejoins the mesh
  /// (its peers' ARQs resend what it lost), and is ready for run_node() once
  /// wait_ready() passes.
  [[nodiscard]] bool respawn_process(ProcessId node);

  /// Install + start a script on one node only (the respawn resume path;
  /// the node itself skips the already-replayed prefix).
  [[nodiscard]] bool run_node(ProcessId node, const Script& script,
                              std::uint64_t time_scale);

  /// Poll until every node's protocol + ARQ + transport are simultaneously
  /// quiescent, *ignoring* script completion — the barrier between "peers
  /// have caught the respawned node up" and "resume its script".
  [[nodiscard]] bool wait_quiescent(int timeout_ms = 60'000);

  // -- results ---------------------------------------------------------------
  /// The node's recorded run, fetched chunk by chunk through the kFetchLog
  /// cursor, so its size is not bounded by the control frame cap.
  [[nodiscard]] std::optional<ImportedRun> fetch_log(ProcessId node);
  [[nodiscard]] std::optional<NodeNetStats> fetch_stats(ProcessId node);

  /// Orderly shutdown: kShutdown to every node, then reap with a grace
  /// period (SIGKILL stragglers).  True when every child exited cleanly.
  bool shutdown(int timeout_ms = 10'000);

  [[nodiscard]] std::size_t n_procs() const noexcept {
    return config_.shape.n_procs;
  }

  /// Why the most recent failed control round failed (kTimeout surfaces as
  /// "ControlTimeout" in `optcm drive` diagnostics).
  [[nodiscard]] ControlError last_error() const noexcept { return last_error_; }

 private:
  void teardown();  ///< close fds, SIGKILL + reap any live children

  /// One control round against `node`, reconnecting + retrying (idempotent
  /// rounds only) per config_.control_retries.
  [[nodiscard]] std::optional<ControlMessage> call_node(
      ProcessId node, const ControlMessage& req, bool idempotent);

  /// Fork the child for shard group `group` — processes [group·S, group·S+S)
  /// clamped to n_procs, S = shards_per_proc (their listeners must sit in
  /// listen_fds_).  The child closes every other inherited fd — sibling
  /// listeners and, on the respawn path, the parent's control connections —
  /// runs its ProcessNode (S = 1) or ShardHost (S > 1, durable when
  /// config_.state_dir is set) and never returns.
  [[nodiscard]] pid_t spawn_child(std::size_t group);

  /// The per-shard node config (shared spawn logic for both child kinds).
  [[nodiscard]] ProcessNodeConfig node_config_of(std::size_t p) const;

  [[nodiscard]] net::Addr addr_of(ProcessId p) const {
    return *net::parse_addr(peers_[p]);
  }

  ProcessClusterConfig config_;
  std::vector<std::string> peers_;  ///< "@optcm-…" listen address per process
  std::vector<int> listen_fds_;
  std::vector<pid_t> pids_;
  std::vector<ControlClient> controls_;
  bool spawned_ = false;
  ControlError last_error_ = ControlError::kNone;
};

}  // namespace dsm
