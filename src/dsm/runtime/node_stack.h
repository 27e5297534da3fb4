// optcm — NodeStack: the per-process crash unit of every host: the
// simulator, the process tier and CausalMemory.
//
// A CausalProtocol built by the registry over an optional ReliableNode (the
// ARQ), on a DatagramTransport: the simulated Network in run_sim,
// FaultyTransport → ShardMux → TcpTransport in ProcessNode, FaultyTransport
// → ShardMux → RingMesh in CausalMemory.  The stack holds the process's
// whole OptP state — Write_co, the apply vector, the pending buffer — and
// the ARQ windows beside it.  Crash handling exists once, here:
//
//   * kill() destroys protocol and ARQ — all volatile state.  Frames
//     reaching a down stack are dropped and counted (dropped_while_down).
//   * restart() rebuilds both parts and boots them from the stack's own last
//     checkpoint through the path a durable boot takes from its snapshot
//     file: the ARQ first (it retransmits what was unacked and sends each
//     peer a RESUME frame, which the peer answers by resending its whole
//     window), then the protocol.  The ARQ is the only repair: a receipt is
//     checkpointed before its ACK can leave, so what the crash lost is still
//     unacked at its sender.
//   * A recoverable stack checkpoints after each frame that delivered a
//     payload, once the whole frame is in, and after each local operation
//     (its owner calls checkpoint()).  A checkpoint is the protocol's blob
//     and the ARQ state taken at the same instant, kept as
//     [u64 len][protocol][u64 len][ARQ] — the body of a durable stack's
//     snapshot, read back by decode_checkpoint.
//
// A durable stack (built with a Storage: a process node with a state dir,
// docs/DURABILITY.md) keeps that checkpoint on disk as well.  It crashes
// one way, by dying with its process: a new stack on the same state dir
// boots from it in start().  After each checkpoint it spills: the run log's
// new records go to the WAL as one record, then the snapshot file
// [u64 local op count][checkpoint] is replaced.  Until a snapshot has
// landed the stack holds its ACKs and retries the spill at every tick(): no
// peer retires a payload a boot from disk would lose.
//
// A host whose event loop has a tick edge calls tick() there: the ARQ then
// sends one DATA frame per peer per tick, however many payloads the tick
// produced, and a durable stack with group commit fsyncs its WAL first, so
// no frame leaves before the fsync that covers the records it carries.  The
// simulator has no tick edge, and its stacks send each payload at once.
//
// The ARQ is present when the link can lose frames: always on a NetLoop
// (TCP, or a ring mesh whose full ring drops), and in the simulator under a
// fault or crash plan.  Without it the stack forwards straight to the
// protocol.
//
// Thread-safety: none — one dispatch context (the simulator's event loop or
// the NetLoop) drives the transport, the ARQ timers and the protocol, which
// keeps its own confinement contract.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsm/codec/codec.h"
#include "dsm/common/stat_fields.h"
#include "dsm/common/transport.h"
#include "dsm/protocols/registry.h"
#include "dsm/sim/event_queue.h"
#include "dsm/sim/reliable.h"
#include "dsm/storage/io_hooks.h"
#include "dsm/storage/wal.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

class ReplayFilterObserver;
class RunRecorder;
class RunTelemetry;

/// What a stack counts of its own crashes and storage, outside any layer's
/// stats struct; a process node reports it with the layers' structs.
struct NodeStats {
  std::uint64_t dropped_while_down = 0;  ///< frames dropped while crashed
  std::uint64_t wal_replayed = 0;        ///< WAL records replayed at boot
  std::uint64_t wal_dirty = 0;           ///< 1 while the WAL is sticky-dirty
  std::uint64_t snapshot_writes = 0;
  std::uint64_t snapshot_failures = 0;   ///< spills skipped or failed

  static const StatField<NodeStats> kFields[];
};

inline constexpr StatField<NodeStats> NodeStats::kFields[] = {
    {metric::kDroppedWhileDown, &NodeStats::dropped_while_down},
    {metric::kWalReplayed, &NodeStats::wal_replayed},
    {metric::kWalDirty, &NodeStats::wal_dirty},
    {metric::kSnapshotWrites, &NodeStats::snapshot_writes},
    {metric::kSnapshotFailures, &NodeStats::snapshot_failures},
};
static_assert(covers_every_field<NodeStats>());

class NodeStack final : public MessageSink, private Endpoint {
 public:
  /// What to build: protocol kind and topology, plus whether the stack is
  /// recoverable (synchronous checkpoints; requires a class-𝒫 buffering
  /// protocol and the ARQ).
  struct Shape {
    ProtocolKind kind = ProtocolKind::kOptP;
    ProcessId self = 0;
    std::size_t n_procs = 3;
    std::size_t n_vars = 8;
    ProtocolConfig protocol_config;
    bool recoverable = false;
  };

  /// Where a durable stack keeps its state (docs/DURABILITY.md).  Its WAL
  /// holds the records of `log`, the run log its observer chain ends in;
  /// `filter` is that chain's replay filter.  Both must outlive the stack.
  struct Storage {
    std::string dir;  ///< the StateDir root, created if absent
    FsyncPolicy fsync = FsyncPolicy::kEvery;
    /// One WAL fsync per tick() covers every record appended since the last
    /// (docs/PERF.md).  Kill-9 durability is unchanged (the page cache
    /// survives the process); the power-loss window grows to one tick.
    bool group_commit = false;
    /// Injected write/fsync failures in the WAL and snapshot writers.
    std::vector<StorageFailpoint> failpoints;
    RunRecorder* log = nullptr;
    ReplayFilterObserver* filter = nullptr;
  };

  /// Builds the protocol (and the ARQ when `arq` is engaged, with that
  /// tuning) and attaches itself as `shape.self`'s sink on `transport`.
  /// `queue`, `transport`, `observer` (the head of the observer chain) and
  /// `telemetry` (may be null) must outlive the stack.  With `storage` the
  /// stack is durable, which needs the recoverable shape.
  NodeStack(EventQueue& queue, DatagramTransport& transport,
            const Shape& shape, std::optional<ReliableConfig> arq,
            ProtocolObserver& observer, RunTelemetry* telemetry = nullptr,
            std::optional<Storage> storage = std::nullopt);
  ~NodeStack() override;

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// The two parts of a checkpoint, viewing the bytes they were decoded from.
  struct Checkpoint {
    std::span<const std::uint8_t> protocol;
    std::span<const std::uint8_t> arq;
  };

  /// Boot the stack.  With `from`, restore the ARQ (which resumes its
  /// peers), then the protocol, whose start() does not run again;
  /// without it, run the protocol's start() (which may send — the transport
  /// must already be accepting).  A recoverable stack then takes its first
  /// checkpoint.
  ///
  /// A durable stack takes no `from`: it boots from its state dir (snapshot,
  /// WAL replay, muted reconcile; docs/DURABILITY.md), and its first
  /// checkpoint spills.
  void start(const Checkpoint* from = nullptr);

  /// The tick edge of a host whose loop has one (a NetLoop tick hook,
  /// registered ahead of the transport's flush).  A durable stack retries a
  /// failed spill, then, with group commit, fsyncs the WAL records appended
  /// since the last tick; then the ARQ transmits each peer's open batch as
  /// one frame (ReliableNode::flush), with the ACKs a landed spill released.
  /// A stack that is never ticked — the simulator's — sends each payload at
  /// once.  \pre a durable stack has started.
  void tick();

  // -- MessageSink: frames from the transport --------------------------------

  /// Hands the frame to the ARQ (or, without one, to the protocol).  A
  /// recoverable stack then checkpoints once if the frame delivered any
  /// payload: a BATCH or RESEND frame is received whole or not at all.
  /// While the stack is down the frame is dropped and counted.
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- checkpoint, crash, restart (recoverable shape only) -------------------

  /// Take the protocol's blob and the ARQ state into the one checkpoint; a
  /// durable stack then spills it.
  void checkpoint();

  /// Destroy protocol and ARQ; their counters survive.  Not on a durable
  /// stack, whose crash is its destruction.
  void kill();
  /// Rebuild protocol and ARQ, then start() them from the last checkpoint.
  void restart();
  [[nodiscard]] bool up() const noexcept { return protocol_ != nullptr; }

  /// The last checkpoint, as [u64 len][protocol][u64 len][ARQ state].
  [[nodiscard]] const std::vector<std::uint8_t>& checkpoint_bytes()
      const noexcept {
    return checkpoint_;
  }
  /// Parse a checkpoint; nullopt on malformed framing.
  [[nodiscard]] static std::optional<Checkpoint> decode_checkpoint(
      ByteReader& r);

  // -- introspection ---------------------------------------------------------
  /// The live protocol instance.  \pre up().
  [[nodiscard]] CausalProtocol& protocol() const;
  /// Protocol counters summed across incarnations.
  [[nodiscard]] ProtocolStats stats() const;
  /// Frames dropped while the stack was down and, on a durable stack, its
  /// storage counters.
  [[nodiscard]] NodeStats node_stats() const;
  /// The WAL's counters; zeros on a stack that is not durable.
  [[nodiscard]] WalStats wal_stats() const;
  /// The live ARQ, or null (no ARQ on this link, or killed).
  [[nodiscard]] const ReliableNode* arq() const noexcept { return arq_.get(); }
  /// ARQ counters summed across incarnations.
  [[nodiscard]] ReliableStats reliable_stats() const;
  /// Fold the live incarnation's ARQ counters, and one RTO sample per peer,
  /// into `telemetry` at the end of a run (a dead incarnation was folded at
  /// its kill).  No-op while down.
  void fold_live(RunTelemetry& telemetry) const;
  /// Up, the protocol idle, and every ARQ channel drained except those to
  /// peers flagged in `excluded` (see ReliableNode::quiescent_except).
  [[nodiscard]] bool quiescent(const std::vector<bool>& excluded = {}) const;

 private:
  /// The ARQ's upper sink: each payload it delivers goes to the protocol.
  /// The ARQ lives only while the protocol does.
  struct ProtocolSink final : MessageSink {
    explicit ProtocolSink(NodeStack& owner) : stack(&owner) {}
    void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
      stack->protocol_->on_message(from, bytes);
    }
    NodeStack* stack;
  };

  // -- Endpoint: the protocol's path down ------------------------------------
  void broadcast(Payload payload) override;
  void send(ProcessId to, Payload payload) override;

  /// A durable stack's storage: state dir, WAL, failpoints and counters.
  struct Durable;

  /// Build a fresh protocol and, with an ARQ config, a fresh ARQ.
  void build();
  /// Restore the ARQ and the protocol from `from`, or start them fresh, with
  /// every ARQ tx sequence advanced by `tx_epoch_skip`.
  void restore(const Checkpoint* from, std::uint64_t tx_epoch_skip);
  /// The durable half of start().
  void boot();
  /// Commit the log's new records to the WAL, then write the snapshot; hold
  /// the ARQ's ACKs while no snapshot has landed.
  void spill();
  [[nodiscard]] std::uint64_t local_op_count() const;

  EventQueue* queue_;
  DatagramTransport* transport_;
  Shape shape_;
  ProtocolObserver* observer_;
  std::optional<ReliableConfig> arq_config_;
  RunTelemetry* telemetry_;
  ProtocolSink upper_{*this};
  std::unique_ptr<CausalProtocol> protocol_;
  std::unique_ptr<ReliableNode> arq_;
  std::vector<std::uint8_t> checkpoint_;
  std::vector<std::uint8_t> scratch_;  ///< one part of a checkpoint
  std::unique_ptr<Durable> durable_;    ///< null unless durable
  ProtocolStats stats_acc_;     ///< counters of dead protocols
  ReliableStats arq_acc_;       ///< counters of dead ARQs
  NodeStats counts_;  ///< crash drops and, on a durable stack, storage
};

}  // namespace dsm
