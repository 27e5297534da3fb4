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
//     checkpoint through start(), the path a durable boot takes from its
//     snapshot file: the ARQ first (it retransmits what was unacked and sends
//     each peer a RESUME frame, which the peer answers by resending its whole
//     window), then the protocol.  The ARQ is the only repair: a receipt is
//     checkpointed before its ACK can leave, so what the crash lost is still
//     unacked at its sender.
//   * A recoverable stack checkpoints after each frame that delivered a
//     payload, once the whole frame is in, and after each local operation
//     (its owner calls checkpoint()).  A checkpoint is the protocol's blob
//     and the ARQ state taken at the same instant, kept as
//     [u64 len][protocol][u64 len][ARQ] — the body of a durable node's
//     snapshot, read back by decode_checkpoint.
//   * Each checkpoint fires the spill hook, which reports whether a snapshot
//     landed.  Until one has, the stack holds its ACKs and retries the spill
//     at every tick(): no peer retires a payload a restart from disk would
//     lose.  In the simulator a receipt and its checkpoint happen in one
//     event; on a NetLoop the ACK waits for the tick edge.
//
// A host whose event loop has a tick edge calls tick() there: the ARQ then
// sends one DATA frame per peer per tick, however many payloads the tick
// produced.  The simulator has no tick edge, and its stacks send each
// payload at once.
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
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dsm/codec/codec.h"
#include "dsm/common/transport.h"
#include "dsm/protocols/registry.h"
#include "dsm/sim/event_queue.h"
#include "dsm/sim/reliable.h"

namespace dsm {

class RunTelemetry;

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

  /// Builds the protocol (and the ARQ when `arq` is engaged, with that
  /// tuning) and attaches itself as `shape.self`'s sink on `transport`.
  /// `queue`, `transport`, `observer` (the head of the observer chain) and
  /// `telemetry` (may be null) must outlive the stack.
  NodeStack(EventQueue& queue, DatagramTransport& transport,
            const Shape& shape, std::optional<ReliableConfig> arq,
            ProtocolObserver& observer, RunTelemetry* telemetry = nullptr);

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
  /// checkpoint.  `tx_epoch_skip` advances every ARQ tx sequence first
  /// (ReliableNode::skip_tx_sequences): a durable boot passes a gap so its
  /// sends never reuse a sequence number the previous incarnation spent.
  void start(const Checkpoint* from = nullptr, std::uint64_t tx_epoch_skip = 0);

  /// The tick edge of a host whose loop has one (a NetLoop tick hook,
  /// registered ahead of the transport's flush): a failed spill is retried,
  /// then the ARQ transmits each peer's open batch as one frame
  /// (ReliableNode::flush), with the ACKs a landed spill released.  A stack
  /// that is never ticked — the simulator's — sends each payload at once.
  void tick();

  // -- MessageSink: frames from the transport --------------------------------

  /// Hands the frame to the ARQ (or, without one, to the protocol).  A
  /// recoverable stack then checkpoints once if the frame delivered any
  /// payload: a BATCH or RESEND frame is received whole or not at all.
  /// While the stack is down the frame is dropped and counted.
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- checkpoint, crash, restart (recoverable shape only) -------------------

  /// Take the protocol's blob and the ARQ state into the one checkpoint,
  /// then fire the spill hook.
  void checkpoint();

  /// Installed by a persistence layer: invoked after every checkpoint, with
  /// checkpoint_bytes() fresh, and returns whether a snapshot of them landed.
  /// The hook must commit its write-ahead log BEFORE writing the snapshot so
  /// the on-disk invariant "WAL covers at least the snapshot" holds.
  using SpillHook = std::function<bool()>;
  void set_spill_hook(SpillHook hook) { spill_ = std::move(hook); }

  /// Destroy protocol and ARQ; their counters survive.
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
  /// Frames dropped because they arrived while the stack was down.
  [[nodiscard]] std::uint64_t dropped_while_down() const noexcept {
    return dropped_while_down_;
  }
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

  /// Build a fresh protocol and, with an ARQ config, a fresh ARQ.
  void build();
  /// Run the spill hook; hold the ARQ's ACKs while no snapshot has landed.
  void spill();

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
  SpillHook spill_;
  bool spill_pending_ = false;  ///< ACKs held; tick() retries the spill
  ProtocolStats stats_acc_;     ///< counters of dead protocols
  ReliableStats arq_acc_;       ///< counters of dead ARQs
  std::uint64_t dropped_while_down_ = 0;
};

}  // namespace dsm
