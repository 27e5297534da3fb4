// optcm — NodeStack: the per-process crash unit of every host: the
// simulator, the process tier and CausalMemory.
//
// An optional ReliableNode (the ARQ) under a ProtocolHost, on a
// DatagramTransport: the simulated Network in run_sim, FaultyTransport →
// ShardMux → TcpTransport in ProcessNode, FaultyTransport → ShardMux →
// RingMesh in CausalMemory.  Crash handling exists once, here:
//
//   * kill() destroys protocol and ARQ — all volatile state.  Frames
//     reaching a down stack are dropped and counted
//     (ProtocolHost::dropped_while_down).
//   * restart() rebuilds from the last checkpoint: the ARQ first (it
//     retransmits what was unacked and sends each peer a RESUME frame, which
//     the peer answers by resending its whole window), then the protocol.
//     The ARQ is the only repair: a receipt is checkpointed before its ACK
//     can leave, so what the crash lost is still unacked at its sender.
//   * A recoverable stack checkpoints after each frame that delivered a
//     payload, once the whole frame is in, and after each local operation
//     (its owner calls host().checkpoint()).
//   * A checkpoint is the host's blob plus the ARQ state taken at the same
//     instant; encode_checkpoint/decode_checkpoint frame it as
//     [u64 len][host][u64 len][ARQ] — the body of a durable node's snapshot.
//
// A host whose event loop has a tick edge calls tick() there: the ARQ then
// sends one DATA frame per peer per tick, however many payloads the tick
// produced.  The simulator has no tick edge, and its stacks send each
// payload at once.
//
// The ARQ is present when the link can lose frames: always on a NetLoop
// (TCP, or a ring mesh whose full ring drops), and in the simulator under a
// fault or crash plan.  Without it the stack forwards straight to the host.
//
// Thread-safety: none — one dispatch context (the simulator's event loop or
// the NetLoop) drives the transport, the ARQ timers and the host.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dsm/codec/codec.h"
#include "dsm/common/transport.h"
#include "dsm/runtime/protocol_host.h"
#include "dsm/sim/event_queue.h"
#include "dsm/sim/reliable.h"

namespace dsm {

class NodeStack final : public MessageSink, private Endpoint {
 public:
  /// Attaches itself as `shape.self`'s sink on `transport`.  `arq` engaged =
  /// build the ARQ with that tuning.  `queue`, `transport`, `observer` and
  /// `telemetry` (may be null) must outlive the stack.
  NodeStack(EventQueue& queue, DatagramTransport& transport,
            const ProtocolHost::Shape& shape, std::optional<ReliableConfig> arq,
            ProtocolObserver& observer, RunTelemetry* telemetry = nullptr);

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// The two parts of a spilled checkpoint, viewing the bytes they were
  /// decoded from.
  struct Checkpoint {
    std::span<const std::uint8_t> host;
    std::span<const std::uint8_t> arq;
  };

  /// Boot the stack.  With `from` (a durable boot), restore the ARQ (which
  /// resumes its peers), then the protocol; without it, run the protocol's
  /// start().  `tx_epoch_skip` advances every ARQ tx sequence first
  /// (ReliableNode::skip_tx_sequences): a durable boot passes a gap so its
  /// sends never reuse a sequence number the previous incarnation spent.
  void start(const Checkpoint* from = nullptr, std::uint64_t tx_epoch_skip = 0);

  /// The tick edge of a host whose loop has one (a NetLoop tick hook,
  /// registered ahead of the transport's flush): the ARQ transmits each
  /// peer's open batch as one frame (ReliableNode::flush).  A stack that is
  /// never ticked — the simulator's — sends each payload at once.
  void tick();

  // -- MessageSink: frames from the transport --------------------------------

  /// Hands the frame to the ARQ (or, without one, to the host).  A
  /// recoverable stack then checkpoints once if the frame delivered any
  /// payload: a BATCH or RESEND frame is received whole or not at all.
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  /// ReliableNode::hold_acks on the live ARQ; a no-op without one.  A
  /// restarted ARQ starts released.
  void hold_acks(bool hold);

  // -- crash / restart (recoverable shape only) ------------------------------

  /// Destroy protocol and ARQ; their counters survive.
  void kill();
  /// Rebuild from the last checkpoint: ARQ (retransmitting what was unacked
  /// and resuming its peers), then the protocol.
  void restart();
  [[nodiscard]] bool up() const noexcept { return host_.up(); }

  /// Write the last checkpoint as [u64 len][host][u64 len][ARQ state].
  void encode_checkpoint(ByteWriter& w) const;
  /// Parse what encode_checkpoint wrote; nullopt on malformed framing.
  [[nodiscard]] static std::optional<Checkpoint> decode_checkpoint(
      ByteReader& r);

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] ProtocolHost& host() noexcept { return host_; }
  [[nodiscard]] const ProtocolHost& host() const noexcept { return host_; }
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
  // -- Endpoint: the host's path down ----------------------------------------
  void broadcast(Payload payload) override;
  void send(ProcessId to, Payload payload) override;

  void build_arq();
  void restore_arq(std::span<const std::uint8_t> state);

  EventQueue* queue_;
  DatagramTransport* transport_;
  ProcessId self_;
  std::size_t n_procs_;
  bool recoverable_;
  std::optional<ReliableConfig> arq_config_;
  RunTelemetry* telemetry_;
  std::unique_ptr<ReliableNode> arq_;
  ProtocolHost host_;
  std::vector<std::uint8_t> arq_checkpoint_;  ///< taken with the host's
  ReliableStats arq_acc_;                     ///< counters of dead ARQs
};

}  // namespace dsm
