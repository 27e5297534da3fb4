// optcm — NodeStack: the per-process crash unit of the simulator and the
// process tier.
//
// An optional ReliableNode (the ARQ) under a ProtocolHost, on a
// DatagramTransport: the simulated Network in run_sim, FaultyTransport →
// ShardMux → TcpTransport in ProcessNode.  Crash handling exists once, here:
//
//   * kill() destroys protocol, recovery node and ARQ — all volatile state.
//     Frames reaching a down stack are dropped and counted
//     (ProtocolHost::dropped_while_down).
//   * restart() rebuilds from the last checkpoint: the ARQ first (it
//     retransmits what was unacked), then protocol + recovery state, then a
//     catch-up request.
//   * A checkpoint is the host's blob plus the ARQ state taken at the same
//     instant; encode_checkpoint/decode_checkpoint frame it as
//     [u64 len][host][u64 len][ARQ] — the body of a durable node's snapshot.
//
// The ARQ is present when the link can lose frames: always over TCP, and in
// the simulator under a fault or crash plan.  Without it the stack forwards
// straight to the host.
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

  /// Boot the stack.  With `from` (a durable boot), restore the ARQ, then
  /// protocol + recovery state, and request catch-up; without it, run the
  /// protocol's start().  `tx_epoch_skip` advances every ARQ tx sequence
  /// first (ReliableNode::skip_tx_sequences): a durable boot passes a gap so
  /// its sends never reuse a sequence number the previous incarnation spent.
  void start(const Checkpoint* from = nullptr, std::uint64_t tx_epoch_skip = 0);

  // -- MessageSink: frames from the transport --------------------------------
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- crash / restart (recoverable shape only) ------------------------------

  /// Destroy protocol, recovery node and ARQ; their counters survive.
  void kill();
  /// Rebuild from the last checkpoint: ARQ (retransmitting what was
  /// unacked), protocol + recovery, then a catch-up request.
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
  std::optional<ReliableConfig> arq_config_;
  RunTelemetry* telemetry_;
  std::unique_ptr<ReliableNode> arq_;
  ProtocolHost host_;
  std::vector<std::uint8_t> arq_checkpoint_;  ///< taken with the host's
  ReliableStats arq_acc_;                     ///< counters of dead ARQs
};

}  // namespace dsm
