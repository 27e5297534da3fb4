// optcm — the per-process protocol stack behind one transport-facing seam.
//
// A ProtocolHost holds a CausalProtocol built by the registry, optionally
// recoverable (checkpointed after every mutation), fed decoded transport
// bytes and reporting to an observer chain.  It owns the build
// order, the checkpoint contents, kill/restart stat accumulation and the
// telemetry wiring.  Its one user is NodeStack (node_stack.h), which puts
// the ARQ under it — the pair every host runs per process: the simulator,
// ProcessNode and CausalMemory.
//
// The delivery contract is MessageSink::deliver — the same interface the
// ARQ layer and the transports speak.  A message delivered while the host
// is down (killed, awaiting restart) is dropped and counted, like traffic
// to a crashed OS process.
//
// A recoverable host checkpoints synchronously, and each checkpoint fires
// the spill hook.  NodeStack takes one after every ARQ frame that delivered
// a message, and the owner of the script one after every operation.  No
// receipt's ACK leaves the process before that checkpoint: in the simulator
// both happen in one event, and on a NetLoop the ACK waits for the tick
// edge.  So what a restart loses was never acknowledged, and the peers'
// ARQs resend it (reliable.h).
//
// Thread-safety: none of its own — the host inherits the protocol's
// confinement contract; NodeStack calls it from its single dispatch
// context.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dsm/common/sink.h"
#include "dsm/protocols/registry.h"

namespace dsm {

class RunTelemetry;

class ProtocolHost final : public MessageSink {
 public:
  /// What to build: protocol kind and topology, plus whether the stack is
  /// recoverable (synchronous checkpoints; requires a class-𝒫 buffering
  /// protocol).
  struct Shape {
    ProtocolKind kind = ProtocolKind::kOptP;
    ProcessId self = 0;
    std::size_t n_procs = 3;
    std::size_t n_vars = 8;
    ProtocolConfig protocol_config;
    bool recoverable = false;
  };

  /// `lower` is the transport-facing Endpoint (the NodeStack)
  /// and `observer` the head of the observer chain; both must outlive the
  /// host.  `telemetry` may be null.
  ProtocolHost(const Shape& shape, Endpoint& lower, ProtocolObserver& observer,
               RunTelemetry* telemetry = nullptr);

  ProtocolHost(const ProtocolHost&) = delete;
  ProtocolHost& operator=(const ProtocolHost&) = delete;

  /// Runs the protocol's start() (may send — the transport must already be
  /// accepting) and, in recoverable mode, takes the time-zero checkpoint.
  void start();

  /// Durable-boot alternative to start(): restore protocol state from a
  /// previously spilled checkpoint blob onto the freshly built stack and
  /// take the time-zero checkpoint.  The protocol's start() is NOT run (the
  /// restored state already includes its effects).  \pre recoverable, up(),
  /// and no operation has run yet.
  void start_restored(std::span<const std::uint8_t> blob);

  // -- MessageSink: the transport-facing delivery contract -------------------

  /// Hands one message to the protocol; the caller checkpoints (NodeStack
  /// does, once per ARQ frame).  While the host is down the message is
  /// dropped and counted (a crashed host loses traffic; the sender's ARQ
  /// resends it after the restart).
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- crash / restart (recoverable mode only) -------------------------------

  /// Serialize the protocol state into the in-memory checkpoint slot and
  /// fire the spill hook.  NodeStack calls it after each ARQ frame that
  /// delivered a message; the owner of the script after each operation.
  void checkpoint();

  /// Installed by a persistence layer: invoked after every checkpoint, with
  /// checkpoint_bytes() fresh.  The hook must commit its write-ahead log
  /// BEFORE writing the snapshot so the on-disk invariant "WAL covers at
  /// least the snapshot" holds.
  using SpillHook = std::function<void()>;
  void set_spill_hook(SpillHook hook) { spill_ = std::move(hook); }

  /// Installed by a stack that checkpoints a lower layer beside the host
  /// (NodeStack's ARQ): runs on every checkpoint, after the host's blob is
  /// taken and before the spill hook, and returns the bytes it saved, which
  /// the checkpoint telemetry counts with the host's.
  using CheckpointHook = std::function<std::size_t()>;
  void set_checkpoint_hook(CheckpointHook hook) {
    on_checkpoint_ = std::move(hook);
  }

  /// Destroy the live stack; its counters survive in the accumulators.
  void kill();

  /// Rebuild from the last checkpoint.
  void restart();

  [[nodiscard]] bool up() const noexcept { return up_; }

  /// The live protocol instance.  \pre up().
  [[nodiscard]] CausalProtocol& protocol() const;

  /// Counters summed across incarnations (accumulators + live instance).
  [[nodiscard]] ProtocolStats stats() const;

  /// Messages dropped because they arrived while the host was down.
  [[nodiscard]] std::uint64_t dropped_while_down() const noexcept {
    return dropped_while_down_;
  }

  /// The latest checkpoint blob (exposed for persistence layers).
  [[nodiscard]] const std::vector<std::uint8_t>& checkpoint_bytes()
      const noexcept {
    return checkpoint_;
  }

 private:
  void build();
  /// Restore protocol state from `blob` and checkpoint.
  void rejoin(std::span<const std::uint8_t> blob);

  Shape shape_;
  Endpoint* lower_;
  ProtocolObserver* observer_;
  RunTelemetry* telemetry_;
  std::unique_ptr<CausalProtocol> protocol_;
  bool up_ = true;
  std::vector<std::uint8_t> checkpoint_;
  SpillHook spill_;
  CheckpointHook on_checkpoint_;
  ProtocolStats stats_acc_;  ///< counters of dead incarnations
  std::uint64_t dropped_while_down_ = 0;
};

}  // namespace dsm
