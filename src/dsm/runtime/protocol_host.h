// optcm — the per-process protocol stack behind one transport-facing seam.
//
// A ProtocolHost holds a CausalProtocol built by the registry, optionally
// wrapped in a RecoveryNode with synchronous checkpoints, fed decoded
// transport bytes and reporting to an observer chain.  It owns the build
// order, the checkpoint contents, kill/restart stat accumulation and the
// telemetry wiring.  NodeStack (node_stack.h) puts the ARQ under it — that
// pair is what the simulator and ProcessNode host per process — and the
// threaded ThreadCluster hosts a bare ProtocolHost over its lossless
// mailboxes.
//
// The delivery contract is MessageSink::deliver — the same interface the
// mailbox drain loop, the ARQ layer, and the socket dispatch all speak.  A
// message delivered while the host is down (killed, awaiting restart) is
// dropped and counted, like traffic to a crashed OS process.
//
// Thread-safety: none of its own — the host inherits the protocol's
// confinement contract.  ThreadCluster calls it under the owning node's
// mutex; NodeStack calls it from its single dispatch context.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dsm/common/sink.h"
#include "dsm/protocols/recovery.h"
#include "dsm/protocols/registry.h"

namespace dsm {

class RunTelemetry;

/// When the host checkpoints and spills.  The synchronous write-ahead
/// discipline of the crash-recovery layer corresponds to the defaults
/// (checkpoint on every mutation, spill on every checkpoint); larger
/// intervals trade recovery granularity for speed.  Owned by ProtocolHost so
/// the thread and process tiers share one scheduling code path instead of
/// ad-hoc checkpoint calls at every mutation site.
struct DurabilityPolicy {
  std::uint64_t checkpoint_every = 1;  ///< mutations per in-memory checkpoint
  std::uint64_t snapshot_every = 1;    ///< checkpoints per spill-hook firing
};

class ProtocolHost final : public MessageSink {
 public:
  /// What to build: protocol kind and topology, plus whether the stack is
  /// recoverable (RecoveryNode + synchronous checkpoints; requires a
  /// class-𝒫 buffering protocol).
  struct Shape {
    ProtocolKind kind = ProtocolKind::kOptP;
    ProcessId self = 0;
    std::size_t n_procs = 3;
    std::size_t n_vars = 8;
    ProtocolConfig protocol_config;
    bool recoverable = false;
    DurabilityPolicy durability;  ///< recoverable mode only
  };

  /// `lower` is the transport-facing Endpoint (mailbox poster, ARQ node, …)
  /// and `observer` the head of the observer chain; both must outlive the
  /// host.  `telemetry` may be null.
  ProtocolHost(const Shape& shape, Endpoint& lower, ProtocolObserver& observer,
               RunTelemetry* telemetry = nullptr);

  ProtocolHost(const ProtocolHost&) = delete;
  ProtocolHost& operator=(const ProtocolHost&) = delete;

  /// Runs the protocol's start() (may send — the transport must already be
  /// accepting) and, in recoverable mode, takes the time-zero checkpoint.
  void start();

  /// Durable-boot alternative to start(): restore protocol + recovery state
  /// from a previously spilled checkpoint blob onto the freshly built stack,
  /// broadcast a catch-up request, and take the time-zero checkpoint.  The
  /// protocol's start() is NOT run (the restored state already includes its
  /// effects).  \pre recoverable, up(), and no operation has run yet.
  void start_restored(std::span<const std::uint8_t> blob);

  // -- MessageSink: the transport-facing delivery contract -------------------

  /// Routes one decoded message into the stack: through the RecoveryNode in
  /// recoverable mode, straight to the protocol otherwise.  While the host
  /// is down the message is dropped and counted (a crashed host loses
  /// traffic; catch-up repairs it after restart).
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- crash / restart (recoverable mode only) -------------------------------

  /// One protocol-visible state mutation happened (delivery, catch-up
  /// handling, script operation).  The host applies its DurabilityPolicy:
  /// checkpoint every `checkpoint_every`-th call, fire the spill hook every
  /// `snapshot_every`-th checkpoint.  All mutation sites call this — the
  /// policy decides, not the call site.
  void note_mutation();

  /// Serialize protocol + recovery state into the in-memory checkpoint slot
  /// immediately (bypasses the policy counter; still fires the spill hook).
  void checkpoint();

  /// Installed by a persistence layer: invoked after a checkpoint that the
  /// policy selected for spilling, with checkpoint_bytes() fresh.  The hook
  /// must commit its write-ahead log BEFORE writing the snapshot so the
  /// on-disk invariant "WAL covers at least the snapshot" holds.
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

  /// Rebuild from the last checkpoint and broadcast a catch-up request.
  void restart();

  [[nodiscard]] bool up() const noexcept { return up_; }

  /// The live protocol instance.  \pre up().
  [[nodiscard]] CausalProtocol& protocol() const;

  /// Live recovery node, or null (non-recoverable mode or killed).
  [[nodiscard]] RecoveryNode* recovery() const noexcept {
    return recovery_.get();
  }

  /// Counters summed across incarnations (accumulators + live instance).
  [[nodiscard]] ProtocolStats stats() const;
  [[nodiscard]] RecoveryStats recovery_stats() const;

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
  /// Restore protocol + recovery state from `blob`, request catch-up, and
  /// checkpoint.
  void rejoin(std::span<const std::uint8_t> blob);

  Shape shape_;
  Endpoint* lower_;
  ProtocolObserver* observer_;
  RunTelemetry* telemetry_;
  std::unique_ptr<RecoveryNode> recovery_;  ///< recoverable mode only
  std::unique_ptr<CausalProtocol> protocol_;
  BufferingProtocol* buffering_ = nullptr;  ///< recoverable mode only
  bool up_ = true;
  std::vector<std::uint8_t> checkpoint_;
  SpillHook spill_;
  CheckpointHook on_checkpoint_;
  std::uint64_t mutations_since_checkpoint_ = 0;
  std::uint64_t checkpoints_since_spill_ = 0;
  ProtocolStats stats_acc_;  ///< counters of dead incarnations
  RecoveryStats rec_acc_;
  std::uint64_t dropped_while_down_ = 0;
};

}  // namespace dsm
