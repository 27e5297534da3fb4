// optcm — RingMesh + ShardMux: the co-located fast path of the
// shard-per-core runtime (docs/NETWORK.md).
//
// A ShardHost packs several consecutive protocol processes ("shards") into
// one OS process, one NetLoop thread per shard.  Traffic between co-located
// shards has no business touching the kernel: the RingMesh is a full mesh of
// lock-free SPSC rings (dsm/runtime/spsc_ring.h), one per DIRECTED shard
// pair, carrying the same encoded ARQ frames the TCP path carries.  Each
// shard owns one eventfd doorbell watched by its NetLoop, so a sleeping
// shard wakes exactly like it would for a socket — the loop cannot tell the
// difference, and neither can any layer above the transport seam.
//
// ShardMux is the DatagramTransport that routes: sends to a co-located peer
// push onto the mesh (ring full = datagram DROP, counted in
// ring_overflows_total — exactly the drop-when-down semantics of the TCP
// transport; the ARQ above repairs), everything else forwards to the
// wrapped TcpTransport.  The FaultyTransport shim sits ABOVE the mux, so
// nemesis drops/partitions apply to ring links and socket links alike.
//
// The SPSC contract holds by construction: the only producer for ring i→j
// is shard i's NetLoop thread, the only consumer is shard j's.
//
// Thread-safety: post() and drain() are safe cross-thread per the SPSC
// contract; everything else is confined per shard.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dsm/common/contracts.h"
#include "dsm/common/stat_fields.h"
#include "dsm/common/transport.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/runtime/spsc_ring.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

/// Default slots per directed shard link.  A full ring drops (the ARQ
/// repairs), so this only bounds burst absorption, not correctness.
inline constexpr std::size_t kRingMeshCapacity = 4096;

class RingMesh {
 public:
  struct Msg {
    ProcessId from = 0;
    Payload bytes;  ///< refcounted encoded frame, shared with TCP fan-out
  };

  /// One mesh for shards [base, base + count).
  RingMesh(ProcessId base, std::size_t count,
           std::size_t ring_capacity = kRingMeshCapacity);
  ~RingMesh();

  RingMesh(const RingMesh&) = delete;
  RingMesh& operator=(const RingMesh&) = delete;

  [[nodiscard]] ProcessId base() const noexcept { return base_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool hosts(ProcessId p) const noexcept {
    return p >= base_ && p < base_ + count_;
  }

  /// Producer side (shard `from`'s loop thread only).  False = ring full;
  /// the caller counts the drop.  Rings `to`'s eventfd only when `to`
  /// has ARMED its doorbell (it does just before sleeping, see arm()) and no
  /// producer has already rung it since — so while the consumer keeps up the
  /// hot path is push + fence + one relaxed load, zero syscalls.
  [[nodiscard]] bool post(ProcessId from, ProcessId to, Payload bytes);

  /// Consumer side (shard `self`'s loop thread only): pop every queued
  /// message from every inbound ring into `sink`.  Pure scan — no doorbell
  /// traffic — so calling it in a hot loop costs producers nothing.  Returns
  /// the number delivered.
  std::size_t drain(ProcessId self, MessageSink& sink);

  /// Arm the doorbell before sleeping.  Protocol (Dekker pairing with
  /// post()): arm(), then drain() ONCE MORE, then sleep on doorbell_fd().
  /// A post that the re-drain misses necessarily sees the arm and rings, so
  /// the fd is readable before the sleep starts — no lost wakeups.
  void arm(ProcessId self);

  /// Clear the eventfd after a doorbell wakeup (and before the drain that
  /// services it).  Never call between arm() and the sleep — a cleared ring
  /// whose message the last drain missed would strand until the next tick.
  void acknowledge(ProcessId self);

  /// Shard `self`'s doorbell (eventfd, nonblocking) for its NetLoop watch.
  [[nodiscard]] int doorbell_fd(ProcessId self) const;

  /// True when every ring PRODUCED by `self` is empty (the shard's outbound
  /// in-flight window; the quiescence barrier checks it).
  [[nodiscard]] bool outbound_empty(ProcessId self) const;

 private:
  [[nodiscard]] std::size_t ring_index(ProcessId from, ProcessId to) const;

  ProcessId base_;
  std::size_t count_;
  /// count×count directed links, index producer-major; self-pairs unused.
  std::vector<std::unique_ptr<SpscRing<Msg>>> rings_;
  std::vector<int> doorbells_;  ///< one eventfd per consumer shard
  /// Doorbell dedup state, one cache line per consumer: true = the consumer
  /// is (about to be) asleep and wants the next post to ring its eventfd.
  /// While the consumer is actively draining the flag stays false, so the
  /// armed line is read-shared across cores and never ping-pongs.
  struct alignas(kCacheLine) Armed {
    std::atomic<bool> flag{true};
  };
  std::vector<Armed> armed_;
};

/// A ShardMux's counters (all 0 without a mesh).
struct ShardStats {
  std::uint64_t local_frames = 0;  ///< sends to a co-located shard
  std::uint64_t cross_frames = 0;  ///< sends handed to the TcpTransport
  std::uint64_t ring_pushes = 0;
  std::uint64_t ring_overflows = 0;  ///< ring full: dropped, the ARQ repairs
  std::uint64_t ring_wakeups = 0;    ///< doorbell readiness callbacks
  std::uint64_t ring_pops = 0;
  /// Drains that popped at least one message: pops / drains is the mean
  /// batch a wakeup or tick edge delivers.
  std::uint64_t ring_drains = 0;

  static const StatField<ShardStats> kFields[];
};

inline constexpr StatField<ShardStats> ShardStats::kFields[] = {
    {metric::kShardLocalFrames, &ShardStats::local_frames},
    {metric::kShardCrossFrames, &ShardStats::cross_frames},
    {metric::kRingPushes, &ShardStats::ring_pushes},
    {metric::kRingOverflows, &ShardStats::ring_overflows},
    {metric::kRingWakeups, &ShardStats::ring_wakeups},
    {metric::kRingPops, &ShardStats::ring_pops},
    {metric::kRingDrains, &ShardStats::ring_drains},
};
static_assert(covers_every_field<ShardStats>());

/// The routing DatagramTransport: co-located destinations ride the mesh,
/// remote ones the wrapped TcpTransport.  With no mesh attached it is a
/// transparent pass-through (the non-sharded ProcessNode pays one branch).
/// A null `tcp` means every peer is co-located (CausalMemory: one mesh, no
/// sockets); the mesh must then host every process.
class ShardMux final : public DatagramTransport {
 public:
  ShardMux(NetLoop& loop, TcpTransport* tcp, ProcessId self, RingMesh* mesh)
      : loop_(&loop), tcp_(tcp), self_(self), mesh_(mesh) {
    DSM_REQUIRE(tcp_ != nullptr || (mesh_ != nullptr && mesh_->base() == 0));
  }
  ~ShardMux() override {
    *alive_ = false;
    if (started_ && mesh_ != nullptr)
      loop_->unwatch(mesh_->doorbell_fd(self_));
  }

  /// Watch the doorbell and register the tick-edge drain.  Call after
  /// attach() and tcp->start(), on the owning loop thread.
  void start();

  // -- DatagramTransport -----------------------------------------------------
  void attach(ProcessId p, MessageSink& sink) override {
    sink_ = &sink;
    if (tcp_ != nullptr) tcp_->attach(p, sink);
  }
  void send(ProcessId from, ProcessId to, Payload payload) override;
  [[nodiscard]] std::size_t n_procs() const override {
    return tcp_ != nullptr ? tcp_->n_procs() : mesh_->count();
  }

  // -- runtime state ---------------------------------------------------------
  /// Socket out-queues drained AND our outbound rings empty.
  [[nodiscard]] bool flushed() const;
  /// Every peer reachable: TCP conns up for remote peers; co-located peers
  /// are always "connected" (the mesh needs no handshake).
  [[nodiscard]] bool fully_connected() const;
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  void drain();

  NetLoop* loop_;
  TcpTransport* tcp_;  ///< null: every peer is on the mesh
  ProcessId self_;
  ShardStats stats_;
  RingMesh* mesh_;  ///< null: no co-located shards
  MessageSink* sink_ = nullptr;
  bool started_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dsm
