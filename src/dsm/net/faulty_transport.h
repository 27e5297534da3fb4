// optcm — FaultyTransport: deterministic link-fault injection for the real
// socket tier.
//
// The simulator's FaultPlan (dsm/sim/fault.h) can drop and duplicate
// messages, but only inside the simulated Network.  FaultyTransport brings
// the same seeded-splitmix64 determinism to the process tier: it is a
// DatagramTransport decorator slotted between a NodeStack's ARQ and the
// TcpTransport (the stack attaches itself as the sink of whatever transport
// it is handed, so the shim composes without touching either side).  Faults are
// applied on the SEND side only — the frame never reaches the socket, or
// reaches it mangled/late/twice — which keeps the receive path and the
// control plane untouched.
//
// Per-frame faults, drawn per directed link from a splitmix64 chain over
// (seed, from→to, frame index) exactly like FaultPlan::draw, so the draw
// stream for a link is a pure function of the plan and the frame count:
//
//   * drop        — the frame silently vanishes (the ARQ's RTO repairs it)
//   * corrupt     — the ARQ frame-type byte is overwritten with an invalid
//                   value, so the receiver's defensive decode ALWAYS rejects
//                   the frame (counted in malformed_dropped).  This models
//                   checksum-detected corruption; flipping payload bits
//                   could decode as a valid-but-different message, which no
//                   real CRC-protected link would deliver.
//   * reorder     — the frame is held back one slot: the NEXT frame to the
//                   same peer overtakes it (a flush timer bounds the wait
//                   when no next frame comes).
//   * delay       — the frame is scheduled delay_min..delay_max µs late.
//   * duplicate   — the frame is forwarded twice back-to-back.
//   * throttle    — bytes_per_ms > 0 serializes frames through a token
//                   bucket, modeling a thin link.
//   * blocked     — the directed link is dead: every frame is dropped.
//                   Asymmetric partitions are two LinkFaults entries —
//                   A→B blocked while B→A flows.
//
// All random fields are drawn unconditionally in a fixed order, so which
// faults are ENABLED does not perturb the draws of the others, and the
// per-link stream replays identically across runs and across plan updates
// (set_plan keeps the frame counters).
//
// Thread-safety: none — confined to the owning NetLoop's thread, like the
// transport it wraps.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/common/stat_fields.h"
#include "dsm/common/transport.h"
#include "dsm/net/net_loop.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

/// Fault mix for one directed link (or the all-links default).
struct LinkFaults {
  double drop = 0.0;       ///< probability the frame vanishes
  double duplicate = 0.0;  ///< probability the frame is sent twice
  double corrupt = 0.0;    ///< probability the frame is mangled (then rejected)
  double reorder = 0.0;    ///< probability the frame is overtaken by the next
  double delay = 0.0;      ///< probability the frame is late
  SimTime delay_min = 0;   ///< µs; inclusive lower bound of the lateness
  SimTime delay_max = 0;   ///< µs; inclusive upper bound
  std::uint64_t bytes_per_ms = 0;  ///< >0: serialize through this bandwidth
  bool blocked = false;    ///< directed link is dead (asymmetric partition)

  [[nodiscard]] bool active() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 || reorder > 0.0 ||
           delay > 0.0 || bytes_per_ms > 0 || blocked;
  }
};

/// The full plan: a default mix plus per-directed-link overrides.
struct NetFaultPlan {
  std::uint64_t seed = 0;
  LinkFaults all;
  std::vector<std::pair<std::pair<ProcessId, ProcessId>, LinkFaults>> links;

  [[nodiscard]] bool active() const noexcept {
    if (all.active()) return true;
    for (const auto& [key, lf] : links) {
      (void)key;
      if (lf.active()) return true;
    }
    return false;
  }

  /// Effective mix for from→to: the override when present, else `all`.
  [[nodiscard]] const LinkFaults& link(ProcessId from,
                                       ProcessId to) const noexcept {
    for (const auto& [key, lf] : links) {
      if (key.first == from && key.second == to) return lf;
    }
    return all;
  }

  /// Upsert the override for from→to and return it (directed!).
  LinkFaults& override_link(ProcessId from, ProcessId to);

  /// One frame's deterministic fault draw.  Every field is drawn whether or
  /// not its fault is enabled, in declaration order — adding a fault to a
  /// plan never perturbs the other faults' streams.
  struct Draw {
    bool dropped = false;
    bool corrupted = false;
    bool reordered = false;
    bool delayed = false;
    bool duplicated = false;
    SimTime delay_us = 0;
  };

  [[nodiscard]] Draw draw(ProcessId from, ProcessId to,
                          std::uint64_t frame_index) const;

  /// Wire form for the control plane (driver → node SetFaults).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<NetFaultPlan> decode(
      std::span<const std::uint8_t> bytes);
};

/// Injection counters (one set per transport = per sending process).
struct FaultStatsNet {
  std::uint64_t forwarded = 0;   ///< frames that reached the inner transport
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
  std::uint64_t throttled = 0;   ///< frames pushed late by the token bucket
  std::uint64_t blocked = 0;     ///< frames eaten by a blocked link

  static const StatField<FaultStatsNet> kFields[];
};

inline constexpr StatField<FaultStatsNet> FaultStatsNet::kFields[] = {
    {metric::kFaultForwarded, &FaultStatsNet::forwarded},
    {metric::kFaultDropped, &FaultStatsNet::dropped},
    {metric::kFaultDuplicated, &FaultStatsNet::duplicated},
    {metric::kFaultCorrupted, &FaultStatsNet::corrupted},
    {metric::kFaultReordered, &FaultStatsNet::reordered},
    {metric::kFaultDelayed, &FaultStatsNet::delayed},
    {metric::kFaultThrottled, &FaultStatsNet::throttled},
    {metric::kFaultBlocked, &FaultStatsNet::blocked},
};
static_assert(covers_every_field<FaultStatsNet>());

class FaultyTransport final : public DatagramTransport {
 public:
  /// `inner` outlives this shim; `loop` drives delay/reorder timers.
  FaultyTransport(NetLoop& loop, DatagramTransport& inner, ProcessId self);
  ~FaultyTransport() override;

  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  // -- DatagramTransport -----------------------------------------------------
  void attach(ProcessId p, MessageSink& sink) override;
  void send(ProcessId from, ProcessId to, Payload payload) override;
  [[nodiscard]] std::size_t n_procs() const override;

  /// Replace the plan at runtime (nemesis partition start/heal).  Frame
  /// counters are kept so the per-link draw streams stay aligned.
  void set_plan(NetFaultPlan plan) { plan_ = std::move(plan); }
  [[nodiscard]] const NetFaultPlan& plan() const noexcept { return plan_; }

  [[nodiscard]] const FaultStatsNet& stats() const noexcept { return stats_; }

 private:
  void forward(ProcessId to, Payload payload);
  void flush_held(ProcessId to);

  NetLoop* loop_;
  DatagramTransport* inner_;
  ProcessId self_;
  NetFaultPlan plan_;
  FaultStatsNet stats_;
  std::vector<std::uint64_t> frame_index_;  ///< per-dest frames seen
  std::vector<Payload> held_;               ///< per-dest reorder holdback slot
  std::vector<SimTime> busy_until_;         ///< per-dest token-bucket horizon
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dsm
