// optcm — network and process fault injection.
//
// The paper assumes reliable exactly-once channels and crash-free processes
// (Section 3.1).  The simulator can instead model
//
//   * a faulty datagram network — independent per-message drops and
//     duplications — over which dsm/sim/reliable.h rebuilds the reliable
//     channel the paper assumes;
//   * partition windows — pairwise link blackouts with a heal time, during
//     which every message on the severed link vanishes (evaluated at SEND
//     time: a message launched before the partition starts still arrives,
//     exactly like a packet already on the wire);
//   * process crashes with restart (CrashPlan) — a crashed process loses all
//     volatile state and all in-flight traffic addressed to it; recovery is
//     checkpoint + the peers' ARQ resends (see docs/FAULTS.md).
//
// Faults are deterministic in the seed and the message's channel
// coordinates, like everything else here.  The per-message draw is a
// splitmix64 chain over (seed, from→to, pair_index): each coordinate is
// folded in through the full avalanche finalizer, so draws for nearby
// channels or consecutive messages are statistically independent (the
// previous xor-chain correlated them; see tests/test_reliable.cpp).

#pragma once

#include <cstdint>
#include <vector>

#include "dsm/common/contracts.h"
#include "dsm/common/rng.h"
#include "dsm/common/types.h"
#include "dsm/sim/sim_time.h"

namespace dsm {

/// Bidirectional link blackout between processes `a` and `b` during
/// [start, heal).  Messages SENT inside the window are dropped; messages
/// already in flight when the window opens still arrive.
struct PartitionWindow {
  SimTime start = 0;
  SimTime heal = 0;  ///< exclusive end; heal > start
  ProcessId a = 0;
  ProcessId b = 0;
};

struct FaultPlan {
  double drop = 0.0;       ///< probability a message silently vanishes
  double duplicate = 0.0;  ///< probability a message is delivered twice
  std::uint64_t seed = 0;
  std::vector<PartitionWindow> partitions;

  [[nodiscard]] bool active() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || !partitions.empty();
  }

  /// True when the directed link from→to is inside a partition window at
  /// `now`.  Windows are symmetric (a↔b).
  [[nodiscard]] bool severed(ProcessId from, ProcessId to,
                             SimTime now) const noexcept {
    for (const PartitionWindow& w : partitions) {
      const bool on_link = (from == w.a && to == w.b) ||
                           (from == w.b && to == w.a);
      if (on_link && now >= w.start && now < w.heal) return true;
    }
    return false;
  }

  /// Add pairwise windows cutting `island` off from every other process in
  /// [start, heal) — the classic "minority partition" shape.
  void split(const std::vector<ProcessId>& island, std::size_t n_procs,
             SimTime start, SimTime heal) {
    DSM_REQUIRE(heal > start);
    std::vector<bool> inside(n_procs, false);
    for (ProcessId p : island) {
      DSM_REQUIRE(p < n_procs);
      inside[p] = true;
    }
    for (ProcessId a = 0; a < n_procs; ++a) {
      if (!inside[a]) continue;
      for (ProcessId b = 0; b < n_procs; ++b) {
        if (inside[b]) continue;
        partitions.push_back(PartitionWindow{start, heal, a, b});
      }
    }
  }

  /// Deterministic per-message fault draw.
  struct Draw {
    bool dropped = false;
    bool duplicated = false;
  };

  [[nodiscard]] Draw draw(ProcessId from, ProcessId to,
                          std::uint64_t pair_index) const {
    if (drop <= 0.0 && duplicate <= 0.0) return {};
    // Sponge-like chain: fold each coordinate in through the splitmix64
    // finalizer so every (seed, channel, index) triple lands in its own
    // stream.  `splitmix64` advances its state by the golden gamma and
    // returns the avalanche of the new state, so `finalize(s) ^ coord` is a
    // full-width mix per step.
    std::uint64_t s = seed;
    s = splitmix64(s) ^ ((std::uint64_t{from} << 32) | std::uint64_t{to});
    s = splitmix64(s) ^ pair_index;
    Rng rng(splitmix64(s));
    Draw d;
    d.dropped = rng.chance(drop);
    if (!d.dropped) d.duplicated = rng.chance(duplicate);
    return d;
  }
};

/// One scheduled crash: process `p` dies at `at` (volatile state and all
/// in-flight traffic to it are lost) and restarts at `restart_at` from its
/// last checkpoint.  Permanent crashes are not modeled — Theorem 5 liveness
/// is only meaningful for processes that come back.
struct CrashEvent {
  ProcessId p = 0;
  SimTime at = 0;
  SimTime restart_at = 0;
};

/// One crash/restart episode as a harness observed it.  `recovered` means
/// the process caught up — it applied (or logically applied) every write
/// issued anywhere before the restart AND its pending buffer drained —
/// before the run ended; the gap `recovered_at - restarted_at` is the
/// recovery time benches report.
struct RecoveryRecord {
  ProcessId proc = 0;
  SimTime crashed_at = 0;
  SimTime restarted_at = 0;
  SimTime recovered_at = 0;
  bool recovered = false;
};

struct CrashPlan {
  std::vector<CrashEvent> events;

  [[nodiscard]] bool active() const noexcept { return !events.empty(); }

  /// Rejects malformed plans: zero-length downtime or overlapping windows
  /// for the same process (a process cannot crash while already down).
  void validate(std::size_t n_procs) const {
    for (const CrashEvent& e : events) {
      DSM_REQUIRE(e.p < n_procs);
      DSM_REQUIRE(e.restart_at > e.at);
      for (const CrashEvent& o : events) {
        if (&o == &e || o.p != e.p) continue;
        const bool disjoint = o.restart_at <= e.at || o.at >= e.restart_at;
        DSM_REQUIRE(disjoint && "overlapping crash windows for one process");
      }
    }
  }
};

struct FaultStats {
  std::uint64_t dropped = 0;            ///< random per-message drops
  std::uint64_t duplicated = 0;
  std::uint64_t partition_dropped = 0;  ///< sends inside a partition window
  std::uint64_t crash_dropped = 0;      ///< deliveries to a crashed process
};

}  // namespace dsm
