// optcm — Nemesis: a declarative, deterministic fault scheduler for the
// process tier (the name follows Jepsen's fault-injecting actor).
//
// A NemesisPlan is parsed from a compact spec string (the `optcm drive
// --nemesis=` DSL) and composes the repo's fault primitives into a timed
// schedule over a live ProcessCluster:
//
//   seed=N                 splitmix64 seed for every per-frame fault draw
//   drop=P dup=P           per-frame probabilities applied to EVERY link
//   corrupt=P reorder=P    (FaultyTransport; see faulty_transport.h)
//   delay=P:MIN:MAX        probability + lateness bounds in ms
//   throttle=N             serialize every link through N bytes/ms
//   partition=A:B@MS+DUR   block the DIRECTED link A→B from MS for DUR ms
//                          (an asymmetric partition is one entry; a full
//                          partition is the two directions)
//   flap=A:B@MS+GAPxCNT    drop the live TCP connection A→B CNT times,
//                          GAP ms apart, starting at MS (reconnect churn)
//   crash=N@MS             SIGKILL node N's OS process at MS, then respawn
//                          it from its durable state dir, wait for the mesh
//                          and an all-nodes quiescence barrier, re-install
//                          its fault plan, and resume its script
//   wal-fail=N:KIND@CNT    arm a storage failpoint on node N before boot:
//                          KIND ∈ {eio, enospc, short, fsync}, firing on
//                          WAL/snapshot I/O call number CNT (io_hooks.h)
//
// Entries are ';'-separated; later duplicates of scalar keys win.  parse()
// validates everything up front (probabilities in [0,1], node ids < n_procs,
// A≠B) so a bad spec fails the CLI before any process is spawned.
//
// Determinism: expand() flattens the plan into the totally ordered event
// timeline (sorted by time, then kind, then endpoints — a pure function of
// the spec), and trace_str() renders it as the run's fault event trace: two
// runs of the same spec produce byte-identical traces, and every per-frame
// fault draw inside FaultyTransport comes from the seeded per-(link, frame
// index) stream, so the INJECTION schedule is fully reproducible even though
// real sockets make frame timings themselves nondeterministic.
//
// run_nemesis() executes the timeline against a cluster whose scripts are
// already running, sleeping wall-clock between events.  Every partition
// start/heal recomputes the victim sender's NetFaultPlan from the base mix
// plus the set of currently blocked links (overlapping partitions refcount)
// and installs it over the control plane.  A crash is SIGKILL, respawn,
// barrier and resume.  The respawn replays its WAL into its run log before
// it records anything new, so the caller merges each node's final fetched
// log as it is, after its ordinary wait_done + quiescence + ARQ repair of
// the respawn; the merged log must still pass the causal checker (the chaos
// tests assert exactly that).

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/net/process_cluster.h"

namespace dsm {

struct NemesisPlan {
  std::uint64_t seed = 1;
  /// Baseline per-frame fault mix applied to every directed link for the
  /// whole run (blocked/overrides are managed by the partition events).
  LinkFaults base;

  struct Partition {
    ProcessId from = 0, to = 0;
    std::uint64_t at_ms = 0, dur_ms = 0;
  };
  struct Flap {
    ProcessId from = 0, to = 0;
    std::uint64_t at_ms = 0, gap_ms = 0, count = 1;
  };
  struct Crash {
    ProcessId node = 0;
    std::uint64_t at_ms = 0;
  };

  std::vector<Partition> partitions;
  std::vector<Flap> flaps;
  std::vector<Crash> crashes;
  std::vector<std::pair<ProcessId, StorageFailpoint>> wal_fails;

  [[nodiscard]] bool has_crashes() const noexcept { return !crashes.empty(); }

  /// The NetFaultPlan every node boots with: seed + base mix, no overrides.
  [[nodiscard]] NetFaultPlan boot_plan() const;

  /// Parse the DSL described above.  std::nullopt on any malformed or
  /// out-of-range entry; `error` (optional) receives a diagnostic.
  [[nodiscard]] static std::optional<NemesisPlan> parse(
      std::string_view spec, std::size_t n_procs, std::string* error = nullptr);
};

/// One step of the flattened timeline.
struct NemesisEvent {
  enum class Kind : std::uint8_t {
    kPartitionStart = 0,
    kPartitionHeal = 1,
    kFlap = 2,
    kCrash = 3,
  };
  std::uint64_t at_ms = 0;
  Kind kind = Kind::kFlap;
  ProcessId a = 0;  ///< sender / victim node
  ProcessId b = 0;  ///< partition/flap peer; unused for crashes
};

/// The plan's totally ordered event timeline — a pure function of the plan.
[[nodiscard]] std::vector<NemesisEvent> expand(const NemesisPlan& plan);

/// The deterministic fault event trace: one line per event, e.g.
/// "+15ms partition 1->2 start".  Byte-identical across runs of one spec.
[[nodiscard]] std::string trace_str(std::span<const NemesisEvent> events);

struct NemesisOutcome {
  bool ok = false;
  std::string error;  ///< first failure, human-readable, when !ok
};

/// Execute the plan's timeline against a cluster whose scripts are already
/// running.  `scripts`/`time_scale` are needed to resume a crashed node;
/// crashes require the cluster to have a durable state_dir.
[[nodiscard]] NemesisOutcome run_nemesis(ProcessCluster& cluster,
                                         const NemesisPlan& plan,
                                         const std::vector<Script>& scripts,
                                         std::uint64_t time_scale);

}  // namespace dsm
