// procbench — the two closed-loop process-tier workloads.
//
// Every workload runs on n = 3 forked `optp` nodes.  The benchmark owns the
// seed; the nodes only ever see the Scripts generated here.
//
//   proc-chain    causal relay ring: hop k is written by node k mod 3 once
//                 it has seen hop k-1, so exactly one write is in flight and
//                 every hop pays the whole per-message latency path.
//   proc-rounds   coupled rounds: each node writes a bounded burst of B
//                 shared-variable writes (a read every 4th op), then a round
//                 marker, then waits for the other nodes' markers.
//
// The traced mode of proc-chain also runs a kDurableHops chain on durable
// nodes (state dir, WAL, one snapshot per mutation) to replay the storage
// layer; that run is not timed.
//
// Each await polls every 1 µs: at the default 50 µs poll a hop races the
// NetLoop's rounding of sub-millisecond timeouts up to 1 ms, and the hop time
// then measures that race instead of the stack.  An await gives up after
// kAwaitTimeout; check_scripted() turns a given-up await into a failed run.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/history/history.h"
#include "dsm/sim/sim_time.h"
#include "dsm/workload/script.h"

namespace procbench {

enum class Workload : std::uint8_t { kChain, kRounds };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w) noexcept;
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// How big one cluster run is.  kTimed is what the timed runs execute;
/// kAudit is the smaller run the traced mode merges and hands to the checker
/// and the auditor (the happens-before closure is quadratic in the op count,
/// and a fetched log must stay far below the 16 MiB control-frame cap).
enum class Size : std::uint8_t { kTimed, kAudit };

inline constexpr std::size_t kProcs = 3;
inline constexpr std::size_t kDataVars = 16;
/// Two marker variables per node (one per round parity) follow the data vars.
inline constexpr std::size_t kVars = kDataVars + 2 * kProcs;
inline constexpr dsm::SimTime kPollEvery = dsm::sim_us(1);
inline constexpr dsm::SimTime kAwaitTimeout = dsm::sim_s(5);

/// Ops per node per round on proc-rounds (every 4th a read).
inline constexpr std::size_t kBurst = 32;
/// Hops of the durable chain run behind the storage-layer metrics.  Its cost
/// per write grows with run length (each checkpoint re-encodes the whole
/// recovery log), so the length is fixed.
inline constexpr std::size_t kDurableHops = 600;

/// Hops of one chain run, or rounds of one rounds run.
[[nodiscard]] std::size_t steps_of(Workload w, Size size) noexcept;

struct Plan {
  std::vector<dsm::Script> scripts;  ///< one per node
  std::uint64_t writes = 0;          ///< total writes over all nodes
  std::uint64_t reads = 0;           ///< total reads (awaits included)
  std::uint64_t awaits = 0;          ///< ReadUntil steps over all nodes
};

/// Chain scripts: hop k (0-based) writes value k+1 to a seed-chosen data
/// variable at node k mod kProcs, after awaiting hop k-1's value.
[[nodiscard]] Plan make_chain(std::uint64_t seed, std::size_t hops);

/// Round scripts: `rounds` rounds of `burst` ops per node, then a marker
/// write to the node's parity-(r mod 2) marker variable and one await per
/// other node.  A marker value is never overwritten before every other node
/// has seen it: a node writes round r+2's marker to the same variable only
/// after every node has passed round r+1, which requires seeing round r's.
[[nodiscard]] Plan make_rounds(std::uint64_t seed, std::size_t rounds,
                               std::size_t burst);

[[nodiscard]] Plan make_plan(Workload w, std::uint64_t seed, Size size);

/// Checks process p's recorded ops against its script: one op per step, in
/// order, and every await's read returned the awaited value (an await that
/// reached its timeout reads whatever is there).  Empty string when clean.
[[nodiscard]] std::string check_scripted(const Plan& plan,
                                         const dsm::GlobalHistory& history,
                                         dsm::ProcessId p);

/// Runs the scripts once through the deterministic simulator (dsm::run_sim
/// with reordering latencies).  Empty string when the run terminates and no
/// await gave up; otherwise a diagnostic.
[[nodiscard]] std::string prove_in_sim(const Plan& plan, std::uint64_t seed);

}  // namespace procbench
