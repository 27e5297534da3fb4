// optcm — per-process operation scripts.
//
// A run's application-level behaviour is a Script per process: a sequence of
// steps executed in order, each after a delay relative to the completion of
// the previous step.  Three step kinds:
//
//   * Write(x, v)            — issue w(x)v.
//   * Read(x)                — issue r(x), whatever the value.
//   * ReadUntil(x, v)        — wait, without issuing reads, until the local
//     copy holds the write carrying value v, then issue one real read.
//     This is how the paper's reactive examples are scripted: p_3 in Ĥ₁
//     reads x₂ only once it returns b — under any protocol and any latency
//     assignment, so the *same history* is produced and only the event
//     orders/delays differ (exactly what Figures 1–3 and 6 contrast).
//   * Mutate(x, op, arg, arg2) — issue a typed mutation (dsm/objects): a
//     spec-defined write such as inc/cas/append/add, replicated exactly
//     like a write.
//   * Observe(x, op, arg)    — issue a typed accessor (get/scan/contains…):
//     answered from the ObjectStore's materialized state, recorded with its
//     visible-set counts, and paired with one real protocol read so the
//     causal merge-on-read discipline is preserved.
//
// Awaiting uses CausalProtocol::peek, which performs no Write_co merge and
// records nothing; the semantically relevant read happens exactly once.

#pragma once

#include <string>
#include <vector>

#include "dsm/common/types.h"
#include "dsm/objects/opcodes.h"
#include "dsm/sim/sim_time.h"

namespace dsm {

enum class StepKind : std::uint8_t { kWrite, kRead, kReadUntil, kMutate,
                                     kObserve };

struct ScriptStep {
  SimTime delay = 0;  ///< gap after the previous step completed
  StepKind kind = StepKind::kWrite;
  VarId var = 0;
  Value value = 0;                 ///< Write/Mutate: primary operand;
                                   ///< ReadUntil: value awaited;
                                   ///< Observe: query operand
  /// ReadUntil polling period p.  A missing value parks the step instead
  /// of polling: it wakes only at poll instants t0 + k·p (t0 = when it
  /// parked) — at the first one not before an apply at its process, and at
  /// the timeout's instant.  So it reads when polling every p would have,
  /// except on same-instant ties: an apply exactly on a poll instant is
  /// seen at that instant, even where a poll queued before the apply would
  /// have missed it, and the deadline runs before events at its instant
  /// queued after the step parked (DESIGN.md §4, "Awaits sleep on the poll
  /// grid").  Must be > 0.
  SimTime poll_every = sim_us(50);
  SimTime timeout = sim_s(3600);   ///< ReadUntil: give up and read anyway
  /// Typed steps only (kMutate/kObserve): the governing spec, opcode, and
  /// the secondary operand (CAS desired value).  Raw bytes, matching the
  /// wire encoding.
  std::uint8_t spec = 0;
  std::uint8_t opcode = 0;
  Value arg2 = 0;
};

using Script = std::vector<ScriptStep>;

/// Step factories (keep bench/test scripts terse).
[[nodiscard]] ScriptStep write_step(SimTime delay, VarId x, Value v);
[[nodiscard]] ScriptStep read_step(SimTime delay, VarId x);
[[nodiscard]] ScriptStep read_until_step(SimTime delay, VarId x, Value v,
                                         SimTime poll_every = sim_us(50));
[[nodiscard]] ScriptStep mutate_step(SimTime delay, VarId x, SpecId spec,
                                     OpCode opcode, Value arg, Value arg2 = 0);
[[nodiscard]] ScriptStep observe_step(SimTime delay, VarId x, SpecId spec,
                                      OpCode opcode, Value arg = 0);

/// Total number of steps of a given kind across all scripts.
[[nodiscard]] std::size_t count_steps(const std::vector<Script>& scripts,
                                      StepKind kind);

}  // namespace dsm
