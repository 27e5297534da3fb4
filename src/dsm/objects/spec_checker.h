// optcm — SpecChecker: spec-driven causal legality for typed objects.
//
// Generalizes the register checker (dsm/history/checker.h) along
// Mostéfaoui–Perrin–Raynal: an accessor's return value is legal iff SOME
// linearization of its visible mutations — consistent with the causal order
// ↦co — produces that value under the variable's sequential spec.
//
// Per accessor r on variable x:
//   1. The visible set V is reconstructed from the accessor's recorded
//      per-sender applied-mutation counts (Operation::visible): sender u
//      contributed its first visible[u] mutations on x, in issue order —
//      causal (FIFO-per-sender) delivery makes applied sets per-sender
//      prefixes, so the counts determine V exactly.  Histories recorded
//      without counts fall back to V = all mutations on x in ↓(r, ↦co).
//   2. Soundness gate: every mutation on x causally prior to r must be in V
//      (causal consistency forces causally prior mutations to be applied
//      before the accessor runs).
//   3. Mutations that cannot influence the accessor are dropped
//      (ObjectSpec::relevant), then the checker searches linearizations of
//      (V, ↦co|V) by DFS over per-sender frontiers, memoizing
//      (frontier, state-digest) pairs.  Order-insensitive specs (counter)
//      evaluate a single order.  If no linearization yields the recorded
//      return, the accessor is flagged kIllegalReturn.
//
// Register variables run the register checker's own code
// (RegisterLegality — same violations, same details, same order), which
// makes the SpecChecker a drop-in superset: on an all-register schema its
// verdicts are byte-identical to ConsistencyChecker's (differential ctest).
//
// The search effort is reported in CheckResult::linearizations_explored and
// surfaced as the checker_linearizations_explored metric.

#pragma once

#include "dsm/history/checker.h"
#include "dsm/history/co_relation.h"
#include "dsm/history/history.h"
#include "dsm/objects/schema.h"
#include "dsm/objects/spec.h"

namespace dsm {

class SpecChecker {
 public:
  struct Options {
    /// DFS budget per accessor (apply steps).  On exhaustion the accessor is
    /// accepted (never a false violation) and the work is still counted.
    std::uint64_t max_explored_per_accessor = 100'000;
  };

  /// Full spec-driven check of the history under `schema`.
  [[nodiscard]] static CheckResult check(const GlobalHistory& h,
                                         const ObjectSchema& schema);
  [[nodiscard]] static CheckResult check(const GlobalHistory& h,
                                         const ObjectSchema& schema,
                                         const Options& opts);

  /// Same, reusing an already-built ↦co.
  [[nodiscard]] static CheckResult check(const GlobalHistory& h,
                                         const ObjectSchema& schema,
                                         const CoRelation& co,
                                         const Options& opts);
};

}  // namespace dsm
