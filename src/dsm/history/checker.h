// optcm — causal-consistency checker (paper Definitions 1–2; register case
// of the spec-driven legality rule).
//
// The general legality rule (Mostéfaoui–Perrin–Raynal, PAPERS.md
// arXiv:1802.00706): an accessor's return value is legal iff it is
// producible by SOME linearization of the accessor's causally visible
// mutations — consistent with ↦co — under the variable's sequential object
// specification.  dsm/objects/spec_checker.h implements that rule for every
// registered spec; THIS checker is its read/write-register special case,
// where the rule collapses to the paper's Definition 1:
//   r(x)v is legal iff ∃ w(x)v ↦co r(x)v and ∄ w(x)v' with
//   w(x)v ↦co w(x)v' ↦co r(x)v;  a read with no ↦ro-predecessor must return ⊥
//   and no write on x may be in its causal past.
// RegisterLegality below is the one implementation of that rule: this
// checker and the SpecChecker's register variables both call it.
//
// The checker is deliberately independent of every protocol implementation:
// it recomputes ↦co from the recorded program order + ↦ro alone, then
// validates each read against the definition.  It also sanity-checks the
// recording itself (reads-from must point at an existing write on the same
// variable with the same value).

#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsm/history/co_relation.h"
#include "dsm/history/history.h"

namespace dsm {

enum class ViolationKind : std::uint8_t {
  kCyclicCausality,    ///< recorded ↦co is not a partial order
  kDanglingReadsFrom,  ///< read cites a write that does not exist
  kVariableMismatch,   ///< read cites a write on a different variable
  kValueMismatch,      ///< read's value differs from the cited write's value
  kOverwrittenRead,    ///< ∃ w' on x with w ↦co w' ↦co r (Definition 1)
  kStaleBottomRead,    ///< read of ⊥ but a write on x is in the read's causal past
  /// Typed objects only (emitted by dsm/objects/spec_checker.h): no
  /// linearization of the accessor's visible mutations produces its return.
  kIllegalReturn,
};

[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind;
  OpRef read = kInvalidOp;       ///< offending read (if applicable)
  OpRef write = kInvalidOp;      ///< intervening / cited write (if applicable)
  std::string detail;            ///< human-readable explanation
};

struct CheckResult {
  std::vector<Violation> violations;
  std::size_t reads_checked = 0;
  /// Linearization-search work done by the spec checker (always 0 here: the
  /// register rule needs no enumeration).  Feeds the
  /// checker_linearizations_explored metric.
  std::uint64_t linearizations_explored = 0;

  [[nodiscard]] bool consistent() const noexcept { return violations.empty(); }
};

/// Definition 1 for single register reads, against a built ↦co.  On each
/// process p the writes w on x with w ↦co r form a prefix of p's writes on x,
/// and those with c ↦co w (c the cited write) an upward-closed suffix, so one
/// per-(process, variable) index of write positions, built here once, answers
/// each read with one lookup or binary search per process.  When several
/// writes witness a violation, the one reported is the first in
/// h.writes() order.
class RegisterLegality {
 public:
  /// `h` and `co` must outlive this object.
  RegisterLegality(const GlobalHistory& h, const CoRelation& co);

  /// Appends read r's violation, if any, to `result`.
  void check_read(OpRef r, CheckResult& result) const;

 private:
  /// p's writes on x, in program order.
  [[nodiscard]] std::span<const OpRef> writes_on(VarId x, ProcessId p) const;

  const GlobalHistory* h_;
  const CoRelation* co_;
  std::vector<std::vector<OpRef>> writes_on_;  // [x · n + p]
};

class ConsistencyChecker {
 public:
  /// Full check of Definition 2 over the history.
  [[nodiscard]] static CheckResult check(const GlobalHistory& h);

  /// Same, but reuses an already-built ↦co (avoids rebuilding the relation
  /// when callers also need the relation for other purposes).
  [[nodiscard]] static CheckResult check(const GlobalHistory& h,
                                         const CoRelation& co);
};

}  // namespace dsm
