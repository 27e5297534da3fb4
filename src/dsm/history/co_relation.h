// optcm — the causal-order relation ↦co, recomputed from a history.
//
// Paper Section 2: o₁ ↦co o₂ iff (process order) ∨ (read-from) ∨ (transitive
// closure of the two).  Process order is part of ↦co and ↦co is transitive,
// so the causal past of an operation holds, on each process p, a *prefix* of
// p's local history — the fact behind Theorems 1–2.  We store that past as n
// prefix lengths per operation: past[o][p] = |↓(o, ↦co) ∩ h_p|.  Then
// a ↦co b iff past[b][proc(a)] > idx(a), where idx(a) is a's position in its
// local history.  Memory and build time are O(ops·n).  If the recorded
// relation is cyclic, or a read cites an unrecorded write, the input is not a
// history at all (↦co must be a partial order) and build() reports it.
//
// This module is the *oracle* side of the repository: protocols never call
// it; tests, the checker and the optimality auditor use it to judge protocol
// behaviour independently.  The vectors come from the recorded program order
// and ↦ro alone, never from a protocol's clocks.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dsm/history/history.h"

namespace dsm {

class CoRelation {
 public:
  /// Computes ↦co for `h`.  Returns std::nullopt if the recorded relation is
  /// cyclic (then `h` is not a valid history).  `h` must outlive the result.
  [[nodiscard]] static std::optional<CoRelation> build(const GlobalHistory& h);

  /// a ↦co b (strict: an operation is not in its own causal past).
  [[nodiscard]] bool precedes(OpRef a, OpRef b) const noexcept;

  /// a ‖co b.
  [[nodiscard]] bool concurrent(OpRef a, OpRef b) const noexcept;

  /// ↓(o, ↦co) — the causal past of `o`, ascending OpRefs.
  [[nodiscard]] std::vector<OpRef> causal_past(OpRef o) const;

  /// Writes in ↓(o, ↦co): the set whose applies form X_co-safe(apply_k(o))
  /// when o is a write (paper Definition 4).
  [[nodiscard]] std::vector<OpRef> write_causal_past(OpRef o) const;

  /// w ↦co w' for two *writes* identified by WriteId.  Both must exist in the
  /// underlying history.
  [[nodiscard]] bool write_precedes(WriteId w, WriteId w2) const;

  /// w ‖co w' for two writes.
  [[nodiscard]] bool write_concurrent(WriteId w, WriteId w2) const;

  /// |↓(o, ↦co)|.
  [[nodiscard]] std::size_t causal_past_size(OpRef o) const noexcept;

  [[nodiscard]] const GlobalHistory& history() const noexcept { return *h_; }

 private:
  explicit CoRelation(const GlobalHistory& h) : h_(&h) {}

  /// The n prefix lengths of ↓(o, ↦co), one per process.
  [[nodiscard]] const std::uint32_t* past(OpRef o) const noexcept {
    return past_.data() + std::size_t{o} * h_->n_procs();
  }

  const GlobalHistory* h_;
  std::vector<std::uint32_t> idx_;   // idx_[o]: o's local-history position
  std::vector<std::uint32_t> past_;  // ops × n prefix lengths, row-major
};

}  // namespace dsm
