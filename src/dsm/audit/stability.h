// optcm — causal stability tracking.
//
// A write is STABLE once it has been applied (or, under writing semantics,
// logically applied via a skip) at every process: no future event anywhere
// can be ordered before it, so checkpoints may include it, buffers may drop
// bookkeeping about it, and late-joining tooling can treat it as settled.
// This is the standard "causal stability" notion from causal-broadcast
// systems, applied to the paper's apply events.
//
// StabilityTracker is a ProtocolObserver: feed it the same event stream as
// the recorder (use FanoutObserver to tee) and query the stable frontier —
// per issuing process, the largest sequence number S such that all of that
// process's writes 1..S are stable.  The tracker is deliberately
// protocol-agnostic: it watches apply/skip events only, so it works for every
// protocol in the library, in the simulator and on threads (it is
// internally locked, like the recorder).

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "dsm/protocols/protocol.h"
#include "dsm/vc/vector_clock.h"

namespace dsm {

class StabilityTracker final : public ProtocolObserver {
 public:
  explicit StabilityTracker(std::size_t n_procs);

  // -- ProtocolObserver ------------------------------------------------------
  void on_apply(ProcessId at, WriteId w, bool delayed) override;
  void on_skip(ProcessId at, WriteId w, WriteId by) override;

  // -- queries ---------------------------------------------------------------
  /// frontier()[j] = S ⇔ p_j's writes 1..S are applied everywhere.
  [[nodiscard]] VectorClock frontier() const;

  /// True iff `w` is applied (or skipped) at every process.
  [[nodiscard]] bool is_stable(WriteId w) const;

  /// Number of writes known issued (max seq seen per process, summed) that
  /// are not yet stable — the "in flight causality" gauge.
  [[nodiscard]] std::uint64_t unstable_count() const;

 private:
  [[nodiscard]] VectorClock frontier_locked() const;  // requires mu_ held

  /// applied_[k][j] = highest prefix of p_j's writes applied at p_k.
  /// Tracking prefixes (not sets) is sound because every protocol here
  /// applies each sender's writes in sequence order at every process —
  /// the safety property the auditor independently verifies; skips fill
  /// prefix holes at the instant of the jump.
  void bump(ProcessId at, WriteId w);

  mutable std::mutex mu_;
  std::size_t n_procs_;
  std::vector<VectorClock> applied_;         // [observer process][issuer]
  std::vector<std::vector<SeqNo>> pending_;  // out-of-prefix seqs, per (at, issuer)
  VectorClock issued_;                       // max seq seen per issuer
};

}  // namespace dsm
