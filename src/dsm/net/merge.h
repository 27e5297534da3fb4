// optcm — merging per-node run logs into one analyzable global run.
//
// A ProcessCluster run produces N independent traces — each node records its
// OWN operations and the observer events that occurred THERE, with local
// wall-clock timestamps that are not comparable across machines.  The
// checker and auditor, however, consume a single GlobalHistory plus one
// totally-ordered event log.  merge_runs() builds that pair using only
// causal structure, never clocks:
//
// Per-process order is preserved verbatim (each node's ops and events are
// already in its program/observation order).  Across processes the merger
// round-robins, emitting a process's next item only once its dependencies
// are present in the merged prefix:
//   * a read waits for the write it reads from (its ↦ro writer),
//   * a receipt/apply/skip of write w waits for send(w),
//   * a skip of w by w' additionally waits for send(w'),
// which is exactly the "effects follow causes" order any real interleaving
// satisfies.  The result is *a* linearization consistent with causality —
// sufficient for the checker (which recomputes ↦co from program order + ↦ro)
// and the auditor (which evaluates per-process delay decisions).
//
// Returns std::nullopt when the logs are mutually inconsistent (a read from
// a write nobody sent, a send of a write its node never issued, mismatched
// proc/var counts, a dependency cycle) — that is a correctness failure worth
// failing a test over, not an input to repair.
//
// Contract: a merged history always has a ↦co.  Reads follow their writes
// and each op its program-order predecessor, so program order plus read-from
// is acyclic with no dangling read-from: CoRelation::build succeeds, and
// OptimalityAuditor::audit may take a merge_runs result unchecked.

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dsm/audit/trace_io.h"

namespace dsm {

struct MergedRun {
  GlobalHistory history;
  std::vector<RunEvent> events;

  MergedRun(std::size_t n_procs, std::size_t n_vars)
      : history(n_procs, n_vars) {}
};

/// `runs[p]` must be node p's own trace (ops of process p only; events
/// observed at p only), all with identical procs/vars metadata.
[[nodiscard]] std::optional<MergedRun> merge_runs(
    std::span<const ImportedRun> runs);

/// Stitch one node's per-incarnation logs (archived across kill -9 / respawn
/// cycles, oldest first) into the single log an uninterrupted run would have
/// produced — suitable as that node's entry in merge_runs().
///
/// Each incarnation boots by replaying the predecessor's WAL, so per process
/// the op lists must agree on their common prefix; the longest list carries
/// every operation (an uncommitted tail op re-executes deterministically in
/// the next incarnation, so divergence means genuinely inconsistent logs →
/// std::nullopt).  Events are unioned in first-seen order with per-key
/// occurrence counting — keyed on (kind, at, write, other, delayed), not
/// time, because a WAL replay preserves an event verbatim while a re-executed
/// tail op re-records it with a fresh timestamp; the counter keeps repeated
/// identical observations (two returns of the same read-from) distinct.
[[nodiscard]] std::optional<ImportedRun> stitch_incarnations(
    std::span<const ImportedRun> incarnations);

}  // namespace dsm
