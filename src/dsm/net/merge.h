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
// a write nobody sent, a send of a write its node never issued, an op of
// another process in a node's trace, mismatched proc/var counts, a
// dependency cycle) — that is a correctness failure worth failing a test
// over, not an input to repair.
//
// A node that was SIGKILLed and respawned needs no special case: its boot
// replayed the WAL, which holds its run log's own bytes, before it recorded
// anything new, so the log fetched at the end of the run is its whole run.
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

/// A merged run is a run like any node's: one history and one event log.
using MergedRun = ImportedRun;

/// `runs[p]` must be node p's own trace (ops of process p only; events
/// observed at p only), all with identical procs/vars metadata.
[[nodiscard]] std::optional<MergedRun> merge_runs(
    std::span<const ImportedRun> runs);

}  // namespace dsm
