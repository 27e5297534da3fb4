// optcm — rendering of recorded runs: the paper's run figures as text, and
// the run's timeline for trace viewers and plots.
//
// Four renderings, each from the recorder's event log:
//   * sequence lines — one "e <_k e' <_k …" line per process (Figures 1–2);
//     RunRecorder::sequence_str provides the raw line, render_sequences adds
//     the per-process framing.
//   * space-time table — one row per simulated instant, one column per
//     process, events annotated with the piggybacked vectors (Figures 3, 6:
//     the Write_co / FM-clock evolution is visible on each send/receipt).
//   * Chrome trace — the trace_event JSON array format, loadable in
//     chrome://tracing or https://ui.perfetto.dev.  Each process is a track;
//     a delayed apply is a duration slice spanning receipt→apply (the
//     paper's write delay, Definition 3, made visible on a timeline), every
//     other event an instant.
//   * trace CSV — one row per event, for ad-hoc plotting.
// The timeline renderings also mark each crash and restart of a recovery
// episode (SimRunResult::recoveries).  Timestamps are the recorder's clock,
// in µs in every harness (simulated under run_sim, wall-clock in
// ProcessNode and CausalMemory).

#pragma once

#include <span>
#include <string>

#include "dsm/protocols/run_recorder.h"
#include "dsm/sim/fault.h"

namespace dsm {

struct TraceRenderOptions {
  bool show_clocks = true;   ///< annotate send/receipt with their vectors
  bool show_returns = true;  ///< include read return events
  bool show_time = true;     ///< left column of simulated timestamps
};

/// Per-process sequence lines ("p3: receipt_3(w2^1) <_3 apply_3(w2^1) …").
[[nodiscard]] std::string render_sequences(const RunRecorder& recorder);

/// Chronological space-time table of the whole run.
[[nodiscard]] std::string render_space_time(const RunRecorder& recorder,
                                            const TraceRenderOptions& opts = {});

/// Chrome trace_event JSON array: one "M" record naming each process, an
/// "X" slice from the latest earlier receipt to each delayed apply that has
/// one, and an "i" instant for every other event, crash and restart.
[[nodiscard]] std::string render_chrome_trace(
    std::span<const RunEvent> events,
    std::span<const RecoveryRecord> recoveries = {});

/// CSV, one row per event in log order, each crash and restart placed by
/// its time: kind,proc,time,write,var,value,delayed,other,clock.
[[nodiscard]] std::string render_trace_csv(
    std::span<const RunEvent> events,
    std::span<const RecoveryRecord> recoveries = {});

}  // namespace dsm
