// optcm — structured run tracing: typed events and exporters.
//
// Every interesting event of a run — send, receive, apply, read, write,
// crash, restart, checkpoint — becomes one TraceEvent carrying the process,
// the harness timestamp, the write identity and (where meaningful) the
// piggybacked vector clock.  A TraceBuffer retains them in emission order,
// and two exporters render a retained trace:
//
//   * export_chrome_trace — the Chrome trace_event JSON array format, loadable
//     directly in chrome://tracing or https://ui.perfetto.dev.  Each process
//     becomes a track; sends/receives/reads/writes are instant events, a
//     delayed apply is drawn as a duration slice spanning receipt→apply (the
//     paper's write delay, Definition 3, made visible on a timeline).
//   * export_trace_csv — one row per event for ad-hoc plotting.
//
// Timestamps are whatever clock the harness supplies (simulated microseconds
// under run_sim, wall-clock nanoseconds under ThreadCluster); the exporters
// take a scale factor to map them onto the trace format's microseconds.

#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/common/types.h"
#include "dsm/vc/vector_clock.h"

namespace dsm {

enum class TraceKind : std::uint8_t {
  kSend,        ///< issuer propagated a write update
  kReceive,     ///< a write update arrived at a process
  kApply,       ///< a write was applied to the local copy
  kRead,        ///< a read returned
  kWrite,       ///< a write operation was issued (application-level)
  kSkip,        ///< writing semantics superseded a write at this process
  kCrash,       ///< the process crashed (volatile state lost)
  kRestart,     ///< the process restarted from its checkpoint
  kCheckpoint,  ///< the process took a checkpoint
};

[[nodiscard]] std::string_view to_string(TraceKind k);

/// One structured event.  Fields beyond `kind`, `at`, `time` are populated
/// per kind (see docs/OBSERVABILITY.md for the exact schema table).
struct TraceEvent {
  TraceKind kind = TraceKind::kSend;
  ProcessId at = 0;          ///< process where the event happened
  std::uint64_t time = 0;    ///< harness clock (µs in sim, ns on threads)
  WriteId write;             ///< send/receive/apply/skip/read(from)/write
  VarId var = 0;             ///< send/receive/read/write
  Value value = kBottom;     ///< send/receive/read/write
  bool delayed = false;      ///< apply only: message was buffered at receipt
  std::uint64_t bytes = 0;   ///< send: encoded size; checkpoint: blob size
  VectorClock clock;         ///< piggybacked vector (send/receive); may be empty
};

/// Retains events in emission order.  Thread-safe append (the threaded
/// runtime records from every node); events() is meant for after the run
/// has quiesced.
class TraceBuffer {
 public:
  void accept(const TraceEvent& e) {
    std::lock_guard lock(mu_);
    events_.push_back(e);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return events_.size();
  }

  /// Snapshot of the retained events (copy: safe to use while the run could
  /// still be appending, though exporters are normally called post-run).
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::lock_guard lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Render a retained trace as a Chrome trace_event JSON array (the "JSON
/// Array Format": a top-level list of event objects; viewers accept it
/// directly).  `ts_scale` maps TraceEvent::time onto microseconds (1.0 for
/// the simulator, 1e-3 for ThreadCluster's nanoseconds).  Delayed applies are
/// emitted as duration ("X") slices from the matching receive when one exists
/// earlier in the buffer; everything else is an instant ("i") event.
[[nodiscard]] std::string export_chrome_trace(
    std::span<const TraceEvent> events, double ts_scale = 1.0);

/// Compact CSV: kind,proc,time,write,var,value,delayed,bytes,clock.
[[nodiscard]] std::string export_trace_csv(std::span<const TraceEvent> events);

}  // namespace dsm
