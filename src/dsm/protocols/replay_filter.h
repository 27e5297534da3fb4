// optcm — the replay filter: records each observer event of a durable
// process node once.
//
// Crash tolerance is an EXTENSION beyond the paper's model (Section 3.1
// assumes crash-free processes); see docs/FAULTS.md for the fault model.

#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <tuple>

#include "dsm/protocols/protocol.h"
#include "dsm/protocols/run_recorder.h"

namespace dsm {

/// Observer adapter that forwards each receipt/apply/skip event for a given
/// (process, write) at most once, and send events at most once per write.
/// A durable boot can make the same event happen twice: its muted reconcile
/// re-broadcasts a write on a fresh ARQ seq, which a peer that already
/// received the original receives again, and a redelivery of an event the
/// WAL replayed must not be recorded twice either.  The protocol absorbs
/// the duplicate update; this filter keeps the recorded trace — the input
/// to the checker, auditor, and determinism comparisons — free of the echo.
/// Return events pass through untouched (every read is a distinct
/// operation).
///
/// Only a durable ProcessNode builds one, and its NodeStack preseeds and
/// mutes it at boot.  A restart from an in-memory checkpoint (the simulator,
/// CausalMemory) restores each receipt together with its ARQ dedup state,
/// so no event repeats there.
///
/// Thread-safe (an internal mutex guards the seen-set).
class ReplayFilterObserver final : public ProtocolObserver {
 public:
  explicit ReplayFilterObserver(ProtocolObserver& target) : target_(&target) {}

  void on_send(ProcessId at, const WriteUpdate& m) override;
  void on_receipt(ProcessId at, const WriteUpdate& m) override;
  void on_apply(ProcessId at, WriteId w, bool delayed) override;
  void on_return(ProcessId at, VarId x, Value v, WriteId from) override;
  void on_skip(ProcessId at, WriteId w, WriteId by) override;

  /// Pre-populate the seen-set without forwarding anything: the durable-boot
  /// path replays spilled events into the recorder directly, then preseeds
  /// the filter so a live redelivery of the same (kind, at, write) is
  /// suppressed.  Return events are never filtered, so they are not seeded
  /// either.
  void preseed(const RunEvent& e);

  /// While muted, EVERY event (returns included) is dropped and counted as
  /// suppressed — used while re-executing already-spilled script operations
  /// to rebuild in-memory protocol state without re-recording them.
  void set_muted(bool muted);

  [[nodiscard]] std::uint64_t suppressed() const;

 private:
  using Key = std::tuple<EvKind, ProcessId, ProcessId, SeqNo>;
  [[nodiscard]] bool first(EvKind kind, ProcessId at, WriteId w);
  [[nodiscard]] bool muted();

  ProtocolObserver* target_;
  mutable std::mutex mu_;
  std::set<Key> seen_;
  std::uint64_t suppressed_ = 0;
  bool muted_ = false;
};

}  // namespace dsm
