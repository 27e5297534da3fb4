// optcm — the run log's WAL commit and its replay decoder.
//
// A RunRecorder keeps its log as encoded records (the codec documented in
// run_recorder.h), so a durable NodeStack needs no second encoder:
// WalLogCommitter appends the bytes the recorder logged since the previous
// commit as ONE WAL record.  The stack commits at each spill — after each
// protocol-visible mutation — so a record is the atomic unit "one mutation
// plus the events it produced", and a torn WAL tail can only ever lose whole
// mutations.  A boot is logged as a kIncarnation record, after replay, so a
// respawned node's one log — the WAL's records, then its own — shows where
// each incarnation began.
//
// replay_wal_record() is the inverse: feed one recovered record back into a
// RunRecorder (restore_* entry points, which log the same bytes again) and
// optionally preseed a ReplayFilterObserver so live redeliveries of
// already-spilled events are suppressed after restart.  One happens when a
// kill lands between the two writes of a spill: the WAL holds a receipt
// that the snapshot's ARQ state lacks, so the sender's ARQ resends it.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsm/protocols/replay_filter.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/storage/wal.h"

namespace dsm {

class WalLogCommitter {
 public:
  /// The log's first `committed` bytes (the replayed prefix) are already in
  /// the WAL.  \pre `wal` and `log` outlive the committer.
  WalLogCommitter(Wal& wal, const RunRecorder& log, std::uint64_t committed)
      : wal_(&wal), log_(&log), committed_(committed) {}

  /// Append everything logged since the last commit as one WAL record (no-op
  /// when nothing is new).  kWrite/kNoSpace → the bytes stay uncommitted and
  /// the next commit retries them; kFsync → they are in the log, durability
  /// degraded (WAL dirty).
  [[nodiscard]] WalIoError commit();

 private:
  Wal* wal_;
  const RunRecorder* log_;
  std::uint64_t committed_;
  std::vector<std::uint8_t> record_;  ///< reused across commits
};

/// Decodes one WAL record — or any run of log records, such as a kFetchLog
/// chunk or a run archive's body — and re-ingests it: history ops via
/// restore_op, events via restore_event (plus a filter preseed), boots via
/// record_incarnation, and into `*last_boot` when given.  This is the log's
/// one decoder.  Returns false on a malformed record or one that does not
/// fit the recorder's run — the caller treats the log as corrupt from
/// there.  A record does not fit when it names a process ≥ procs (an op's
/// process or writer, an event's process, write or superseding write) or a
/// variable ≥ vars, carries a clock or visible set whose length is neither
/// 0 nor procs, or is a write whose WriteId is not the one appending it
/// regenerates.
[[nodiscard]] bool replay_wal_record(std::span<const std::uint8_t> record,
                                     RunRecorder& recorder,
                                     ReplayFilterObserver* filter,
                                     std::uint64_t* last_boot);

}  // namespace dsm
