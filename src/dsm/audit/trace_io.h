// optcm — run archives: a recorded run as one file.
//
// An archive is a short header followed by the recorder's log bytes: the
// same records (run_recorder.h) a durable node commits to its WAL and a
// driver fetches with kFetchLog.  So a run is archived without a second
// encoder, and read back by the log's one decoder, replay_wal_record
// (dsm/storage/wal_sink.h), which also rejects records that do not fit the
// run.  ConsistencyChecker and OptimalityAuditor run unchanged on an
// imported run (`optcm run --export` writes one, `optcm replay` re-audits
// it).
//
// Header:  8 bytes "optcmlog"  u8(version = 1)  u32(procs)  u32(vars)
// then the log's records to the end of the file.  procs and vars must lie
// in [1, kMaxProcs] and [1, kMaxVars]; they are checked before anything is
// allocated.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsm/protocols/run_recorder.h"

namespace dsm {

/// The recorder's run as an archive.  \pre the run has quiesced.
[[nodiscard]] std::vector<std::uint8_t> export_run_archive(
    const RunRecorder& recorder);

/// Decodes an archive written by export_run_archive.  std::nullopt on a bad
/// header, a malformed or truncated record, or a record that does not fit
/// the header's run.
[[nodiscard]] std::optional<ImportedRun> import_run_archive(
    std::span<const std::uint8_t> bytes);

}  // namespace dsm
