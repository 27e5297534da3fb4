// optcm — append-only write-ahead log for per-node durable state.
//
// The WAL is the durability seam's source of truth: every committed mutation
// batch (one protocol-visible state change plus the observer events it
// produced) is appended as ONE record, so a torn tail drops whole batches and
// never a partial mutation.  The format is deliberately dumber than the
// varint message codec — fixed-width little-endian framing so open() can scan
// and truncate without speculative varint decoding:
//
//     record := [u32 length (LE)] [u32 crc32 (LE)] [payload: length bytes]
//
// open() replays the longest valid prefix (every record whose length is
// plausible and whose CRC matches), then truncates the file at the first bad
// offset so the next append extends a clean log.  Corruption past the valid
// prefix is counted (best effort) and reported via WalOpenStats — the
// corruption fuzz in tests/test_storage.cpp asserts on those counts.
//
// fsync policy trades write latency for the crash window:
//   * none          — never fsync (page cache only; OS crash may lose tail)
//   * interval      — fsync every `fsync_interval` appends
//   * every-record  — fsync after each append (strongest, slowest)
// A kill -9 of the *process* never loses un-fsynced data (the page cache
// survives the process); fsync matters for power loss / kernel panic.
//
// Group commit (options.group_commit) moves the policy's sync POINT without
// changing what is eventually durable: append() never fsyncs on its own;
// instead the owner calls group_sync() at its batching edge (the ProcessNode
// tick) and ONE fsync covers every record appended since the previous
// barrier — the classic group-commit amortization.  Explicit sync() barriers
// (checkpoint spill) are unaffected, so the "WAL covers at least the
// snapshot" ordering invariant holds in group mode too.  The trade is the
// power-loss window: records wait at most one tick instead of at most
// `fsync_interval` appends.  Kill-9 of the process loses nothing either way.
//
// I/O failure handling (the chaos-engine contract): append() and sync()
// return typed WalIoError instead of aborting.  A failed record write is
// retried a bounded number of times; if it still fails the file is truncated
// back to the last committed record boundary so the log tail is NEVER left
// with a half-written record — the append is lost, reported, and the log
// stays valid.  A failed fsync follows "fsyncgate" semantics: the record IS
// in the log (page cache), but its durability is unknown, so the WAL is
// marked sticky-dirty and the caller must degrade (e.g. force a snapshot on
// the recovery path).  All syscalls route through an injectable IoHooks so
// tests can script EIO/ENOSPC/short-write/fsync failures at exact call
// counts (see io_hooks.h).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/common/stat_fields.h"
#include "dsm/storage/io_hooks.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

enum class FsyncPolicy : std::uint8_t { kNone, kInterval, kEvery };

/// Parses "none" / "interval" / "every"; nullopt on anything else.
[[nodiscard]] std::optional<FsyncPolicy> parse_fsync_policy(
    std::string_view s) noexcept;
[[nodiscard]] const char* to_string(FsyncPolicy p) noexcept;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum used
/// by WAL records and snapshot files.  Exposed for tests.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Typed outcome of an append/sync.  kWrite/kNoSpace mean the record was NOT
/// appended (log truncated back to the previous record boundary); kFsync
/// means the record IS appended but durability is unknown (WAL now dirty).
enum class WalIoError : std::uint8_t { kNone, kWrite, kNoSpace, kFsync };

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  std::uint64_t fsync_interval = 64;  ///< appends per fsync under kInterval
  /// Defer policy fsyncs to group_sync() barriers (see header comment).
  /// Policy kNone still never syncs; explicit sync() is unaffected.
  bool group_commit = false;
  IoHooks* io = nullptr;              ///< failpoint seam; nullptr = real syscalls
};

/// Cumulative append-side counters (telemetry sources).
struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;  ///< payload + framing bytes written
  std::uint64_t fsyncs = 0;
  std::uint64_t write_errors = 0;  ///< appends lost after retry exhaustion
  std::uint64_t write_retries = 0; ///< failed write attempts that were retried
  std::uint64_t fsync_errors = 0;  ///< fsync attempts that failed
  std::uint64_t group_commits = 0; ///< group_sync() barriers that fsynced

  static const StatField<WalStats> kFields[];
};

inline constexpr StatField<WalStats> WalStats::kFields[] = {
    {metric::kWalAppends, &WalStats::appends},
    {metric::kWalBytes, &WalStats::bytes},
    {metric::kWalFsyncs, &WalStats::fsyncs},
    {metric::kWalWriteErrors, &WalStats::write_errors},
    {metric::kWalWriteRetries, &WalStats::write_retries},
    {metric::kWalFsyncErrors, &WalStats::fsync_errors},
    {metric::kWalGroupCommits, &WalStats::group_commits},
};
static_assert(covers_every_field<WalStats>());

/// What open() found: the recovered prefix and the corrupt/torn remainder.
struct WalOpenStats {
  std::uint64_t records_recovered = 0;
  std::uint64_t bytes_recovered = 0;   ///< file offset of the first bad byte
  std::uint64_t dropped_records = 0;   ///< best-effort count past the prefix
  std::uint64_t dropped_bytes = 0;     ///< bytes truncated from the tail
};

/// Records larger than this are treated as corruption during recovery scans
/// (matches the 1<<24 defensive cap used by the protocol snapshot decoders).
inline constexpr std::uint32_t kWalMaxRecordBytes = 1u << 24;

/// Failed write attempts per append before giving up and truncating.
inline constexpr int kWalWriteRetries = 3;

class Wal {
 public:
  using ReplayFn = std::function<void(std::span<const std::uint8_t>)>;

  /// Opens (creating if absent) the log at `path`, replays every valid
  /// record's payload through `replay` in append order, truncates any
  /// corrupt/torn tail, and returns the writable log positioned at the end.
  /// nullopt only on I/O failure (unreadable path); corruption is never an
  /// error.  `open_stats` (optional) receives the recovery accounting.
  [[nodiscard]] static std::optional<Wal> open(const std::string& path,
                                               WalOptions options,
                                               const ReplayFn& replay,
                                               WalOpenStats* open_stats = nullptr);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Appends one record and applies the fsync policy.  Aborts (DSM_REQUIRE)
  /// only on contract violations (payload over kWalMaxRecordBytes, closed
  /// log).  I/O failure returns a typed error: kWrite/kNoSpace → the record
  /// was not appended and the log tail is intact at the previous boundary;
  /// kFsync → the record is appended but the WAL is now dirty.
  [[nodiscard]] WalIoError append(std::span<const std::uint8_t> payload);

  /// Forces an fsync regardless of policy (checkpoint barrier).  kFsync on
  /// persistent failure; the WAL stays dirty until an fsync succeeds.
  [[nodiscard]] WalIoError sync();

  /// Group-commit barrier: under group_commit, one fsync covering every
  /// record appended since the last sync (no-op when nothing is pending and
  /// the log is clean, and under policy kNone — that policy never syncs).
  /// Same sticky-dirty semantics as sync() on failure.
  [[nodiscard]] WalIoError group_sync();

  /// Records appended since the last successful fsync (what the next
  /// group_sync() barrier would cover).
  [[nodiscard]] std::uint64_t unsynced_appends() const noexcept {
    return appends_since_sync_;
  }

  [[nodiscard]] const WalStats& stats() const noexcept { return stats_; }

  /// True after any fsync failure until a later fsync succeeds: records past
  /// the last good fsync may not be durable against power loss.
  [[nodiscard]] bool dirty() const noexcept { return dirty_; }

 private:
  Wal(int fd, std::uint64_t end_offset, WalOptions options) noexcept
      : fd_(fd), end_offset_(end_offset), options_(options) {}

  [[nodiscard]] IoHooks& io() const noexcept {
    return options_.io != nullptr ? *options_.io : IoHooks::none();
  }
  [[nodiscard]] WalIoError fsync_once() noexcept;

  int fd_ = -1;
  std::uint64_t end_offset_ = 0;  ///< committed tail (last full record end)
  WalOptions options_;
  WalStats stats_;
  std::uint64_t appends_since_sync_ = 0;
  bool dirty_ = false;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace dsm
