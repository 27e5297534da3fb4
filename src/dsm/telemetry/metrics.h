// optcm — the run-metrics registry: named counters, gauges and summaries
// owned per node and aggregated per run.
//
// Design goals (docs/OBSERVABILITY.md describes the full catalogue):
//
//   * Zero overhead when disabled.  Nothing in the hot protocol paths touches
//     the registry unless a RunTelemetry was attached to the run; the hooks
//     compile down to a null-pointer check.
//   * Safe when nodes record from their own threads.  Counter and Gauge are
//     lock-free atomics; Summary handles are created under the registry
//     mutex and each is then confined to its owning node's thread (the same
//     confinement CausalMemory's replica loops keep for the protocol itself).
//   * Deterministic output.  csv() renders families and scopes in sorted
//     order, so two runs with the same seed produce byte-identical files —
//     the repo-wide reproducibility invariant extends to telemetry.
//
// A metric is identified by (scope, name): scope is a node id, or kRunScope
// for run-global facts (network totals).  Aggregation across scopes is
// derived on demand (counter_total / gauge_max / merged_summary), never
// double-counted.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/common/types.h"
#include "dsm/metrics/summary.h"

namespace dsm {

/// Monotone event count.  Thread-safe (relaxed atomics: counts are summed
/// after the run has quiesced, so no ordering is required).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level plus its high-water mark (e.g. pending-buffer depth).
/// Thread-safe; the high-water CAS loop is wait-free in practice because a
/// gauge is only ever set by its owning node.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    last_.store(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t last() const noexcept {
    return last_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> last_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kSummary };

/// Canonical metric names.  Every producer in the tree uses these constants
/// (never ad-hoc strings) so the catalogue in docs/OBSERVABILITY.md is the
/// single source of truth.
namespace metric {
// Protocol layer (per node).
inline constexpr char kWritesIssued[] = "writes_issued_total";
inline constexpr char kReadsIssued[] = "reads_issued_total";
inline constexpr char kUpdatesSent[] = "updates_sent_total";
inline constexpr char kUpdatesReceived[] = "updates_received_total";
inline constexpr char kApplies[] = "applies_total";
inline constexpr char kAppliesDelayed[] = "applies_delayed_total";
inline constexpr char kApplyDelay[] = "apply_delay_us";
inline constexpr char kEnablingDeficit[] = "apply_enabling_deficit";
inline constexpr char kPendingDepth[] = "pending_depth";
inline constexpr char kSkips[] = "skips_total";
inline constexpr char kMetaBytes[] = "meta_bytes_total";
// Subscription routing (ShardedOptP; per node = sender side).
inline constexpr char kSubDepEntries[] = "sub_dep_entries_total";
// Typed objects (dsm/objects; per node = issuer side).
inline constexpr char kObjectOps[] = "object_ops_total";
// Spec checker search effort (run scope; see SpecChecker).
inline constexpr char kCheckerLinearizations[] =
    "checker_linearizations_explored";
// Fault-tolerance layer (per node).
inline constexpr char kCrashes[] = "crashes_total";
inline constexpr char kRestarts[] = "restarts_total";
inline constexpr char kCheckpoints[] = "checkpoints_total";
inline constexpr char kCheckpointBytes[] = "checkpoint_bytes";
inline constexpr char kArqData[] = "arq_data_total";
inline constexpr char kArqRetransmissions[] = "arq_retransmissions_total";
inline constexpr char kArqAcks[] = "arq_acks_total";
inline constexpr char kArqDuplicates[] = "arq_duplicates_suppressed_total";
inline constexpr char kArqAbandoned[] = "arq_abandoned_total";
// ARQ counters only a node reports (kFetchStats; ReliableStats::kFields).
inline constexpr char kArqDelivered[] = "arq_delivered_total";
inline constexpr char kArqRttSamples[] = "arq_rtt_samples_total";
inline constexpr char kArqMalformedDropped[] = "arq_malformed_dropped_total";
inline constexpr char kArqRto[] = "arq_rto_us";
inline constexpr char kRecoveryRequests[] = "recovery_requests_total";
inline constexpr char kRecoveryWrites[] = "recovery_writes_recovered_total";
inline constexpr char kRecoveryBytes[] = "recovery_catch_up_bytes_total";
// Transport layer (run scope).
inline constexpr char kNetMessages[] = "net_messages_total";
inline constexpr char kNetBytes[] = "net_bytes_total";
inline constexpr char kNetDropped[] = "net_dropped_total";
inline constexpr char kNetDuplicated[] = "net_duplicated_total";
inline constexpr char kNetPartitionDropped[] = "net_partition_dropped_total";
inline constexpr char kNetCrashDropped[] = "net_crash_dropped_total";
// The node tier (dsm/net) counts in each layer's stats struct and reports
// it through kFetchStats; these names label those structs' fields
// (dsm/common/stat_fields.h), not registry entries.
// TCP transport layer (TcpStats).
inline constexpr char kTcpFramesIn[] = "tcp_frames_in_total";
inline constexpr char kTcpFramesOut[] = "tcp_frames_out_total";
inline constexpr char kTcpBytesIn[] = "tcp_bytes_in_total";
inline constexpr char kTcpBytesOut[] = "tcp_bytes_out_total";
inline constexpr char kTcpDials[] = "tcp_dials_total";
inline constexpr char kTcpDialFailures[] = "tcp_dial_failures_total";
inline constexpr char kTcpReconnects[] = "tcp_reconnects_total";
inline constexpr char kTcpAccepted[] = "tcp_accepted_total";
inline constexpr char kTcpSendsDropped[] = "tcp_sends_dropped_total";
inline constexpr char kTcpFrameErrors[] = "tcp_frame_errors_total";
inline constexpr char kTcpConnsKilled[] = "tcp_conns_killed_total";
// A tick-edge flush coalesces every frame queued for a peer into one
// writev; frames per call (frames out / writev calls) is the batching win.
inline constexpr char kTcpWritevCalls[] = "tcp_writev_calls_total";
// Shard runtime SPSC rings (ShardStats; pushes, overflows and the frame
// split are counted at the sender, the rest at the consumer).
inline constexpr char kRingPushes[] = "ring_pushes_total";
inline constexpr char kRingPops[] = "ring_pops_total";
inline constexpr char kRingOverflows[] = "ring_overflows_total";
inline constexpr char kRingWakeups[] = "ring_wakeups_total";
inline constexpr char kRingDrains[] = "ring_drains_total";  // non-empty ones
// Shard-aware dispatch: with every peer on the host, cross stays 0.
inline constexpr char kShardLocalFrames[] = "shard_local_frames_total";
inline constexpr char kShardCrossFrames[] = "shard_cross_frames_total";
// Durable storage layer (WalStats).
inline constexpr char kWalAppends[] = "wal_appends_total";
inline constexpr char kWalBytes[] = "wal_bytes_total";
inline constexpr char kWalFsyncs[] = "wal_fsyncs_total";
inline constexpr char kWalGroupCommits[] = "wal_group_commits_total";
// Storage degradation under injected/real I/O failures.
inline constexpr char kWalWriteErrors[] = "wal_write_errors_total";
inline constexpr char kWalWriteRetries[] = "wal_write_retries_total";
inline constexpr char kWalFsyncErrors[] = "wal_fsync_errors_total";
// What the node itself counts (NodeStats, dsm/net/control.h).
inline constexpr char kDroppedWhileDown[] = "dropped_while_down_total";
inline constexpr char kWalReplayed[] = "wal_replayed_records_total";
inline constexpr char kWalDirty[] = "wal_dirty";  // 1 while degraded
inline constexpr char kSnapshotWrites[] = "snapshot_writes_total";
inline constexpr char kSnapshotFailures[] = "snapshot_failures_total";
// Fault injection layer (FaultStatsNet; sender side).
inline constexpr char kFaultForwarded[] = "fault_forwarded_total";
inline constexpr char kFaultDropped[] = "fault_dropped_total";
inline constexpr char kFaultDuplicated[] = "fault_duplicated_total";
inline constexpr char kFaultCorrupted[] = "fault_corrupted_total";
inline constexpr char kFaultReordered[] = "fault_reordered_total";
inline constexpr char kFaultDelayed[] = "fault_delayed_total";
inline constexpr char kFaultThrottled[] = "fault_throttled_total";
inline constexpr char kFaultBlocked[] = "fault_blocked_total";
}  // namespace metric

/// Named metrics for one run, owned per scope and aggregated on demand.
///
/// Thread-safety: counter()/gauge()/summary() may be called concurrently
/// (creation is serialized by an internal mutex; returned references stay
/// valid for the registry's lifetime).  A returned Summary& is NOT internally
/// synchronized — callers must confine each (scope, name) summary to one
/// thread of control, which the telemetry layer does by construction.
/// Aggregation and csv() are meant for after the run has quiesced.
class MetricsRegistry {
 public:
  /// Scope id for run-global metrics (rendered as "run" in CSV output).
  static constexpr ProcessId kRunScope = std::numeric_limits<ProcessId>::max();

  explicit MetricsRegistry(std::size_t n_procs) : n_procs_(n_procs) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Lazily create-or-fetch.  Precondition: `name` is used with one kind
  /// only for the registry's lifetime (violations abort via contracts).
  Counter& counter(ProcessId scope, std::string_view name);
  Gauge& gauge(ProcessId scope, std::string_view name);
  Summary& summary(ProcessId scope, std::string_view name);

  // ---- cross-scope aggregation (call after the run has quiesced) ----

  /// Sum of the named counter over every scope (0 when absent).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Max of the named gauge's high-water mark over every scope.
  [[nodiscard]] std::uint64_t gauge_max(std::string_view name) const;
  /// All samples of the named summary merged into one (empty when absent).
  [[nodiscard]] Summary merged_summary(std::string_view name) const;

  /// Registered family names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t n_procs() const noexcept { return n_procs_; }

  /// Deterministic CSV: header + one row per (family, scope) in sorted order
  /// plus an "all" aggregate row per family.  Schema:
  ///   metric,scope,kind,count,value,mean,p50,p95,p99,max
  /// counter rows fill `value`; gauge rows fill `value` (last) and `max`;
  /// summary rows fill count/value(=sum)/mean/quantiles/max.
  [[nodiscard]] std::string csv() const;

 private:
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::map<ProcessId, std::unique_ptr<Counter>> counters;
    std::map<ProcessId, std::unique_ptr<Gauge>> gauges;
    std::map<ProcessId, std::unique_ptr<Summary>> summaries;
  };

  Family& family_locked(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::size_t n_procs_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace dsm
