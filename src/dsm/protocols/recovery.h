// optcm — crash recovery: write logging and anti-entropy catch-up.
//
// Crash tolerance is an EXTENSION beyond the paper's model (Section 3.1
// assumes crash-free processes); see docs/FAULTS.md for the full fault model
// and DESIGN.md §5 for the scoping note.  The pieces:
//
//   * RecoveryNode sits between the transport and a class-𝒫 protocol
//     (anything derived from BufferingProtocol).  As the protocol's Endpoint
//     it intercepts outgoing WriteUpdates; as the transport's upward sink it
//     intercepts incoming ones.  Either way it appends the update to a
//     per-sender log — the material served to restarting peers.
//   * On restart, a node broadcasts CatchUpRequest(seen) where seen[u] is
//     the contiguous prefix of p_u's writes present in its restored log.
//     Peers reply with every logged write above those watermarks; the writes
//     are fed to the protocol exactly like network deliveries, so the
//     enabling condition, buffering, and writing semantics all apply
//     unchanged.  A peer that sees a request proving the REQUESTER is ahead
//     issues its own request back (symmetric re-request — this is what
//     repairs overlapping crashes).  Requests are triggered, never periodic,
//     and keyed on received (not applied) watermarks, so the exchange
//     terminates: after one round trip both sides have received everything
//     the other had.
//   * The checkpoint hook is invoked after every event that mutates durable
//     state (deliveries and catch-up handling here; script operations in the
//     harness) — a synchronous write-ahead log.  Restore therefore never
//     rolls back an apply, which keeps the audited trace honest: a delayed
//     apply in the deduplicated trace is delayed for a real protocol reason,
//     never because the process forgot state (Theorem 4 auditing survives
//     the fault sweep).
//
// Duplicate deliveries are expected here by design: a write can arrive both
// through a catch-up reply and through the sender's ARQ retransmission (the
// ACK never fired while the receiver was down).  BufferingProtocol's
// staleness check absorbs them; ReplayFilterObserver (below) additionally
// deduplicates the observer event stream so recorders and auditors see each
// receipt/apply once.
//
// The log is unpruned: every write ever seen is kept, which is what a small
// simulated run wants.  A production deployment would truncate below the
// stable vector (all-processes-applied watermark, cf. audit/stability.h).

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "dsm/common/sink.h"
#include "dsm/protocols/buffering.h"
#include "dsm/protocols/run_recorder.h"

namespace dsm {

struct RecoveryStats {
  std::uint64_t requests_sent = 0;      ///< catch-up requests issued
  std::uint64_t requests_received = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t writes_served = 0;      ///< log entries shipped in replies
  std::uint64_t writes_recovered = 0;   ///< reply entries fed to the protocol
  std::uint64_t catch_up_bytes = 0;     ///< encoded reply bytes sent

  RecoveryStats& operator+=(const RecoveryStats& o) noexcept {
    requests_sent += o.requests_sent;
    requests_received += o.requests_received;
    replies_sent += o.replies_sent;
    replies_received += o.replies_received;
    writes_served += o.writes_served;
    writes_recovered += o.writes_recovered;
    catch_up_bytes += o.catch_up_bytes;
    return *this;
  }
};

/// Write-logging and anti-entropy interposer for one process.
///
/// Thread-safety: none of its own — it inherits the protocol's confinement
/// contract: it is called from the owning stack's dispatch context (the
/// simulator's event loop, or a NetLoop thread).  It must be wired
/// (set_protocol) before the first deliver().
class RecoveryNode final : public Endpoint, public MessageSink {
 public:
  /// Invoked after any state mutation that must be durable (synchronous
  /// checkpoint).  Installed by the harness; may be empty in tests.
  using CheckpointHook = std::function<void()>;

  /// \pre `lower` (the real transport endpoint) outlives this node;
  ///      `self < n_procs`.
  /// \post the node is inert until set_protocol() wires a protocol.
  RecoveryNode(ProcessId self, std::size_t n_procs, Endpoint& lower);

  /// Wire the protocol (constructed after this node, since the protocol's
  /// Endpoint is this node).
  /// \pre called exactly once, before any deliver()/request_catch_up().
  void set_protocol(BufferingProtocol& proto) { proto_ = &proto; }
  void set_checkpoint_hook(CheckpointHook hook) { checkpoint_ = std::move(hook); }

  // -- Endpoint (protocol → world): log own writes, pass through ------------

  /// Logs the outgoing WriteUpdate into its sender lane, then forwards the
  /// shared payload to the lower endpoint.  \post the write is servable to
  /// restarting peers even if every network copy is lost.
  void broadcast(Payload payload) override;
  /// Targeted sends: a WriteUpdate is logged like a broadcast one.
  void send(ProcessId to, Payload payload) override;

  // -- MessageSink (world → protocol): log foreign writes, handle catch-up --

  /// Routes one decoded message: WriteUpdates are logged then fed to the
  /// protocol; CatchUpRequest/CatchUpReply run the anti-entropy exchange.
  /// Triggers the checkpoint hook after every state mutation.
  /// \pre set_protocol() has been called.
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  /// Broadcast a CatchUpRequest carrying the received watermarks — the
  /// restart path (also usable after a long partition heals).
  /// \pre set_protocol() has been called (replies will feed it).
  /// \post one request per peer is in flight; replies re-enter via deliver().
  void request_catch_up();

  /// seen[u] = length of the contiguous prefix of p_u's writes in the log.
  [[nodiscard]] VectorClock seen() const;

  // -- checkpoint of the log -------------------------------------------------

  /// Serializes the per-sender write-update log.  Pure observer.
  void snapshot(ByteWriter& w) const;
  /// Restores onto a freshly constructed node for the same (self, n_procs)
  /// topology.  Returns false on malformed input (node must be discarded).
  [[nodiscard]] bool restore(ByteReader& r);

  /// Counters since construction/restore (stats are not checkpointed —
  /// harnesses sum them across incarnations).
  [[nodiscard]] const RecoveryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t log_entries() const noexcept;

 private:
  void log_update(const WriteUpdate& m);
  void handle_request(const CatchUpRequest& req);
  void handle_reply(const CatchUpReply& rep);
  void forward_to_protocol(const WriteUpdate& m);
  void checkpoint();

  ProcessId self_;
  std::size_t n_procs_;
  Endpoint* lower_;
  BufferingProtocol* proto_ = nullptr;
  CheckpointHook checkpoint_;
  /// log_[u][k-1] = p_u's k-th write.  Slots with write_seq == 0 are holes
  /// (non-FIFO arrival); the first copy seen fills a slot.
  std::vector<std::vector<WriteUpdate>> log_;
  RecoveryStats stats_;
};

/// Observer adapter that forwards each receipt/apply/skip event for a given
/// (process, write) at most once, and send events at most once per write.
/// Under crash recovery the same update can legitimately reach a process
/// twice (catch-up reply + ARQ retransmission whose ACK died with the
/// crash); the protocol absorbs the duplicate, and this filter keeps the
/// recorded trace — the input to the checker, auditor, and determinism
/// comparisons — free of the echo.  Return events pass through untouched
/// (every read is a distinct operation).
///
/// Thread-safe (an internal mutex guards the seen-set), so the same filter
/// serves the single-threaded simulator and CausalMemory's replica threads.
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
  /// the filter so a live redelivery of the same (kind, at, write) — e.g. an
  /// ARQ retransmission whose ACK died with the process — is suppressed.
  /// Return events are never filtered, so they are not seeded either.
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
