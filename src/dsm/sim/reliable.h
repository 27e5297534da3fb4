// optcm — reliable exactly-once channels over a faulty datagram network.
//
// Paper Section 3.1 assumes "reliable channels.  Each message sent by a
// process is eventually received exactly once and no spurious message can
// ever be delivered."  This substrate *builds* that assumption from a lossy,
// duplicating network (see fault.h) with a classic per-channel ARQ:
//
//   * every payload is kept by the sender until acknowledged, under a
//     per-(sender→receiver) sequence number; a retransmission timer resends
//     it until the ACK lands (at-least-once);
//   * the receiver delivers a sequence number at most once — a compact
//     watermark-plus-set dedup — and acknowledges every DATA frame it sees,
//     duplicates included (exactly-once upward);
//   * acknowledgements may be HELD, after TCP's delayed ACK (RFC 1122
//     §4.2.3.2): with `ack_delay` > 0 each DATA frame's seq joins a
//     per-peer pending list, which goes out as one ACK frame just ahead of
//     the next DATA frame to that peer — the transport batches both into one
//     write — or, failing that, when a per-peer timer fires `ack_delay`
//     after the first pending seq.  `ack_delay` = 0 (the default, and the
//     simulator's setting) ACKs each DATA frame at once;
//   * channels stay NON-FIFO on purpose: a fresh sequence number is
//     delivered upward immediately even if earlier ones are still missing.
//     The DSM protocols order applies themselves; imposing FIFO here would
//     silently hand ANBKH ordering it did not pay for.
//
// THE TICK EDGE.  A host whose event loop has a tick edge (the NetLoop hosts:
// ProcessNode, ShardHost, CausalMemory) calls flush() there, ahead of the
// transport's own flush.  From its first flush() on, the node is
// tick-driven: send() appends the payload to its peer's OPEN batch, which
// holds one fresh seq, and flush() transmits each open batch as one DATA
// frame with one tx-window entry and one RTO timer.  A burst of k sends to a
// peer within one tick costs one frame, not k.  A batch that would pass
// kMaxBatchBytes is transmitted at once and the payload opens the next seq.
// A node that never sees a tick edge (the simulator's) transmits every send
// at once, as a batch of one.  Either way the payload joins the tx window in
// send(), so a checkpoint taken before the tick edge covers it.  A
// transmitted entry is immutable: a retransmission resends its bytes.
//
// The retransmission timeout is ADAPTIVE per peer, after RFC 6298: smoothed
// RTT and RTT variance from ACK round-trips (SRTT ← 7/8·SRTT + 1/8·R,
// RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|, RTO = SRTT + 4·RTTVAR clamped to
// [min_rto, max_rto]), Karn's rule (never sample a retransmitted packet),
// per-packet exponential backoff capped at max_rto, and a small
// DETERMINISTIC jitter (splitmix64 over (jitter_seed, self, peer, seq,
// attempt)) to break synchronized retransmission storms while preserving
// "same seed ⇒ byte-identical trace".  `config.rto` is the initial RTO
// before the first sample.
//
// Exhausting `max_retries` is a hard error: with restart-eventually crash
// plans and healing partitions every payload is eventually deliverable, so
// abandonment means the simulation (or its fault plan) is broken.  Install
// `on_abandon` to turn it into a callback instead (tests of the alarm path).
//
// Wire format: one byte frame type, then
//   DATA  [0x00][varint seq][payload]                  — a batch of one;
//   BATCH [0x02][varint seq]([varint len][payload])+   — two or more, in
//                                                        send order;
//   ACK   [0x01]([varint seq])+                        — a one-seq ACK is
//                                                        [0x01][seq].
// A batch of one is the DATA frame, so a node that never batches (the
// simulator's) keeps the wire bytes its pinned outputs were made with.  The
// receiver dedupes a BATCH frame's one seq and delivers its payloads upward
// in order.  A dropped or corrupted frame takes its whole batch with it, and
// the ARQ resends it whole; a duplicated one is suppressed whole.  So
// ReliableStats counts payloads in data_sent and delivered, and frames (or
// tx entries) everywhere else.  ACKs are never retransmitted — a lost ACK
// just provokes one more retransmission, which the dedup absorbs.  Held ACKs
// are volatile for the same reason: a crash loses them like ACK frames lost
// in flight, and no checkpoint carries them.
//
// The tx window of a channel is a deque of transmitted entries in ascending
// seq order, plus the open batch (the highest seq, not yet on the wire):
// send appends (seqs only grow), an ACK marks its entry retired and pops the
// retired prefix, and a lookup is a binary search.  Entries carry their own
// seq, so an epoch gap (skip_tx_sequences) costs nothing per skipped seq.
// Snapshots walk the window in ascending seq order, one (seq, payload) pair
// per payload, so a window of single-payload entries snapshots the bytes a
// seq-keyed map of payloads would, which the pinned crash digests read.  The
// receiver's in-order seqs only move its watermark; the set holds just the
// seqs that arrived early.
//
// For crash/recovery the node checkpoints: snapshot() serializes sequence
// numbers, unacked payloads, RTT estimator state, and the receive dedup
// state; restore() reloads them on a FRESH node (same wiring) and
// immediately retransmits everything unacked.  Losing rx dedup state would
// break exactly-once (a retransmission of an already-delivered seq would be
// delivered again); losing tx next_seq would reuse sequence numbers that
// peers silently suppress.  See docs/FAULTS.md.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "dsm/codec/codec.h"
#include "dsm/common/stat_fields.h"
#include "dsm/common/transport.h"
#include "dsm/sim/event_queue.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

/// What the ARQ did.  Payload counts and frame counts differ once the node
/// batches: data_sent and delivered count payloads, every other field
/// counts frames (a retransmitted batch is one retransmission).
struct ReliableStats {
  std::uint64_t data_sent = 0;        ///< payloads sent (first sends)
  std::uint64_t retransmissions = 0;  ///< DATA frames resent
  std::uint64_t acks_sent = 0;        ///< ACK frames
  std::uint64_t delivered = 0;        ///< payloads handed to the upper layer
  std::uint64_t duplicates_suppressed = 0;  ///< DATA frames seen before
  std::uint64_t abandoned = 0;        ///< tx entries given up after
                                      ///< max_retries (bug alarm)
  std::uint64_t rtt_samples = 0;      ///< ACKed entries that sampled the RTT
  std::uint64_t malformed_dropped = 0;  ///< frames this class never produced

  static const StatField<ReliableStats> kFields[];
};

inline constexpr StatField<ReliableStats> ReliableStats::kFields[] = {
    {metric::kArqData, &ReliableStats::data_sent},
    {metric::kArqRetransmissions, &ReliableStats::retransmissions},
    {metric::kArqAcks, &ReliableStats::acks_sent},
    {metric::kArqDelivered, &ReliableStats::delivered},
    {metric::kArqDuplicates, &ReliableStats::duplicates_suppressed},
    {metric::kArqAbandoned, &ReliableStats::abandoned},
    {metric::kArqRttSamples, &ReliableStats::rtt_samples},
    {metric::kArqMalformedDropped, &ReliableStats::malformed_dropped},
};
static_assert(covers_every_field<ReliableStats>());

/// ARQ tuning knobs.
struct ReliableConfig {
  SimTime rto = sim_ms(2);        ///< initial RTO (before the first RTT sample)
  SimTime min_rto = sim_us(500);  ///< lower clamp on the adaptive RTO
  SimTime max_rto = sim_ms(200);  ///< upper clamp, also the backoff cap
  std::size_t max_retries = 10'000;
  std::uint64_t jitter_seed = 0x1E77;  ///< deterministic retransmit jitter
  /// How long an ACK may wait for a DATA frame to the same peer to ride
  /// ahead of.  0 ACKs every DATA frame at once.  Must stay below min_rto,
  /// so a held ACK alone never provokes a retransmission.
  SimTime ack_delay = 0;
  /// Called instead of aborting when a payload exhausts max_retries.  The
  /// default (unset) hard-fails via DSM_REQUIRE: silent message loss would
  /// invalidate every liveness claim downstream.
  std::function<void(ProcessId to, std::uint64_t seq)> on_abandon;
};

/// The reliable-channel endpoint of one process: ARQ sender and receiver in
/// one object, sitting between a lossy DatagramTransport and an upper
/// MessageSink.  The transport is the simulated Network in the simulator and
/// the TcpTransport in the multi-process runtime (where a send racing a
/// disconnect is dropped and this layer's retransmission repairs it over the
/// re-dialed connection).
///
/// Thread-safety: none — single-threaded by design.  Every method runs on
/// one dispatch context: the simulator's event loop, or the net event loop
/// (whose EventQueue is driven by wall-clock time).
class ReliableNode final : public MessageSink {
 public:
  using Config = ReliableConfig;

  /// Sends through `transport` as process `self`; `upper` receives
  /// deduplicated payloads exactly once each.  The caller routes `self`'s
  /// inbound frames into deliver() — by attaching this node to the
  /// transport, or through a stack that outlives it (NodeStack).
  ///
  /// \pre `queue`, `transport` and `upper` outlive this node (timers capture
  ///      an aliveness token, so destruction before pending timers fire is
  ///      safe, but the references themselves must stay valid while alive).
  ReliableNode(EventQueue& queue, DatagramTransport& transport, ProcessId self,
               MessageSink& upper, Config config = {});
  ~ReliableNode();

  ReliableNode(const ReliableNode&) = delete;
  ReliableNode& operator=(const ReliableNode&) = delete;

  /// Largest batch body (payloads and their length prefixes) a tick-driven
  /// node lets a send grow: far below the transport's frame cap, and far
  /// above a tick's burst of protocol messages.
  static constexpr std::size_t kMaxBatchBytes = 64 * 1024;

  // -- sending (the upper layer's Endpoint calls these) ---------------------

  /// Queues `payload` for exactly-once delivery to `to`.
  ///
  /// \pre `to` is a valid process id on the network and `to != self`.
  /// \post the payload is in `to`'s tx window, under a per-channel sequence
  ///       number, until the matching ACK arrives.  Unless the node is
  ///       tick-driven (see flush()), its DATA frame is in flight and a
  ///       retransmission timer is armed.
  void send(ProcessId to, Payload payload);

  /// send() to every other process (the paper's broadcast primitive,
  /// footnote 5: fan-out unicast over reliable channels).  Every per-peer
  /// batch shares the one payload buffer until the tick edge encodes it.
  void broadcast(const Payload& payload);

  /// The tick edge: transmit each peer's open batch as one DATA frame and
  /// arm its retransmission timer.  The first call makes the node
  /// tick-driven: from then on send() leaves its payload in the peer's open
  /// batch until the next flush().  A loop calls it twice per pass, mostly
  /// with nothing sent, so with no batch open it costs one compare.
  void flush();

  // -- MessageSink (frames arriving from the network) ------------------------

  /// Handles one raw frame from the network: DATA and BATCH frames are
  /// ACKed (at once, or held per config.ack_delay) and, if their sequence
  /// number is new, their payloads are delivered upward in order; a
  /// duplicate is suppressed (and re-ACKed); each seq an ACK frame lists
  /// retires its tx entry and feeds the RTT estimator (Karn's rule: only
  /// never-retransmitted packets sample).  A frame this class never
  /// produced (bad type byte, truncated varint, an ACK listing no seq, a
  /// batch with no payload or one running past the frame's end) is dropped
  /// whole and counted in stats().malformed_dropped — over real sockets a
  /// peer can say anything, so garbage must not be able to abort the node.
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override;

  // -- checkpoint / restore --------------------------------------------------

  /// Serializes tx sequence numbers + unacked payloads, the RTT estimator,
  /// and the rx dedup state (see the header comment for why each part is
  /// load-bearing).  Pure observer: the node is unchanged.
  void snapshot(ByteWriter& w) const;

  /// Restores a snapshot onto this (freshly constructed) node and
  /// retransmits every unacked payload.  Returns false on malformed input.
  ///
  /// \pre *this was default-wired for the same (queue, network, self,
  ///      upper) topology and has not sent or received anything yet.
  /// \post on success, every unacked payload is back in flight with a
  ///       fresh timer; on failure the node must be discarded.
  [[nodiscard]] bool restore(ByteReader& r);

  /// Advance every per-peer tx sequence counter by `skip` — an epoch gap.
  /// The durable-boot path restores an ARQ snapshot that may predate the
  /// crash by up to one mutation, then re-executes the lost mutation; without
  /// the gap the re-broadcast would reuse a sequence number a peer already
  /// consumed for the ORIGINAL transmission, and the peer's dedup would
  /// silently suppress a different payload under the same seq.
  void skip_tx_sequences(std::uint64_t skip) noexcept;

  /// Counters since construction/restore (restore does not reset them).
  [[nodiscard]] const ReliableStats& stats() const noexcept { return stats_; }

  /// Current adaptive RTO toward `to` (initial config.rto before a sample).
  /// \pre `to` is a valid process id.
  [[nodiscard]] SimTime current_rto(ProcessId to) const;

  /// True when every sent payload has been acknowledged (an open batch
  /// counts as unacknowledged).
  [[nodiscard]] bool quiescent() const noexcept;

  /// quiescent(), ignoring channels to peers flagged in `excluded`
  /// (indexed by peer id; short vectors exclude nothing beyond their size).
  /// The process tier flags peers behind an injected BLOCKED link: their
  /// backlog is undeliverable until the nemesis heals the partition, and a
  /// quiescence barrier must not deadlock against the very fault that
  /// prevents the drain — "as quiescent as the injected faults allow".
  [[nodiscard]] bool quiescent_except(
      const std::vector<bool>& excluded) const noexcept;

 private:
  enum class FrameType : std::uint8_t { kData = 0, kAck = 1, kBatch = 2 };

  struct TxEntry {
    std::uint64_t seq = 0;
    /// The frame body after [type][seq]: a batch of one's payload (shared
    /// with broadcast siblings), or a batch's length-prefixed payloads.
    /// Null once retired (acked or abandoned).
    Payload body;
    SimTime first_sent = 0;     ///< for the RTT sample
    std::uint32_t payloads = 1; ///< > 1: a BATCH frame
    bool retransmitted = false; ///< Karn: retransmitted packets never sample
  };
  struct PeerTx {
    std::uint64_t next_seq = 1;
    /// Transmitted, not yet acked, in ascending seq order.  Retired entries
    /// behind a live one wait for it; the front entry is always live.
    std::deque<TxEntry> window;
    /// The open batch: payloads sent under `open_seq` (above every seq in
    /// `window`) and not yet transmitted.  Its storage is reused from tick
    /// to tick.
    std::uint64_t open_seq = 0;
    std::vector<Payload> open;
    std::size_t open_bytes = 0;  ///< batch body size: payloads + prefixes
    // RFC 6298 estimator (microseconds, as doubles for the EWMAs).
    bool have_rtt = false;
    double srtt = 0.0;
    double rttvar = 0.0;
    SimTime rto = 0;  ///< current RTO; initialized from config
    [[nodiscard]] bool drained() const {
      return window.empty() && open.empty();
    }
  };
  struct PeerRx {
    std::uint64_t watermark = 0;            ///< all seq <= watermark seen
    std::set<std::uint64_t> seen_above;     ///< seen seqs > watermark
    std::vector<std::uint64_t> pending_acks;  ///< received, not yet ACKed
    EventQueue::Handle ack_timer;           ///< armed while acks are held
    [[nodiscard]] bool saw(std::uint64_t seq) const {
      return seq <= watermark || seen_above.count(seq) != 0;
    }
    void mark(std::uint64_t seq) {
      if (seq != watermark + 1) {
        seen_above.insert(seq);
        return;
      }
      ++watermark;
      while (!seen_above.empty() && *seen_above.begin() == watermark + 1) {
        seen_above.erase(seen_above.begin());
        ++watermark;
      }
    }
  };

  /// `peer`'s live entry for `seq`, or null (acked, abandoned, never sent).
  [[nodiscard]] static TxEntry* unacked(PeerTx& peer, std::uint64_t seq);
  /// Retire `entry` and pop the retired prefix of `peer`'s window.
  static void retire(PeerTx& peer, TxEntry& entry);

  /// Move `peer`'s open batch into the window as an entry sent at `now`
  /// (encoding a batch's body once), and empty the batch.
  static TxEntry& seal(PeerTx& peer, SimTime now, bool retransmitted);
  /// seal() `to`'s open batch, transmit it and arm its RTO timer.
  void send_open(ProcessId to);
  void transmit(ProcessId to, const TxEntry& entry);
  void arm_timer(ProcessId to, std::uint64_t seq, std::size_t attempt,
                 SimTime interval);
  void on_data(ProcessId from, std::uint64_t seq, FrameType type,
               ByteReader body);
  void on_ack(ProcessId from, std::uint64_t seq);
  /// Send `to`'s pending ACKs as one frame and disarm its ACK timer.
  void flush_acks(ProcessId to);
  void sample_rtt(PeerTx& peer, SimTime rtt);
  [[nodiscard]] SimTime clamp_rto(double rto_us) const;
  [[nodiscard]] SimTime jitter(ProcessId to, std::uint64_t seq,
                               std::size_t attempt, SimTime interval) const;

  EventQueue* queue_;
  DatagramTransport* network_;
  ProcessId self_;
  MessageSink* upper_;
  Config config_;
  std::vector<PeerTx> tx_;
  std::vector<PeerRx> rx_;
  ReliableStats stats_;
  bool tick_driven_ = false;  ///< set by the first flush()
  std::size_t open_batches_ = 0;  ///< peers whose open batch is non-empty
  /// Outstanding timer lambdas check this token: when the node is destroyed
  /// (crash path) the events already in the queue become no-ops instead of
  /// touching freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dsm
