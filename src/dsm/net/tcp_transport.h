// optcm — TcpTransport: the DatagramTransport over real sockets.
//
// One instance is one process's seat in a full mesh of n TCP peers.  The
// topology rule is deterministic so no pair ever races to own a connection:
// process p DIALS every q < p and ACCEPTS every q > p.  The dialer owns
// liveness: on dial failure or connection loss it re-dials with exponential
// backoff (reconnect_min doubling to reconnect_max); the acceptor side just
// closes and waits for the next dial.  A connection is established once the
// Hello handshake (magic, version, role, sender id, n_procs) validates in
// both directions — everything else on the wire is length-prefixed frames
// (dsm/net/frame.h).
//
// Datagram semantics on purpose: send() to a peer whose connection is down
// or not yet established DROPS the payload (counted), exactly like a
// fault-plan drop in the simulator.  The ReliableNode layered on top
// retransmits on its adaptive RTO and repairs the loss over the re-dialed
// connection; TCP's own reliability only has to hold per connection
// incarnation.  Frames from a peer are delivered verbatim to the attach()ed
// MessageSink from the NetLoop's dispatch context.
//
// Encode-once fan-out: an out-queue entry is a 5-byte frame header, held
// inline, plus the refcounted Payload (types.h) — broadcasting to n−1 peers
// queues the SAME byte buffer n−1 times and writev() sends header+payload
// without ever copying the payload or allocating a header.
//
// End-to-end batching (docs/PERF.md): send() only enqueues.  The transport
// registers a NetLoop tick hook, and at each tick edge every frame queued
// for a peer since the last flush goes out as ONE writev over an iovec chain
// (up to kWritevMaxFrames frames per call, under Linux's IOV_MAX).  The
// batching win is visible as tcp_frames_out_total over
// tcp_writev_calls_total: the mean frames per writev call.
//
// The listener is also the cluster's control-plane door: a Hello with the
// control role hands the (already accepted) fd to the registered control
// handler together with any pipelined bytes, and the transport forgets it.
//
// Thread-safety: none — confined to the owning NetLoop's thread.

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsm/common/stat_fields.h"
#include "dsm/common/transport.h"
#include "dsm/net/frame.h"
#include "dsm/net/net_loop.h"
#include "dsm/net/socket.h"
#include "dsm/telemetry/metrics.h"

namespace dsm {

/// Handshake constants (see docs/NETWORK.md for the wire layout).
inline constexpr std::uint32_t kHelloMagic = 0x4D43504F;  // "OPCM"
inline constexpr std::uint8_t kNetVersion = 1;

enum class HelloRole : std::uint8_t {
  kPeer = 0,     ///< a protocol process joining the mesh
  kControl = 1,  ///< a cluster driver opening a control channel
};

/// A complete Hello frame (header + body), as sent by both mesh peers and
/// control clients.  Exposed so the ClusterDriver speaks the same bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_hello_frame(
    HelloRole role, ProcessId sender, std::uint64_t n_procs);

struct TcpStats {
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_out = 0;  ///< framed bytes (headers included)
  std::uint64_t frames_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t dials = 0;
  std::uint64_t dial_failures = 0;
  std::uint64_t accepted = 0;
  std::uint64_t reconnects = 0;      ///< re-establishments after a loss
  std::uint64_t sends_dropped = 0;   ///< sends while the peer link was down
  std::uint64_t frame_errors = 0;    ///< malformed framing/handshake, conn closed
  std::uint64_t conns_killed = 0;    ///< kill_connection() test-hook closures
  std::uint64_t writev_calls = 0;    ///< batched flushes (vs frames_out)

  static const StatField<TcpStats> kFields[];
};

inline constexpr StatField<TcpStats> TcpStats::kFields[] = {
    {metric::kTcpFramesOut, &TcpStats::frames_out},
    {metric::kTcpBytesOut, &TcpStats::bytes_out},
    {metric::kTcpFramesIn, &TcpStats::frames_in},
    {metric::kTcpBytesIn, &TcpStats::bytes_in},
    {metric::kTcpDials, &TcpStats::dials},
    {metric::kTcpDialFailures, &TcpStats::dial_failures},
    {metric::kTcpAccepted, &TcpStats::accepted},
    {metric::kTcpReconnects, &TcpStats::reconnects},
    {metric::kTcpSendsDropped, &TcpStats::sends_dropped},
    {metric::kTcpFrameErrors, &TcpStats::frame_errors},
    {metric::kTcpConnsKilled, &TcpStats::conns_killed},
    {metric::kTcpWritevCalls, &TcpStats::writev_calls},
};
static_assert(covers_every_field<TcpStats>());

/// Frames coalesced into one writev call (each frame contributes a header
/// iovec and usually a payload iovec, so this stays well under IOV_MAX).
inline constexpr std::size_t kWritevMaxFrames = 64;

struct TcpTransportConfig {
  ProcessId self = 0;
  /// One "host:port" per process (peers[self] is this process's own listen
  /// address, used only when listen_fd is not adopted).
  std::vector<std::string> peers;
  /// Adopt an already-bound listening socket (fork harness: the parent binds
  /// port 0 and the child inherits the fd, race-free).  -1 = bind
  /// peers[self] here.
  int listen_fd = -1;
  SimTime reconnect_min = sim_ms(10);
  SimTime reconnect_max = sim_ms(500);
  /// Seed for the deterministic re-dial jitter draw ([base, 1.5·base) is
  /// added to the exponential backoff so healed-partition reconnect storms
  /// de-synchronize).  Any value works; distinct per-process values are not
  /// required (the draw already folds in self→peer).
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
  /// Peers reached out-of-band (the ShardMux ring mesh): never dialed, never
  /// expected to dial us, excluded from fully_connected(), and a send() to
  /// one counts as a drop (the mux routes them away before they get here).
  std::vector<ProcessId> local_peers;
};

class TcpTransport final : public DatagramTransport {
 public:
  /// Handler adopting a control connection: the fd (non-blocking, watched by
  /// nobody) plus any bytes that arrived pipelined behind the Hello.
  using ControlHandler =
      std::function<void(int fd, std::vector<std::uint8_t> residual)>;

  TcpTransport(NetLoop& loop, TcpTransportConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind/adopt the listener and start dialing every q < self.  Call after
  /// attach(); requires the loop to be (about to be) running for progress.
  void start();

  // -- DatagramTransport -----------------------------------------------------
  void attach(ProcessId p, MessageSink& sink) override;  ///< p must == self
  void send(ProcessId from, ProcessId to, Payload payload) override;
  [[nodiscard]] std::size_t n_procs() const override {
    return config_.peers.size();
  }

  // -- runtime state ---------------------------------------------------------
  [[nodiscard]] std::size_t connected_peers() const;
  /// Every SOCKET peer established; config_.local_peers don't count (their
  /// link is the ring mesh, which needs no handshake).
  [[nodiscard]] bool fully_connected() const {
    return connected_peers() + 1 + n_local_ == n_procs();
  }
  /// True when every established connection's out-queue is drained.
  [[nodiscard]] bool flushed() const;
  [[nodiscard]] const TcpStats& stats() const noexcept { return stats_; }

  /// Test hook (and control-plane KillConn): close the live connection to
  /// `peer` as if the network dropped it.  The dialer side re-dials after
  /// reconnect_min; in-flight and queued frames are lost (the ARQ repairs).
  void kill_connection(ProcessId peer);

  void set_control_handler(ControlHandler handler) {
    control_handler_ = std::move(handler);
  }

 private:
  enum class Phase : std::uint8_t { kConnecting, kAwaitHello, kEstablished };

  /// One queued frame: a data frame's header inline, then its shared body.
  /// A Hello travels as a whole pre-framed payload with no inline header.
  struct OutChunk {
    std::array<std::uint8_t, 5> head{};  ///< frame_header(), if head_len
    std::uint8_t head_len = 0;           ///< 5 for data frames, else 0
    Payload payload;                     ///< shared fan-out body
    [[nodiscard]] std::size_t size() const noexcept {
      return head_len + payload->size();
    }
  };

  struct Conn {
    int fd = -1;
    Phase phase = Phase::kConnecting;
    bool dialer = false;
    ProcessId peer = 0;  ///< meaningful on dialer conns and post-hello
    FrameAssembler rx;
    std::deque<OutChunk> out;
    std::size_t out_offset = 0;  ///< bytes of out.front() already written
  };

  [[nodiscard]] bool dials_to(ProcessId peer) const {
    return peer < config_.self && !is_local(peer);
  }
  [[nodiscard]] bool is_local(ProcessId peer) const {
    return local_mask_[peer];
  }

  void flush_all();  ///< tick-hook body: flush every conn with queued frames
  void dial(ProcessId peer);
  void schedule_redial(ProcessId peer);
  void on_listener_ready();
  void on_conn_ready(int fd, NetLoop::Ready ready);
  void on_conn_readable(Conn& conn);
  void on_conn_writable(Conn& conn);
  /// Returns false when the frame poisoned the connection (caller closes).
  bool handle_frame(Conn& conn, const FrameView& frame);
  bool handle_hello(Conn& conn, const FrameView& frame);
  void established(Conn& conn);
  void conn_lost(Conn& conn, bool count_as_drop);
  void enqueue(Conn& conn, OutChunk chunk);
  void flush(Conn& conn);
  [[nodiscard]] Payload encode_hello(HelloRole role) const;
  [[nodiscard]] Conn* conn_of(ProcessId peer);
  [[nodiscard]] const Conn* conn_of(ProcessId peer) const;

  NetLoop* loop_;
  TcpTransportConfig config_;
  MessageSink* sink_ = nullptr;
  ControlHandler control_handler_;
  int listen_fd_ = -1;
  /// Live connections by fd: peer slots (dialed or post-hello accepted) and
  /// not-yet-identified accepted connections alike.
  std::map<int, std::unique_ptr<Conn>> conns_;
  /// fd of the current connection per peer, -1 when down.
  std::vector<int> peer_fd_;
  std::vector<SimTime> backoff_;        ///< next re-dial delay per peer
  std::vector<std::uint64_t> redial_draws_;  ///< jitter draws per peer
  std::vector<bool> redial_pending_;    ///< a re-dial timer is armed
  std::vector<bool> ever_established_;  ///< for the reconnects counter
  std::vector<bool> local_mask_;  ///< config_.local_peers as a bitmap
  std::size_t n_local_ = 0;
  TcpStats stats_;
  bool started_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace dsm
