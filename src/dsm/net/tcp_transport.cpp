#include "dsm/net/tcp_transport.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <mutex>

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"
#include "dsm/common/rng.h"

namespace dsm {

namespace {

/// Cap on read-dispatch iterations per readiness callback, so one chatty
/// connection cannot starve the rest of the loop.
constexpr int kMaxReadsPerWake = 16;
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

TcpTransport::TcpTransport(NetLoop& loop, TcpTransportConfig config)
    : loop_(&loop),
      config_(std::move(config)),
      peer_fd_(config_.peers.size(), -1),
      backoff_(config_.peers.size(), config_.reconnect_min),
      redial_draws_(config_.peers.size(), 0),
      redial_pending_(config_.peers.size(), false),
      ever_established_(config_.peers.size(), false),
      local_mask_(config_.peers.size(), false) {
  DSM_REQUIRE(config_.self < config_.peers.size());
  DSM_REQUIRE(config_.reconnect_min > 0 &&
              config_.reconnect_min <= config_.reconnect_max);
  for (const ProcessId p : config_.local_peers) {
    DSM_REQUIRE(p < config_.peers.size() && p != config_.self);
    if (!local_mask_[p]) ++n_local_;
    local_mask_[p] = true;
  }
}

TcpTransport::~TcpTransport() {
  *alive_ = false;
  for (auto& [fd, conn] : conns_) {
    loop_->unwatch(fd);
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    loop_->unwatch(listen_fd_);
    ::close(listen_fd_);
  }
}

void TcpTransport::attach(ProcessId p, MessageSink& sink) {
  DSM_REQUIRE(p == config_.self && "TcpTransport hosts exactly one process");
  DSM_REQUIRE(sink_ == nullptr && "attach() called twice");
  sink_ = &sink;
}

void TcpTransport::start() {
  DSM_REQUIRE(!started_);
  started_ = true;
  // A write racing a peer's disconnect must surface as EPIPE (handled as a
  // connection loss), not kill the process.  signal() mutates process-global
  // state, and a sharded host starts several transports concurrently.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { (void)std::signal(SIGPIPE, SIG_IGN); });
  if (config_.listen_fd >= 0) {
    listen_fd_ = config_.listen_fd;
    net::set_nonblocking(listen_fd_);
  } else {
    const auto addr = net::parse_addr(config_.peers[config_.self]);
    DSM_REQUIRE(addr.has_value() && "own listen address must parse");
    listen_fd_ = net::listen_on(*addr);
    DSM_REQUIRE(listen_fd_ >= 0 && "cannot bind listen address");
  }
  loop_->watch(listen_fd_, [this](NetLoop::Ready) { on_listener_ready(); });
  // The batching edge: everything send() enqueued during this tick goes out
  // as one writev per peer.  The hook outlives the transport (NetLoop hooks
  // cannot be deregistered), so it is guarded by the alive_ flag.
  loop_->add_tick_hook([this, alive = alive_] {
    if (*alive) flush_all();
  });
  for (ProcessId q = 0; q < config_.self; ++q) {
    if (!is_local(q)) dial(q);
  }
}

// -- dialing ------------------------------------------------------------------

void TcpTransport::dial(ProcessId peer) {
  DSM_REQUIRE(dials_to(peer));
  if (peer_fd_[peer] >= 0) return;  // a live attempt already exists
  ++stats_.dials;
  const auto addr = net::parse_addr(config_.peers[peer]);
  const int fd = addr ? net::dial(*addr) : -1;
  if (fd < 0) {  // also an AF_UNIX peer not listening yet, or a full backlog
    ++stats_.dial_failures;
    schedule_redial(peer);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->phase = Phase::kConnecting;
  conn->dialer = true;
  conn->peer = peer;
  peer_fd_[peer] = fd;
  loop_->watch(fd, [this, fd](NetLoop::Ready r) { on_conn_ready(fd, r); });
  loop_->set_want_write(fd, true);  // connect completion reports writable
  conns_.emplace(fd, std::move(conn));
}

void TcpTransport::schedule_redial(ProcessId peer) {
  if (redial_pending_[peer]) return;
  redial_pending_[peer] = true;
  const SimTime base = backoff_[peer];
  backoff_[peer] = std::min(backoff_[peer] * 2, config_.reconnect_max);
  // Jittered delay in [base, 1.5·base): pure exponential backoff makes every
  // dialer that lost its link at the same instant (a partition healing, a
  // peer restarting) re-dial at the same instant too, stampeding the
  // acceptor.  The draw is deterministic per (seed, self→peer, redial count)
  // — the same splitmix64 chain as the fault plans — so runs still replay.
  std::uint64_t s = config_.jitter_seed;
  s = splitmix64(s) ^
      ((std::uint64_t{config_.self} << 32) | std::uint64_t{peer});
  s = splitmix64(s) ^ redial_draws_[peer]++;
  Rng rng(splitmix64(s));
  const SimTime delay = base + rng.below(base / 2 + 1);
  loop_->queue().schedule_after(delay, [this, peer, alive = alive_] {
    if (!*alive) return;
    redial_pending_[peer] = false;
    if (peer_fd_[peer] < 0) dial(peer);
  });
}

// -- accepting ----------------------------------------------------------------

void TcpTransport::on_listener_ready() {
  for (;;) {
    const int fd = net::accept_conn(listen_fd_);
    if (fd < 0) return;  // EAGAIN/EWOULDBLOCK or transient error
    ++stats_.accepted;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->phase = Phase::kAwaitHello;
    conn->dialer = false;
    loop_->watch(fd, [this, fd](NetLoop::Ready r) { on_conn_ready(fd, r); });
    conns_.emplace(fd, std::move(conn));
  }
}

// -- readiness dispatch -------------------------------------------------------

void TcpTransport::on_conn_ready(int fd, NetLoop::Ready ready) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;

  if (conn.phase == Phase::kConnecting) {
    if (ready.hangup || (ready.writable && net::take_socket_error(fd) != 0)) {
      ++stats_.dial_failures;
      conn_lost(conn, /*count_as_drop=*/false);
      return;
    }
    if (!ready.writable) return;
    // Connected: introduce ourselves, then wait for the peer's Hello.
    conn.phase = Phase::kAwaitHello;
    loop_->set_want_write(fd, false);
    enqueue(conn, OutChunk{{}, 0, encode_hello(HelloRole::kPeer)});
    flush(conn);
    return;
  }

  if (ready.readable) {
    on_conn_readable(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed during read
  }
  if (ready.writable) on_conn_writable(conn);
  if (ready.hangup && conns_.find(fd) != conns_.end() && !ready.readable) {
    conn_lost(conn, /*count_as_drop=*/false);
  }
}

void TcpTransport::on_conn_readable(Conn& conn) {
  std::uint8_t buf[kReadChunk];
  for (int round = 0; round < kMaxReadsPerWake; ++round) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n == 0) {
      conn_lost(conn, /*count_as_drop=*/false);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      conn_lost(conn, /*count_as_drop=*/false);
      return;
    }
    stats_.bytes_in += static_cast<std::uint64_t>(n);
    (void)conn.rx.feed({buf, static_cast<std::size_t>(n)});
    const int fd = conn.fd;
    while (auto frame = conn.rx.next()) {
      if (!handle_frame(conn, *frame)) return;
      // A control Hello hands the fd away; the Conn is gone.
      if (conns_.find(fd) == conns_.end()) return;
    }
    if (conn.rx.poisoned()) {
      ++stats_.frame_errors;
      conn_lost(conn, /*count_as_drop=*/false);
      return;
    }
    if (static_cast<std::size_t>(n) < sizeof buf) return;  // drained
  }
}

bool TcpTransport::handle_frame(Conn& conn, const FrameView& frame) {
  ++stats_.frames_in;

  if (conn.phase == Phase::kAwaitHello) {
    if (frame.kind != static_cast<std::uint8_t>(FrameKind::kHello) ||
        !handle_hello(conn, frame)) {
      ++stats_.frame_errors;
      conn_lost(conn, /*count_as_drop=*/false);
      return false;
    }
    return true;
  }

  // Established: only Data frames are legal peer traffic.
  if (frame.kind != static_cast<std::uint8_t>(FrameKind::kData)) {
    ++stats_.frame_errors;
    conn_lost(conn, /*count_as_drop=*/false);
    return false;
  }
  if (sink_ != nullptr) sink_->deliver(conn.peer, frame.body);
  return true;
}

bool TcpTransport::handle_hello(Conn& conn, const FrameView& frame) {
  ByteReader r(frame.body);
  const auto magic = r.u32();
  const auto version = r.u8();
  const auto role = r.u8();
  const auto sender = r.u32();
  const auto procs = r.u64();
  if (!magic || !version || !role || !sender || !procs || !r.exhausted() ||
      *magic != kHelloMagic || *version != kNetVersion) {
    return false;
  }

  if (*role == static_cast<std::uint8_t>(HelloRole::kControl)) {
    // Hand the socket to the control plane with whatever arrived pipelined
    // behind the Hello; this transport forgets the fd entirely.
    const int fd = conn.fd;
    std::vector<std::uint8_t> residual = conn.rx.take_residual();
    loop_->unwatch(fd);
    auto node = conns_.extract(fd);
    if (control_handler_) {
      control_handler_(fd, std::move(residual));
    } else {
      ::close(fd);
    }
    return true;
  }

  if (*role != static_cast<std::uint8_t>(HelloRole::kPeer)) return false;
  if (*procs != n_procs() || *sender >= n_procs() || *sender == config_.self) {
    return false;
  }
  const auto peer = static_cast<ProcessId>(*sender);
  if (conn.dialer) {
    // We dialed; the reply must come from the process we dialed.
    if (peer != conn.peer) return false;
  } else {
    // Accepted: only higher-id processes dial us (topology rule), and the
    // newest connection for a peer wins (a stale half-open predecessor is
    // replaced, which is exactly what a re-dial after kill_connection does).
    if (!(peer > config_.self)) return false;
    if (peer_fd_[peer] >= 0 && peer_fd_[peer] != conn.fd) {
      const auto old = conns_.find(peer_fd_[peer]);
      if (old != conns_.end()) {
        loop_->unwatch(old->first);
        ::close(old->first);
        conns_.erase(old);
      }
      peer_fd_[peer] = -1;
    }
    conn.peer = peer;
    peer_fd_[peer] = conn.fd;
    enqueue(conn, OutChunk{{}, 0, encode_hello(HelloRole::kPeer)});
  }
  established(conn);
  return true;
}

void TcpTransport::established(Conn& conn) {
  conn.phase = Phase::kEstablished;
  if (ever_established_[conn.peer]) {
    ++stats_.reconnects;
  }
  ever_established_[conn.peer] = true;
  backoff_[conn.peer] = config_.reconnect_min;
  flush(conn);
}

void TcpTransport::conn_lost(Conn& conn, bool count_as_drop) {
  const int fd = conn.fd;
  const bool dialer = conn.dialer;
  const ProcessId peer = conn.peer;
  const bool had_peer = dialer || conn.phase == Phase::kEstablished;

  if (count_as_drop) ++stats_.conns_killed;

  loop_->unwatch(fd);
  ::close(fd);
  conns_.erase(fd);
  if (had_peer && peer < peer_fd_.size() && peer_fd_[peer] == fd) {
    peer_fd_[peer] = -1;
  }
  if (had_peer && dials_to(peer)) schedule_redial(peer);
}

// -- sending ------------------------------------------------------------------

void TcpTransport::send(ProcessId from, ProcessId to, Payload payload) {
  DSM_REQUIRE(from == config_.self);
  DSM_REQUIRE(to < n_procs() && to != config_.self);
  DSM_REQUIRE(payload != nullptr);
  Conn* conn = conn_of(to);
  if (conn == nullptr || conn->phase != Phase::kEstablished) {
    ++stats_.sends_dropped;
    return;
  }
  const auto head = frame_header(FrameKind::kData, payload->size());
  // Enqueue only: the NetLoop tick hook flushes every frame queued this tick
  // in one writev per peer (end-to-end batching, docs/PERF.md).  The payload
  // is shared, never copied.
  enqueue(*conn, OutChunk{head, static_cast<std::uint8_t>(head.size()),
                          std::move(payload)});
}

void TcpTransport::flush_all() {
  // flush() can drop its own conn (conn_lost erases it from conns_, and
  // nothing else), so step past it before flushing.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *it++->second;
    if (!conn.out.empty()) flush(conn);
  }
}

void TcpTransport::enqueue(Conn& conn, OutChunk chunk) {
  ++stats_.frames_out;
  stats_.bytes_out += chunk.size();
  conn.out.push_back(std::move(chunk));
}

void TcpTransport::flush(Conn& conn) {
  // One writev per iteration covers up to kWritevMaxFrames queued frames as
  // an iovec chain — header and shared payload of each frame referenced in
  // place, never copied.  conn.out_offset tracks bytes of out.front()
  // already written (partial writes land mid-chain on a full socket buffer).
  while (!conn.out.empty()) {
    iovec iov[2 * kWritevMaxFrames];
    int iovcnt = 0;
    std::size_t frames = 0;
    std::size_t chain_bytes = 0;
    std::size_t off = conn.out_offset;  // applies to the first chunk only
    for (const OutChunk& chunk : conn.out) {
      if (frames == kWritevMaxFrames) break;
      if (off < chunk.head_len) {
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(chunk.head.data() + off);
        iov[iovcnt].iov_len = chunk.head_len - off;
        chain_bytes += iov[iovcnt].iov_len;
        ++iovcnt;
        off = 0;
      } else {
        off -= chunk.head_len;
      }
      if (off < chunk.payload->size()) {
        iov[iovcnt].iov_base =
            const_cast<std::uint8_t*>(chunk.payload->data() + off);
        iov[iovcnt].iov_len = chunk.payload->size() - off;
        chain_bytes += iov[iovcnt].iov_len;
        ++iovcnt;
      }
      off = 0;
      ++frames;
    }
    if (iovcnt == 0) {  // zero-byte chunks only: consume them
      for (std::size_t i = 0; i < frames && !conn.out.empty(); ++i) {
        conn.out.pop_front();
      }
      conn.out_offset = 0;
      continue;
    }
    const ssize_t n = ::writev(conn.fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        loop_->set_want_write(conn.fd, true);
        return;
      }
      conn_lost(conn, /*count_as_drop=*/false);
      return;
    }
    ++stats_.writev_calls;
    conn.out_offset += static_cast<std::size_t>(n);
    while (!conn.out.empty() && conn.out_offset >= conn.out.front().size()) {
      conn.out_offset -= conn.out.front().size();
      conn.out.pop_front();
    }
    if (static_cast<std::size_t>(n) < chain_bytes) {
      // Socket buffer full mid-chain: poll for writability, don't spin.
      loop_->set_want_write(conn.fd, true);
      return;
    }
  }
  loop_->set_want_write(conn.fd, false);
}

void TcpTransport::on_conn_writable(Conn& conn) { flush(conn); }

// -- state queries / hooks ----------------------------------------------------

std::size_t TcpTransport::connected_peers() const {
  std::size_t n = 0;
  for (ProcessId p = 0; p < peer_fd_.size(); ++p) {
    const Conn* conn = conn_of(p);
    if (conn != nullptr && conn->phase == Phase::kEstablished) ++n;
  }
  return n;
}

bool TcpTransport::flushed() const {
  for (const auto& [fd, conn] : conns_) {
    if (!conn->out.empty()) return false;
  }
  return true;
}

void TcpTransport::kill_connection(ProcessId peer) {
  DSM_REQUIRE(peer < n_procs() && peer != config_.self);
  Conn* conn = conn_of(peer);
  if (conn == nullptr) return;
  conn_lost(*conn, /*count_as_drop=*/true);
}

TcpTransport::Conn* TcpTransport::conn_of(ProcessId peer) {
  if (peer >= peer_fd_.size() || peer_fd_[peer] < 0) return nullptr;
  const auto it = conns_.find(peer_fd_[peer]);
  return it == conns_.end() ? nullptr : it->second.get();
}

const TcpTransport::Conn* TcpTransport::conn_of(ProcessId peer) const {
  if (peer >= peer_fd_.size() || peer_fd_[peer] < 0) return nullptr;
  const auto it = conns_.find(peer_fd_[peer]);
  return it == conns_.end() ? nullptr : it->second.get();
}

std::vector<std::uint8_t> encode_hello_frame(HelloRole role, ProcessId sender,
                                             std::uint64_t n_procs) {
  ByteWriter w;
  w.u32(kHelloMagic);
  w.u8(kNetVersion);
  w.u8(static_cast<std::uint8_t>(role));
  w.u32(sender);
  w.u64(n_procs);
  return encode_frame(FrameKind::kHello, std::move(w).take());
}

Payload TcpTransport::encode_hello(HelloRole role) const {
  return make_payload(encode_hello_frame(role, config_.self, n_procs()));
}

}  // namespace dsm
