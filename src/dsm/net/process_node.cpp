#include "dsm/net/process_node.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

namespace {
constexpr std::size_t kControlReadChunk = 64 * 1024;
}  // namespace

ReliableConfig net_reliable_defaults() {
  ReliableConfig config;
  // A same-host stream (AF_UNIX or loopback TCP) never loses bytes within
  // one connection incarnation, so retransmission only repairs sends dropped
  // across a disconnect.  Keep the RTO far above the local RTT (spurious
  // retransmits are pure overhead) but below the redial backoff ceiling so a
  // reconnect is repaired in one or two timer fires.
  config.rto = sim_ms(20);
  config.min_rto = sim_ms(5);
  config.max_rto = sim_ms(250);
  // Hold each ACK for up to 1 ms — far above a loopback hop, so it rides the
  // node's next DATA frame to that peer instead of costing the peer a
  // wake-up of its own; far below min_rto, so a held ACK never provokes a
  // retransmission.
  config.ack_delay = sim_ms(1);
  return config;
}

namespace {

/// The mesh-reachable peers of `config.shape.self`: every other shard the
/// RingMesh hosts.  These become the TcpTransport's out-of-band exclusions.
std::vector<ProcessId> co_located_shards(const ProcessNodeConfig& config) {
  std::vector<ProcessId> local;
  if (config.mesh == nullptr) return local;
  for (std::size_t i = 0; i < config.mesh->count(); ++i) {
    const auto p = static_cast<ProcessId>(config.mesh->base() + i);
    if (p != config.shape.self) local.push_back(p);
  }
  return local;
}

}  // namespace

ProcessNode::ProcessNode(ProcessNodeConfig config)
    : config_(std::move(config)),
      telemetry_(config_.shape.n_procs),
      recorder_(config_.shape.n_procs, config_.shape.n_vars,
                [this] { return loop_.queue().now(); }),
      transport_(loop_,
                 TcpTransportConfig{
                     .self = config_.shape.self,
                     .peers = config_.peers,
                     .listen_fd = config_.listen_fd,
                     .local_peers = co_located_shards(config_),
                 }),
      mux_(loop_, &transport_, config_.shape.self, config_.mesh),
      faulty_(loop_, mux_, config_.shape.self),
      waker_(config_.shape.n_procs),
      chain_(recorder_, config_.shape.n_procs, config_.shape.n_vars,
             {.telemetry = &telemetry_,
              .beside = {&waker_},
              .replay_filter = durable(),
              .objects = config_.shape.protocol_config.objects}) {
  telemetry_.set_clock([this] { return loop_.queue().now(); });
  // A node crashes only with its process, so only a durable one recovers.
  DSM_REQUIRE(config_.shape.recoverable == durable() &&
              "a state dir and the recoverable shape go together");
  faulty_.set_plan(config_.net_faults);
  std::optional<NodeStack::Storage> storage;
  if (durable()) {
    storage = config_.storage;
    storage->log = &recorder_;
    storage->filter = chain_.filter();
  }
  stack_ = std::make_unique<NodeStack>(loop_.queue(), faulty_, config_.shape,
                                       config_.arq, chain_.head(), &telemetry_,
                                       std::move(storage));
}

ProcessNode::~ProcessNode() {
  for (auto& [fd, conn] : controls_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
}

void ProcessNode::run() {
  transport_.set_control_handler(
      [this](int fd, std::vector<std::uint8_t> residual) {
        adopt_control(fd, std::move(residual));
      });
  // Tick hooks run in registration order.  The mux's arm + drain first: it
  // delivers ring frames, which may send.  Then the stack's edge (a durable
  // stack's spill retry and WAL group commit, then the ARQ's flush, which
  // hands each peer's batch to the mux or the TCP out-queues), and then the
  // TCP flush, so a batch leaves in the writev of the tick that formed it.
  mux_.start();
  loop_.add_tick_hook([this] { stack_->tick(); });
  transport_.start();
  stack_->start();  // a durable stack boots from its state dir
  loop_.run([this] { return shutdown_ && control_flushed(); });
}

void ProcessNode::adopt_control(int fd, std::vector<std::uint8_t> residual) {
  ControlConn conn;
  conn.fd = fd;
  if (!residual.empty()) conn.rx.feed(residual);
  auto [it, inserted] = controls_.emplace(fd, std::move(conn));
  (void)inserted;
  loop_.watch(fd, [this, fd](NetLoop::Ready ready) {
    on_control_ready(fd, ready);
  });
  process_control_frames(it->second);
}

void ProcessNode::on_control_ready(int fd, NetLoop::Ready ready) {
  const auto it = controls_.find(fd);
  if (it == controls_.end()) return;
  ControlConn& conn = it->second;
  if (ready.readable || ready.hangup) {
    for (;;) {
      std::uint8_t buf[kControlReadChunk];
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        conn.rx.feed(std::span<const std::uint8_t>(
            buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      drop_control(fd);  // EOF or hard error: the driver went away
      return;
    }
    process_control_frames(conn);
    if (controls_.find(fd) == controls_.end()) return;
  }
  if (ready.writable) flush_control(conn);
}

void ProcessNode::process_control_frames(ControlConn& conn) {
  const int fd = conn.fd;
  while (auto frame = conn.rx.next()) {
    if (frame->kind != static_cast<std::uint8_t>(FrameKind::kControl)) {
      drop_control(fd);  // peer/hello frames have no business here
      return;
    }
    const auto msg = decode_control(frame->body);
    if (!msg) {
      ControlMessage err;
      err.op = ControlOp::kError;
      err.text = "malformed control message";
      reply(conn, err);
      continue;
    }
    reply(conn, handle_control(*msg));
    if (controls_.find(fd) == controls_.end()) return;
  }
  if (conn.rx.poisoned()) drop_control(fd);
}

ControlMessage ProcessNode::handle_control(const ControlMessage& req) {
  ControlMessage rep;
  switch (req.op) {
    case ControlOp::kPing:
      rep.op = ControlOp::kPong;
      rep.flag = mux_.fully_connected();
      break;
    case ControlOp::kRun:
      if (runner_ != nullptr) {
        rep.op = ControlOp::kError;
        rep.text = "a run is already installed";
      } else {
        start_run(req);
        rep.op = ControlOp::kAck;
      }
      break;
    case ControlOp::kQueryDone:
      rep.op = ControlOp::kDoneReply;
      rep.flag = run_done();
      break;
    case ControlOp::kFetchLog:
      if (req.cursor > recorder_.log_bytes()) {
        rep.op = ControlOp::kError;
        rep.text = "cursor past the end of the log";
      } else {
        rep.op = ControlOp::kLogReply;
        rep.cursor = recorder_.copy_chunk(req.cursor, rep.bytes);
        rep.flag = rep.cursor < recorder_.log_bytes();
      }
      break;
    case ControlOp::kFetchStats:
      rep.op = ControlOp::kStatsReply;
      rep.stats.reliable = stack_->reliable_stats();
      rep.stats.tcp = transport_.stats();
      rep.stats.faults = faulty_.stats();
      rep.stats.shard = mux_.stats();
      rep.stats.wal = stack_->wal_stats();
      rep.stats.node = stack_->node_stats();
      break;
    case ControlOp::kKillConn:
      if (req.peer >= transport_.n_procs() || req.peer == config_.shape.self) {
        rep.op = ControlOp::kError;
        rep.text = "bad peer id";
      } else {
        transport_.kill_connection(req.peer);
        rep.op = ControlOp::kAck;
      }
      break;
    case ControlOp::kQueryQuiescent:
      rep.op = ControlOp::kDoneReply;
      rep.flag = stack_quiescent();
      break;
    case ControlOp::kSetFaults:
      faulty_.set_plan(req.faults);
      rep.op = ControlOp::kAck;
      break;
    case ControlOp::kShutdown:
      shutdown_ = true;
      rep.op = ControlOp::kAck;
      break;
    default:
      rep.op = ControlOp::kError;
      rep.text = "not a request op";
      break;
  }
  return rep;
}

void ProcessNode::start_run(const ControlMessage& req) {
  script_ = req.script;
  ScriptRunner::AfterOp after_op;
  if (config_.shape.recoverable) {
    after_op = [this] { stack_->checkpoint(); };
  }
  runner_ = std::make_unique<ScriptRunner>(
      loop_.queue(), recorder_,
      [this]() -> CausalProtocol* {
        return stack_->up() ? &stack_->protocol() : nullptr;
      },
      config_.shape.self, script_, std::move(after_op));
  waker_.attach(config_.shape.self, runner_.get());
  runner_->set_telemetry(&telemetry_);
  runner_->set_objects(chain_.objects());
  runner_->set_time_scale(req.time_scale);
  // Durable restart: the local ops the log holds, replayed from the WAL,
  // are the steps a previous incarnation completed (an op is in the WAL iff
  // its step completed — the batch commits at the post-op checkpoint), so
  // the script resumes after them.  None on a fresh state dir or without one.
  runner_->set_start_index(
      recorder_.history().local(config_.shape.self).size());
  runner_->begin();
}

bool ProcessNode::run_done() const {
  return runner_ != nullptr && runner_->done() && stack_quiescent();
}

bool ProcessNode::stack_quiescent() const {
  // Channels the node's own fault plan currently BLOCKS are excluded from
  // the ARQ drain check: their backlog is undeliverable until the nemesis
  // heals the partition, and the driver's quiescence barrier must not
  // deadlock against the injected fault itself (the heal event is often
  // queued BEHIND that barrier — e.g. the crash handler in run_nemesis).
  const std::size_t n = config_.shape.n_procs;
  std::vector<bool> blocked(n, false);
  for (std::size_t p = 0; p < n; ++p) {
    blocked[p] =
        faulty_.plan().link(config_.shape.self, static_cast<ProcessId>(p))
            .blocked;
  }
  return stack_->quiescent(blocked) && mux_.flushed();
}

void ProcessNode::reply(ControlConn& conn, const ControlMessage& msg) {
  const auto frame = encode_control_reply(msg);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush_control(conn);
}

void ProcessNode::flush_control(ControlConn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.set_want_write(conn.fd, true);
      return;
    }
    drop_control(conn.fd);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  loop_.set_want_write(conn.fd, false);
}

void ProcessNode::drop_control(int fd) {
  const auto it = controls_.find(fd);
  if (it == controls_.end()) return;
  loop_.unwatch(fd);
  ::close(fd);
  controls_.erase(it);
}

bool ProcessNode::control_flushed() const {
  for (const auto& [fd, conn] : controls_) {
    if (!conn.out.empty()) return false;
  }
  return true;
}

}  // namespace dsm
