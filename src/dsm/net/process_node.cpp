#include "dsm/net/process_node.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"
#include "dsm/storage/snapshot_file.h"

namespace dsm {

namespace {
constexpr std::size_t kControlReadChunk = 64 * 1024;

/// Epoch gap added to every ARQ tx sequence counter on a durable boot.  The
/// restored ARQ snapshot can predate the crash by one mutation; a reconciled
/// re-broadcast must never reuse a sequence number the previous incarnation
/// already spent at a peer (the peer's dedup would suppress a different
/// payload under the same seq — silent loss).
constexpr std::uint64_t kArqEpochSkip = 1'000'000;
}  // namespace

ReliableConfig net_reliable_defaults() {
  ReliableConfig config;
  // Loopback TCP never loses bytes within one connection incarnation, so
  // retransmission only repairs sends dropped across a disconnect.  Keep the
  // RTO far above loopback RTT (spurious retransmits are pure overhead) but
  // below the redial backoff ceiling so a reconnect is repaired in one or two
  // timer fires.
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
      mux_(loop_, transport_, config_.shape.self),
      faulty_(loop_, mux_, config_.shape.self),
      waker_(config_.shape.n_procs),
      waking_({&telemetry_.observe_through(recorder_), &waker_}) {
  telemetry_.set_clock([this] { return loop_.queue().now(); });
  if (config_.mesh != nullptr) mux_.set_mesh(config_.mesh);
  DSM_REQUIRE(!durable() || config_.shape.recoverable);
  faulty_.set_plan(config_.net_faults);
  for (const StorageFailpoint& fp : config_.storage_fail) io_hooks_.add(fp);
  ProtocolObserver* head = &waking_;
  if (config_.shape.recoverable) {
    filter_ = std::make_unique<ReplayFilterObserver>(waking_);
    head = filter_.get();
  }
  if (config_.shape.protocol_config.objects != nullptr) {
    // Typed objects: the store is outermost so it stashes each mutation's
    // payload at send/receipt before the apply reaches it.  Catch-up
    // redelivery arrives without that stash, so recoverable mode and typed
    // schemas are mutually exclusive (the CLI rejects the combination).
    DSM_REQUIRE(!config_.shape.recoverable &&
                "typed objects are not supported in recoverable mode");
    objects_ = std::make_unique<ObjectStore>(
        config_.shape.protocol_config.objects, config_.shape.n_procs,
        config_.shape.n_vars, *head);
    head = objects_.get();
  }
  stack_ = std::make_unique<NodeStack>(loop_.queue(), faulty_, config_.shape,
                                       config_.arq, *head, &telemetry_);
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
  transport_.start();
  mux_.start();
  if (durable()) {
    boot_durable();
    if (config_.wal_group_commit) {
      loop_.add_tick_hook([this] { wal_tick(); });
    }
  } else {
    stack_->start();
  }
  loop_.run([this] { return shutdown_ && control_flushed(); });
}

void ProcessNode::boot_durable() {
  state_ = StateDir::open(config_.state_dir);
  DSM_REQUIRE(state_.has_value() && "state dir must be creatable");

  // 1. The latest spilled snapshot, if any: [u64 op count] + the stack's
  //    encoded checkpoint (host blob + ARQ state).  A torn/corrupt/absent
  //    file means "no snapshot" — the WAL alone still reconstructs the run
  //    log, and the muted reconcile below rebuilds protocol state from the
  //    start.
  std::uint64_t snap_ops = 0;
  const auto snap = SnapshotFile::read(state_->snapshot_path());
  std::optional<NodeStack::Checkpoint> checkpoint;
  if (snap) {
    ByteReader r(*snap);
    const auto ops = r.u64();
    if (ops) checkpoint = NodeStack::decode_checkpoint(r);
    if (checkpoint && r.exhausted()) {
      snap_ops = *ops;
    } else {
      checkpoint.reset();
    }
  }

  // 2. Replay the WAL through the recorder (history + events verbatim) and
  //    preseed the dedup filter so live redeliveries of spilled events are
  //    suppressed.  A CRC-valid record that fails to decode is our own bug.
  WalOpenStats open_stats;
  std::uint64_t last_boot = 0;
  wal_ = Wal::open(
      state_->wal_path(),
      WalOptions{.fsync = config_.fsync,
                 .group_commit = config_.wal_group_commit,
                 .io = &io_hooks_},
      [this, &last_boot](std::span<const std::uint8_t> record) {
        DSM_REQUIRE(
            replay_wal_record(record, recorder_, filter_.get(), &last_boot));
      },
      &open_stats);
  DSM_REQUIRE(wal_.has_value() && "WAL must be openable");
  replayed_local_ops_ = local_op_count();
  // The spill path keeps the invariant "the WAL covers every op the snapshot
  // claims" (it commits the WAL first and skips the snapshot when that commit
  // fails), but a degraded-storage crash can still race past it — e.g. a
  // power loss after an fsync-failure spill.  Trust the WAL: it is the
  // replayable record.  Clamping reconciles the surplus ops below through the
  // muted path, exactly like the ordinary kill-9 window.
  if (snap_ops > replayed_local_ops_) snap_ops = replayed_local_ops_;
  node_stats_.wal_replayed = open_stats.records_recovered;

  // 3. From here on, everything the recorder logs is spilled: the replayed
  //    prefix of its log is the WAL already, the rest starts with this boot.
  wal_log_.emplace(*wal_, recorder_, recorder_.log_bytes());
  recorder_.record_incarnation(last_boot + 1);  // boots count from 1

  // 4. The stack: restore (ARQ, then protocol + recovery, then catch-up)
  //    when a snapshot exists, fresh start otherwise, with the ARQ's tx
  //    sequences moved past the epoch gap either way (see kArqEpochSkip).
  //    The spill hook is NOT installed yet — the snapshot must not be
  //    rewritten until the reconcile pass below has brought the protocol
  //    state up to the WAL's op count.
  stack_->start(checkpoint ? &*checkpoint : nullptr, kArqEpochSkip);

  // 5. Muted reconcile: re-execute the local ops the WAL has beyond the
  //    snapshot (the kill-9 window is at most one mutation with the default
  //    policy).  Writes regenerate their WriteIds deterministically and
  //    re-broadcast on epoch-gapped ARQ seqs (peers' filters absorb the
  //    echo); reads redo their Write_co merge.  The filter is muted so none
  //    of this is re-recorded.
  const auto locals = recorder_.history().local(config_.shape.self);
  if (snap_ops < locals.size()) {
    filter_->set_muted(true);
    for (std::size_t i = static_cast<std::size_t>(snap_ops); i < locals.size();
         ++i) {
      const Operation& op = recorder_.history().op(locals[i]);
      if (op.is_write()) {
        stack_->host().protocol().write(op.var, op.value);
      } else {
        (void)stack_->host().protocol().read(op.var);
      }
    }
    filter_->set_muted(false);
  }

  // 6. Now the state is coherent: spill on every checkpoint from here on,
  //    starting with one covering the reconciled state (and committing the
  //    incarnation record logged in step 3).
  stack_->host().set_spill_hook([this] { spill(); });
  stack_->host().checkpoint();
}

void ProcessNode::spill() {
  // WAL before snapshot: the on-disk invariant is "the WAL covers at least
  // every op the snapshot claims" — the reverse order could lose the batch
  // the snapshot's op count already counts.
  const WalIoError werr = wal_log_->commit();
  if (werr == WalIoError::kWrite || werr == WalIoError::kNoSpace) {
    // The bytes were NOT appended (they stay uncommitted; the next commit
    // retries them).
    // Writing a snapshot now would advance its op count past the WAL's
    // coverage — a crash before the retry lands would lose recorded events
    // that the restored protocol state already includes.  Skip this round;
    // the protocol keeps running on the in-memory state.
    ++node_stats_.snapshot_failures;
  } else {
    // kNone — or kFsync: the records ARE in the log (page cache), the WAL is
    // sticky-dirty until a later fsync succeeds, and the snapshot we force
    // out here is exactly the degradation cover docs/DURABILITY.md asks for.
    ByteWriter w;
    w.u64(local_op_count());
    stack_->encode_checkpoint(w);
    if (SnapshotFile::write(state_->snapshot_path(), w.buffer(), &io_hooks_)) {
      ++node_stats_.snapshot_writes;
    } else {
      ++node_stats_.snapshot_failures;
    }
  }
}

void ProcessNode::wal_tick() {
  if (!wal_.has_value()) return;
  if (wal_->unsynced_appends() == 0 && !wal_->dirty()) return;
  // A failure leaves the WAL sticky-dirty, which kFetchStats reports.
  (void)wal_->group_sync();
}

std::uint64_t ProcessNode::local_op_count() const {
  return recorder_.history().local(config_.shape.self).size();
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
      rep.stats.node = node_stats_;
      rep.stats.node.dropped_while_down = stack_->host().dropped_while_down();
      if (wal_.has_value()) {
        rep.stats.wal = wal_->stats();
        rep.stats.node.wal_dirty = wal_->dirty() ? 1 : 0;
      }
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
    case ControlOp::kKillHost:
      if (!stack_->up()) {
        rep.op = ControlOp::kError;
        rep.text = "host already down";
      } else {
        stack_->kill();
        if (runner_ != nullptr) runner_->suspend();
        rep.op = ControlOp::kAck;
      }
      break;
    case ControlOp::kRestartHost:
      if (stack_->up()) {
        rep.op = ControlOp::kError;
        rep.text = "host is up";
      } else {
        stack_->restart();
        if (runner_ != nullptr) runner_->resume();
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
    after_op = [this] { stack_->host().note_mutation(); };
  }
  runner_ = std::make_unique<ScriptRunner>(
      loop_.queue(), recorder_,
      [this]() -> CausalProtocol* {
        return stack_->up() ? &stack_->host().protocol() : nullptr;
      },
      config_.shape.self, script_, std::move(after_op));
  waker_.attach(config_.shape.self, runner_.get());
  runner_->set_telemetry(&telemetry_);
  runner_->set_objects(objects_.get());
  runner_->set_time_scale(req.time_scale);
  // Durable restart: the first replayed_local_ops_ steps already executed in
  // a previous incarnation (an op is in the WAL iff its step completed — the
  // batch commits at the post-op checkpoint), so the script resumes after
  // them.  0 on a fresh state dir, so a first boot starts at step 0.
  if (durable()) {
    runner_->set_start_index(static_cast<std::size_t>(replayed_local_ops_));
  }
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
