#include "dsm/runtime/node_stack.h"

#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/protocols/buffering.h"
#include "dsm/protocols/replay_filter.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/storage/snapshot_file.h"
#include "dsm/storage/state_dir.h"
#include "dsm/storage/wal_sink.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

namespace {
/// Epoch gap added to every ARQ tx sequence counter on a durable boot.  The
/// restored ARQ snapshot can predate the crash by one mutation; a reconciled
/// re-broadcast must never reuse a sequence number the previous incarnation
/// already spent at a peer (the peer's dedup would suppress a different
/// payload under the same seq — silent loss).
constexpr std::uint64_t kArqEpochSkip = 1'000'000;
}  // namespace

struct NodeStack::Durable {
  explicit Durable(Storage s)
      : storage(std::move(s)), io(storage.failpoints) {}

  Storage storage;
  /// The failpoints, routed through the WAL and snapshot writers
  /// (pass-through when there are none).
  FailpointIoHooks io;
  std::optional<StateDir> dir;
  std::optional<Wal> wal;
  /// Commits the log to the WAL: the log's records are the WAL's records.
  std::optional<WalLogCommitter> committer;
  bool spill_pending = false;  ///< ACKs held; tick() retries the spill
};

NodeStack::NodeStack(EventQueue& queue, DatagramTransport& transport,
                     const Shape& shape, std::optional<ReliableConfig> arq,
                     ProtocolObserver& observer, RunTelemetry* telemetry,
                     std::optional<Storage> storage)
    : queue_(&queue),
      transport_(&transport),
      shape_(shape),
      observer_(&observer),
      arq_config_(std::move(arq)),
      telemetry_(telemetry) {
  DSM_REQUIRE(shape.self < shape.n_procs);
  DSM_REQUIRE((!shape.recoverable || shape.protocol_config.objects == nullptr) &&
              "typed objects are not supported in recoverable mode");
  DSM_REQUIRE((!shape.recoverable || arq_config_) &&
              "a recoverable stack needs the ARQ: it is the only repair");
  if (storage) {
    DSM_REQUIRE(shape.recoverable && "a durable stack is recoverable");
    DSM_REQUIRE(storage->log != nullptr && storage->filter != nullptr);
    durable_ = std::make_unique<Durable>(std::move(*storage));
  }
  build();
  transport.attach(shape_.self, *this);
}

NodeStack::~NodeStack() = default;

void NodeStack::build() {
  protocol_ = make_protocol(shape_.kind, shape_.self, shape_.n_procs,
                            shape_.n_vars, *this, *observer_,
                            shape_.protocol_config);
  DSM_REQUIRE((!shape_.recoverable ||
               dynamic_cast<BufferingProtocol*>(protocol_.get()) != nullptr) &&
              "recoverable stacks need a class-P buffering protocol; a "
              "crashed token holder would require an election");
  if (telemetry_ != nullptr)
    protocol_->set_instrumentation(&telemetry_->instrumentation(shape_.self));
  if (arq_config_) {
    arq_ = std::make_unique<ReliableNode>(*queue_, *transport_, shape_.self,
                                          upper_, *arq_config_);
  }
}

void NodeStack::start(const Checkpoint* from) {
  DSM_REQUIRE(up());
  if (durable_ != nullptr) {
    DSM_REQUIRE(from == nullptr && "a durable stack boots from its state dir");
    boot();
    return;
  }
  restore(from, 0);
  // The first checkpoint: a fresh stack killed before its first operation
  // still restores to a well-formed state, and a restored one holds the
  // state it booted into.
  if (shape_.recoverable) checkpoint();
}

void NodeStack::restore(const Checkpoint* from, std::uint64_t tx_epoch_skip) {
  if (from != nullptr) {
    DSM_REQUIRE(shape_.recoverable);
    ByteReader r(from->arq);
    // Also retransmits everything unacked and resumes every peer.
    DSM_REQUIRE(arq_->restore(r));
    DSM_REQUIRE(r.exhausted());
  }
  if (arq_ != nullptr) arq_->skip_tx_sequences(tx_epoch_skip);
  if (from != nullptr) {
    ByteReader r(from->protocol);
    DSM_REQUIRE(protocol_->restore(r));
    DSM_REQUIRE(r.exhausted());
  } else {
    protocol_->start();
  }
}

void NodeStack::boot() {
  Durable& d = *durable_;
  RunRecorder& log = *d.storage.log;
  d.dir = StateDir::open(d.storage.dir);
  DSM_REQUIRE(d.dir.has_value() && "state dir must be creatable");

  // 1. The latest spilled snapshot, if any: [u64 op count] + the
  //    checkpoint.  A torn/corrupt/absent file means "no snapshot" — the WAL
  //    alone still reconstructs the run log, and the muted reconcile below
  //    rebuilds protocol state from the start.
  std::uint64_t snap_ops = 0;
  const auto snap = SnapshotFile::read(d.dir->snapshot_path());
  std::optional<Checkpoint> from;
  if (snap) {
    ByteReader r(*snap);
    const auto ops = r.u64();
    if (ops) from = decode_checkpoint(r);
    if (from && r.exhausted()) {
      snap_ops = *ops;
    } else {
      from.reset();
    }
  }

  // 2. Replay the WAL through the log (history + events verbatim) and
  //    preseed the filter so live redeliveries of spilled events are
  //    suppressed.  A CRC-valid record that fails to decode is our own bug.
  WalOpenStats open_stats;
  std::uint64_t last_boot = 0;
  d.wal = Wal::open(
      d.dir->wal_path(),
      WalOptions{.fsync = d.storage.fsync,
                 .group_commit = d.storage.group_commit,
                 .io = &d.io},
      [&](std::span<const std::uint8_t> record) {
        DSM_REQUIRE(
            replay_wal_record(record, log, d.storage.filter, &last_boot));
      },
      &open_stats);
  DSM_REQUIRE(d.wal.has_value() && "WAL must be openable");
  const std::uint64_t wal_ops = local_op_count();
  // spill() keeps "the WAL covers every op the snapshot claims", but degraded
  // storage can race past it (a power loss after an fsync-failure spill).
  // Trust the WAL, the replayable record: the surplus ops go through the
  // muted reconcile below, exactly like the ordinary kill-9 window.
  if (snap_ops > wal_ops) snap_ops = wal_ops;
  counts_.wal_replayed = open_stats.records_recovered;

  // 3. From here on, everything the log records is spilled: the replayed
  //    prefix of the log is the WAL already, the rest starts with this boot.
  d.committer.emplace(*d.wal, log, log.log_bytes());
  log.record_incarnation(last_boot + 1);  // boots count from 1

  // 4. Restore from the snapshot's checkpoint, or start fresh, with the
  //    ARQ's tx sequences moved past the epoch gap either way.
  restore(from ? &*from : nullptr, kArqEpochSkip);

  // 5. Muted reconcile: re-execute the local ops the WAL has beyond the
  //    snapshot (the kill-9 window is at most one mutation with the default
  //    policy).  Writes regenerate their WriteIds deterministically and
  //    re-broadcast on epoch-gapped ARQ seqs (peers' filters absorb the
  //    echo); reads redo their Write_co merge.  The filter is muted so none
  //    of this is re-recorded.  No checkpoint is taken before this point, so
  //    no snapshot is rewritten behind the WAL's op count.
  const auto locals = log.history().local(shape_.self);
  if (snap_ops < locals.size()) {
    d.storage.filter->set_muted(true);
    for (std::size_t i = static_cast<std::size_t>(snap_ops); i < locals.size();
         ++i) {
      const Operation& op = log.history().op(locals[i]);
      if (op.is_write()) {
        protocol_->write(op.var, op.value);
      } else {
        (void)protocol_->read(op.var);
      }
    }
    d.storage.filter->set_muted(false);
  }

  // 6. The state is coherent: the first checkpoint spills it (and commits
  //    the incarnation record logged in step 3).
  checkpoint();
}

void NodeStack::tick() {
  if (durable_ != nullptr) {
    // Both before the ARQ's edge: a spill that lands releases the held ACKs
    // into this tick's frames, and the group commit's one fsync covers every
    // write those frames carry.  A failed fsync leaves the WAL sticky-dirty,
    // which node_stats() reports.
    Durable& d = *durable_;
    if (d.spill_pending) spill();
    if (d.storage.group_commit) (void)d.wal->group_sync();
  }
  if (arq_ != nullptr) arq_->flush();
}

void NodeStack::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  if (arq_ == nullptr) {
    if (!up()) {
      // Crashed stack: the frame is lost; the sender's ARQ resends it.
      ++counts_.dropped_while_down;
      return;
    }
    // No ARQ on this link: the frame is the protocol's own bytes.
    protocol_->on_message(from, bytes);
    return;
  }
  const std::uint64_t delivered = arq_->stats().delivered;
  arq_->deliver(from, bytes);
  // One checkpoint per frame, after all of it: the ARQ marks a BATCH or
  // RESEND frame's seqs seen before their payloads go up, so a checkpoint
  // between two payloads would record the frame received while holding
  // only part of it, and dedup would drop the rest when it is resent.
  if (shape_.recoverable && arq_->stats().delivered != delivered) {
    checkpoint();
  }
}

void NodeStack::checkpoint() {
  DSM_REQUIRE(shape_.recoverable && up());
  // Each part is written into scratch_ and framed with its length, as
  // decode_checkpoint reads it.  Both buffers keep their capacity.
  ByteWriter out(std::move(checkpoint_));
  std::size_t part_bytes = 0;
  const auto put_part = [&](const auto& snapshot_into) {
    ByteWriter part(std::move(scratch_));
    snapshot_into(part);
    const std::vector<std::uint8_t>& bytes = part.buffer();
    out.u64(bytes.size());
    out.bytes(bytes);
    part_bytes += bytes.size();
    scratch_ = std::move(part).take();
  };
  put_part([&](ByteWriter& w) { protocol_->snapshot(w); });
  put_part([&](ByteWriter& w) { arq_->snapshot(w); });
  checkpoint_ = std::move(out).take();
  if (telemetry_ != nullptr)
    telemetry_->record_checkpoint(shape_.self, part_bytes);
  if (durable_ != nullptr) spill();
}

void NodeStack::spill() {
  Durable& d = *durable_;
  // WAL before snapshot: the on-disk invariant is "the WAL covers at least
  // every op the snapshot claims" — the reverse order could lose the batch
  // the snapshot's op count already counts.
  const WalIoError werr = d.committer->commit();
  bool landed = false;
  if (werr == WalIoError::kWrite || werr == WalIoError::kNoSpace) {
    // The bytes were NOT appended (they stay uncommitted; the next commit
    // retries them).  Writing a snapshot now would advance its op count
    // past the WAL's coverage — a crash before the retry lands would lose
    // recorded events that the restored protocol state already includes.
    // Skip this round; the protocol keeps running on the in-memory state.
    ++counts_.snapshot_failures;
  } else {
    // kNone — or kFsync: the records ARE in the log (page cache), the WAL is
    // sticky-dirty until a later fsync succeeds, and the snapshot forced
    // out here is exactly the degradation cover docs/DURABILITY.md asks for.
    ByteWriter w;
    w.u64(local_op_count());
    w.bytes(checkpoint_);
    if (SnapshotFile::write(d.dir->snapshot_path(), w.buffer(), &d.io)) {
      ++counts_.snapshot_writes;
      landed = true;
    } else {
      ++counts_.snapshot_failures;
    }
  }
  // A crash now would restart from the last snapshot that landed, and what
  // the stack received since is only in its peers' tx windows: no ACK may
  // retire it there until a snapshot covers it.
  d.spill_pending = !landed;
  arq_->hold_acks(d.spill_pending);
}

std::uint64_t NodeStack::local_op_count() const {
  return durable_->storage.log->history().local(shape_.self).size();
}

void NodeStack::broadcast(Payload payload) {
  if (arq_ != nullptr) {
    arq_->broadcast(payload);
    return;
  }
  for (ProcessId to = 0; to < shape_.n_procs; ++to) {
    if (to != shape_.self) transport_->send(shape_.self, to, payload);
  }
}

void NodeStack::send(ProcessId to, Payload payload) {
  if (arq_ != nullptr) {
    arq_->send(to, std::move(payload));
  } else {
    transport_->send(shape_.self, to, std::move(payload));
  }
}

void NodeStack::kill() {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(durable_ == nullptr &&
              "a durable stack crashes with its process and boots from disk");
  DSM_REQUIRE(up() && "kill() on an already-killed stack");
  // The dying incarnation's counters survive in the accumulators (stats are
  // volatile by design — they are not part of the checkpoint).
  stats_acc_ += protocol_->stats();
  if (telemetry_ != nullptr) telemetry_->record_crash(shape_.self);
  protocol_.reset();
  arq_acc_ += arq_->stats();
  if (telemetry_ != nullptr) {
    telemetry_->fold_reliable(shape_.self, arq_->stats());
  }
  arq_.reset();
}

void NodeStack::restart() {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(!up() && "restart() on a live stack");
  if (telemetry_ != nullptr) telemetry_->record_restart(shape_.self);
  build();
  // The restore path of a durable boot, from the stack's own checkpoint.  The
  // parts are restored before the checkpoint start() ends with reuses the
  // buffer they view.
  ByteReader r(checkpoint_);
  const auto from = decode_checkpoint(r);
  DSM_REQUIRE(from.has_value() && r.exhausted());
  start(&*from);
}

std::optional<NodeStack::Checkpoint> NodeStack::decode_checkpoint(
    ByteReader& r) {
  const auto protocol_len = r.u64();
  if (!protocol_len) return std::nullopt;
  const auto protocol = r.take(static_cast<std::size_t>(*protocol_len));
  if (!protocol) return std::nullopt;
  const auto arq_len = r.u64();
  if (!arq_len) return std::nullopt;
  const auto arq = r.take(static_cast<std::size_t>(*arq_len));
  if (!arq) return std::nullopt;
  return Checkpoint{*protocol, *arq};
}

CausalProtocol& NodeStack::protocol() const {
  DSM_REQUIRE(up());
  return *protocol_;
}

ProtocolStats NodeStack::stats() const {
  ProtocolStats s = stats_acc_;
  if (protocol_ != nullptr) s += protocol_->stats();
  return s;
}

NodeStats NodeStack::node_stats() const {
  NodeStats s = counts_;
  s.wal_dirty = durable_ != nullptr && durable_->wal && durable_->wal->dirty();
  return s;
}

WalStats NodeStack::wal_stats() const {
  if (durable_ == nullptr || !durable_->wal) return {};
  return durable_->wal->stats();
}

ReliableStats NodeStack::reliable_stats() const {
  ReliableStats s = arq_acc_;
  if (arq_ != nullptr) s += arq_->stats();
  return s;
}

void NodeStack::fold_live(RunTelemetry& telemetry) const {
  if (!up()) return;
  if (arq_ != nullptr) {
    telemetry.fold_reliable(shape_.self, arq_->stats());
    for (ProcessId to = 0; to < shape_.n_procs; ++to) {
      if (to != shape_.self) {
        telemetry.sample_rto(shape_.self, arq_->current_rto(to));
      }
    }
  }
}

bool NodeStack::quiescent(const std::vector<bool>& excluded) const {
  return up() && protocol_->quiescent() &&
         (arq_ == nullptr || arq_->quiescent_except(excluded));
}

}  // namespace dsm
