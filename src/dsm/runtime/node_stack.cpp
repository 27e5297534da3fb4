#include "dsm/runtime/node_stack.h"

#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/protocols/buffering.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

NodeStack::NodeStack(EventQueue& queue, DatagramTransport& transport,
                     const Shape& shape, std::optional<ReliableConfig> arq,
                     ProtocolObserver& observer, RunTelemetry* telemetry)
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
  build();
  transport.attach(shape_.self, *this);
}

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

void NodeStack::start(const Checkpoint* from, std::uint64_t tx_epoch_skip) {
  DSM_REQUIRE(up());
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
  // The first checkpoint: a fresh stack killed before its first operation
  // still restores to a well-formed state, and a restored one spills the
  // state it booted into.
  if (shape_.recoverable) checkpoint();
}

void NodeStack::tick() {
  // Retried before the ARQ's edge, so a spill that lands releases the held
  // ACKs into this tick's frames.
  if (spill_pending_ && up()) spill();
  if (arq_ != nullptr) arq_->flush();
}

void NodeStack::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  if (arq_ == nullptr) {
    if (!up()) {
      // Crashed stack: the frame is lost; the sender's ARQ resends it.
      ++dropped_while_down_;
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
  spill();
}

void NodeStack::spill() {
  if (!spill_) return;
  // A crash now would restart from the last snapshot that landed, and what
  // the stack received since is only in its peers' tx windows: no ACK may
  // retire it there until a snapshot covers it.
  spill_pending_ = !spill_();
  arq_->hold_acks(spill_pending_);
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
  // The boot path of a durable node, from the stack's own checkpoint.  The
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
