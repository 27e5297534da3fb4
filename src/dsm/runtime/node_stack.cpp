#include "dsm/runtime/node_stack.h"

#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

NodeStack::NodeStack(EventQueue& queue, DatagramTransport& transport,
                     const ProtocolHost::Shape& shape,
                     std::optional<ReliableConfig> arq,
                     ProtocolObserver& observer, RunTelemetry* telemetry)
    : queue_(&queue),
      transport_(&transport),
      self_(shape.self),
      n_procs_(shape.n_procs),
      arq_config_(std::move(arq)),
      telemetry_(telemetry),
      host_(shape, *this, observer, telemetry) {
  if (arq_config_) {
    build_arq();
    // The ARQ state rides in every checkpoint, taken at the same instant.
    host_.set_checkpoint_hook([this] {
      ByteWriter w;
      arq_->snapshot(w);
      arq_checkpoint_ = std::move(w).take();
      return arq_checkpoint_.size();
    });
  }
  transport.attach(self_, *this);
}

void NodeStack::build_arq() {
  arq_ = std::make_unique<ReliableNode>(*queue_, *transport_, self_, host_,
                                        *arq_config_);
}

void NodeStack::restore_arq(std::span<const std::uint8_t> state) {
  ByteReader r(state);
  DSM_REQUIRE(arq_->restore(r));  // also retransmits everything unacked
  DSM_REQUIRE(r.exhausted());
}

void NodeStack::start(const Checkpoint* from, std::uint64_t tx_epoch_skip) {
  if (from != nullptr) restore_arq(from->arq);
  if (arq_ != nullptr) arq_->skip_tx_sequences(tx_epoch_skip);
  if (from != nullptr) {
    host_.start_restored(from->host);
  } else {
    host_.start();
  }
}

void NodeStack::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  // Without a live ARQ the frame goes to the host: it is the protocol's own
  // bytes when this link has no ARQ, and when the stack is down the host
  // drops and counts it without looking.
  if (arq_ != nullptr) {
    arq_->deliver(from, bytes);
  } else {
    host_.deliver(from, bytes);
  }
}

void NodeStack::broadcast(Payload payload) {
  if (arq_ != nullptr) {
    arq_->broadcast(payload);
    return;
  }
  for (ProcessId to = 0; to < n_procs_; ++to) {
    if (to != self_) transport_->send(self_, to, payload);
  }
}

void NodeStack::send(ProcessId to, Payload payload) {
  if (arq_ != nullptr) {
    arq_->send(to, std::move(payload));
  } else {
    transport_->send(self_, to, std::move(payload));
  }
}

void NodeStack::kill() {
  host_.kill();
  if (arq_ != nullptr) {
    arq_acc_ += arq_->stats();
    if (telemetry_ != nullptr) telemetry_->fold_reliable(self_, arq_->stats());
    arq_.reset();
  }
}

void NodeStack::restart() {
  DSM_REQUIRE(!up() && "restart() on a live stack");
  if (arq_config_) {
    build_arq();
    restore_arq(arq_checkpoint_);
  }
  host_.restart();
}

void NodeStack::encode_checkpoint(ByteWriter& w) const {
  const std::vector<std::uint8_t>& host_blob = host_.checkpoint_bytes();
  w.u64(host_blob.size());
  w.bytes(host_blob);
  w.u64(arq_checkpoint_.size());
  w.bytes(arq_checkpoint_);
}

std::optional<NodeStack::Checkpoint> NodeStack::decode_checkpoint(
    ByteReader& r) {
  const auto host_len = r.u64();
  if (!host_len) return std::nullopt;
  const auto host = r.take(static_cast<std::size_t>(*host_len));
  if (!host) return std::nullopt;
  const auto arq_len = r.u64();
  if (!arq_len) return std::nullopt;
  const auto arq = r.take(static_cast<std::size_t>(*arq_len));
  if (!arq) return std::nullopt;
  return Checkpoint{*host, *arq};
}

ReliableStats NodeStack::reliable_stats() const {
  ReliableStats s = arq_acc_;
  if (arq_ != nullptr) s += arq_->stats();
  return s;
}

bool NodeStack::quiescent(const std::vector<bool>& excluded) const {
  return host_.up() && host_.protocol().quiescent() &&
         (arq_ == nullptr || arq_->quiescent_except(excluded));
}

}  // namespace dsm
