#include "dsm/runtime/thread_cluster.h"

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"

namespace dsm {

void ThreadCluster::ClusterEndpoint::broadcast(Payload bytes) {
  for (ProcessId to = 0; to < cluster_->nodes_.size(); ++to) {
    if (to != self_) cluster_->post(self_, to, bytes);
  }
}

void ThreadCluster::ClusterEndpoint::send(ProcessId to, Payload bytes) {
  cluster_->post(self_, to, std::move(bytes));
}

ThreadCluster::ThreadCluster(const Config& config)
    : kind_(config.kind),
      protocol_config_(config.protocol_config),
      n_vars_(config.n_vars),
      max_jitter_us_(config.max_jitter_us),
      recoverable_(config.recoverable),
      telemetry_(config.telemetry),
      jitter_rng_(config.seed),
      epoch_(std::chrono::steady_clock::now()) {
  DSM_REQUIRE(config.n_procs >= 1);

  const auto ns_since_epoch = [this] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  };
  recorder_ = std::make_unique<RunRecorder>(config.n_procs, config.n_vars,
                                            ns_since_epoch);

  // Observer chain, innermost first: recorder ← telemetry tee ← fanout ←
  // replay filter.  The filter sits outermost so telemetry and the extra
  // observers see the deduplicated stream in recoverable mode.
  observer_ = recorder_.get();
  if (telemetry_ != nullptr) {
    telemetry_->set_clock(ns_since_epoch);
    observer_ = &telemetry_->observe_through(*recorder_);
  }
  if (!config.extra_observers.empty()) {
    std::vector<ProtocolObserver*> targets{observer_};
    targets.insert(targets.end(), config.extra_observers.begin(),
                   config.extra_observers.end());
    fanout_ = std::make_unique<FanoutObserver>(std::move(targets));
    observer_ = fanout_.get();
  }
  if (recoverable_) {
    // Catch-up replies can redeliver a write the protocol already absorbed;
    // record each event once so checker/auditor input stays replay-free.
    filter_ = std::make_unique<ReplayFilterObserver>(*observer_);
    observer_ = filter_.get();
  }
  if (protocol_config_.objects != nullptr) {
    // Typed objects: the store goes outermost so it stashes each mutation's
    // payload at send/receipt before anything else sees the apply.  Catch-up
    // redelivery would arrive without that stash, so recoverable mode and
    // typed schemas are mutually exclusive (the CLI rejects the combination).
    DSM_REQUIRE(!recoverable_ &&
                "typed objects are not supported in recoverable mode");
    objects_ = std::make_unique<ObjectStore>(
        protocol_config_.objects, config.n_procs, n_vars_, *observer_);
    observer_ = objects_.get();
  }

  nodes_.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    auto node = std::make_unique<Node>();
    node->endpoint = std::make_unique<ClusterEndpoint>(*this, p);
    node->inbox =
        std::make_unique<RingInbox>(config.n_procs, kMailRingCapacity);
    nodes_.push_back(std::move(node));
  }
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    const ProtocolHost::Shape shape{kind_,  p,
                                    config.n_procs, n_vars_,
                                    protocol_config_, recoverable_,
                                    DurabilityPolicy{}};
    nodes_[p]->host = std::make_unique<ProtocolHost>(
        shape, *nodes_[p]->endpoint, *observer_, telemetry_);
  }
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    nodes_[p]->delivery = std::thread([this, p] { deliver_loop(p); });
  }
  // start() may send (the token seed), so run it after delivery threads are
  // accepting messages.
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    const std::scoped_lock lock(nodes_[p]->mu);
    nodes_[p]->host->start();
  }
}

ThreadCluster::~ThreadCluster() { shutdown(); }

void ThreadCluster::shutdown() {
  if (stopped_.exchange(true)) return;
  for (auto& node : nodes_) node->inbox->close();
  for (auto& node : nodes_) {
    if (node->delivery.joinable()) node->delivery.join();
  }
  if (telemetry_ != nullptr) {
    // Delivery threads are joined: fold the surviving recovery stats and
    // detach the clock (it captures `this`).
    for (ProcessId p = 0; p < nodes_.size(); ++p) {
      const std::scoped_lock lock(nodes_[p]->mu);
      if (nodes_[p]->host->recovery() != nullptr)
        telemetry_->fold_recovery(p, nodes_[p]->host->recovery()->stats());
    }
    telemetry_->set_clock({});
  }
}

void ThreadCluster::post(ProcessId from, ProcessId to, Payload bytes) {
  DSM_REQUIRE(to < nodes_.size());
  DSM_REQUIRE(bytes != nullptr);
  MailEnvelope envelope;
  envelope.from = from;
  envelope.bytes = std::move(bytes);
  if (max_jitter_us_ > 0) {
    const std::scoped_lock lock(jitter_mu_);
    envelope.delay_us =
        static_cast<std::uint32_t>(jitter_rng_.below(max_jitter_us_ + 1));
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!nodes_[to]->inbox->post(from, std::move(envelope))) {
    // Shutdown raced the send; the message is dropped, which is fine because
    // nothing after shutdown() observes the run.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadCluster::deliver_loop(ProcessId p) {
  Node& node = *nodes_[p];
  const auto deliver = [&](MailEnvelope&& envelope) {
    if (envelope.delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(envelope.delay_us));
    }
    {
      const std::scoped_lock lock(node.mu);
      node.host->deliver(envelope.from, *envelope.bytes);
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  };
  bool closing = false;
  while (true) {
    // Doorbell protocol: snapshot the epoch BEFORE draining so a post that
    // lands between the drain and the wait bumps it and the wait is a no-op.
    const std::uint32_t epoch = node.inbox->epoch();
    if (node.inbox->drain(deliver) > 0) continue;
    if (closing) return;
    if (node.inbox->closed()) {
      // One more full drain now that close() — release-ordered after every
      // producer's final post — is visible; then stop.
      closing = true;
      continue;
    }
    node.inbox->wait(epoch);
  }
}

void ThreadCluster::write(ProcessId p, VarId x, Value v) {
  DSM_REQUIRE(p < nodes_.size());
  Node& node = *nodes_[p];
  const std::scoped_lock lock(node.mu);
  DSM_REQUIRE(node.host->up() && "write() on a killed process");
  recorder_->record_write(p, x, v);
  if (telemetry_ != nullptr) telemetry_->record_write_op(p, x, v);
  node.host->protocol().write(x, v);
  if (recoverable_) node.host->note_mutation();
}

ReadResult ThreadCluster::read(ProcessId p, VarId x) {
  DSM_REQUIRE(p < nodes_.size());
  Node& node = *nodes_[p];
  const std::scoped_lock lock(node.mu);
  DSM_REQUIRE(node.host->up() && "read() on a killed process");
  const ReadResult r = node.host->protocol().read(x);
  recorder_->record_read(p, x, r);
  // OptP merges Write_co on reads, so reads mutate durable state too.
  if (recoverable_) node.host->note_mutation();
  return r;
}

Value ThreadCluster::mutate(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                            Value arg, Value arg2) {
  DSM_REQUIRE(p < nodes_.size());
  DSM_REQUIRE(objects_ != nullptr && "mutate() needs protocol_config.objects");
  DSM_REQUIRE(spec == objects_->spec_of(x) && "spec does not match schema");
  DSM_REQUIRE(spec_for(spec).valid_mutation(opcode));
  Node& node = *nodes_[p];
  const std::scoped_lock lock(node.mu);
  DSM_REQUIRE(node.host->up() && "mutate() on a killed process");
  recorder_->record_mutation(p, x, static_cast<std::uint8_t>(spec),
                             static_cast<std::uint8_t>(opcode), arg, arg2);
  if (telemetry_ != nullptr) {
    telemetry_->record_write_op(p, x, arg);
    telemetry_->record_object_op(p, spec);
  }
  node.host->protocol().write_typed(x, static_cast<std::uint8_t>(spec),
                                    static_cast<std::uint8_t>(opcode), arg,
                                    arg2);
  // Still under the node mutex: the last apply at p is this mutation.
  return objects_->last_apply_result(p);
}

Value ThreadCluster::observe(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                             Value arg) {
  DSM_REQUIRE(p < nodes_.size());
  DSM_REQUIRE(objects_ != nullptr && "observe() needs protocol_config.objects");
  DSM_REQUIRE(spec == objects_->spec_of(x) && "spec does not match schema");
  DSM_REQUIRE(spec_for(spec).valid_accessor(opcode));
  Node& node = *nodes_[p];
  const std::scoped_lock lock(node.mu);
  DSM_REQUIRE(node.host->up() && "observe() on a killed process");
  // The real read first: its Write_co merge installs every causally
  // required mutation before the store answers.
  const ReadResult r = node.host->protocol().read(x);
  const Value answer = objects_->observe(p, x, opcode, arg);
  recorder_->record_accessor(p, x, static_cast<std::uint8_t>(spec),
                             static_cast<std::uint8_t>(opcode), arg, answer,
                             r.writer, objects_->visible_counts(p, x));
  if (telemetry_ != nullptr) telemetry_->record_object_op(p, spec);
  return answer;
}

ReadResult ThreadCluster::peek(ProcessId p, VarId x) const {
  DSM_REQUIRE(p < nodes_.size());
  const std::scoped_lock lock(nodes_[p]->mu);
  if (!nodes_[p]->host->up()) return {};
  return nodes_[p]->host->protocol().peek(x);
}

void ThreadCluster::kill(ProcessId p) {
  DSM_REQUIRE(recoverable_);
  DSM_REQUIRE(p < nodes_.size());
  const std::scoped_lock lock(nodes_[p]->mu);
  nodes_[p]->host->kill();
}

void ThreadCluster::restart(ProcessId p) {
  DSM_REQUIRE(recoverable_);
  DSM_REQUIRE(p < nodes_.size());
  const std::scoped_lock lock(nodes_[p]->mu);
  nodes_[p]->host->restart();
}

bool ThreadCluster::alive(ProcessId p) const {
  DSM_REQUIRE(p < nodes_.size());
  const std::scoped_lock lock(nodes_[p]->mu);
  return nodes_[p]->host->up();
}

ProtocolStats ThreadCluster::stats(ProcessId p) const {
  DSM_REQUIRE(p < nodes_.size());
  const std::scoped_lock lock(nodes_[p]->mu);
  return nodes_[p]->host->stats();
}

RecoveryStats ThreadCluster::recovery_stats() const {
  RecoveryStats total;
  for (const auto& node : nodes_) {
    const std::scoped_lock lock(node->mu);
    total += node->host->recovery_stats();
  }
  return total;
}

std::uint64_t ThreadCluster::crash_dropped() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    const std::scoped_lock lock(node->mu);
    total += node->host->dropped_while_down();
  }
  return total;
}

bool ThreadCluster::await_quiescence(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (in_flight_.load(std::memory_order_acquire) == 0) {
      bool quiescent = true;
      for (const auto& node : nodes_) {
        const std::scoped_lock lock(node->mu);
        if (!node->host->up() || !node->host->protocol().quiescent()) {
          quiescent = false;
          break;
        }
      }
      // Re-check in-flight: a protocol might have sent while we scanned.
      if (quiescent && in_flight_.load(std::memory_order_acquire) == 0) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

}  // namespace dsm
