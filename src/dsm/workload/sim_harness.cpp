#include "dsm/workload/sim_harness.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/sim/event_queue.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/script_runner.h"

namespace dsm {
namespace {

/// Endpoint implementation over the simulated network — either directly
/// (reliable-network mode) or through the per-process ARQ node (fault mode).
class SimEndpoint final : public Endpoint {
 public:
  SimEndpoint(Network& net, ProcessId self) : net_(&net), self_(self) {}
  SimEndpoint(ReliableNode& node, ProcessId self)
      : reliable_(&node), self_(self) {}

  void broadcast(Payload bytes) override {
    if (reliable_ != nullptr) {
      reliable_->broadcast(bytes);
    } else {
      net_->broadcast(self_, bytes);
    }
  }
  void send(ProcessId to, Payload bytes) override {
    if (reliable_ != nullptr) {
      reliable_->send(to, std::move(bytes));
    } else {
      net_->send(self_, to, std::move(bytes));
    }
  }

 private:
  Network* net_ = nullptr;
  ReliableNode* reliable_ = nullptr;
  ProcessId self_;
};

/// MessageSink adapter: network delivery -> protocol receive.  Constructible
/// before the protocol exists (the ARQ wiring is circular otherwise).
class ProtocolSink final : public MessageSink {
 public:
  ProtocolSink() = default;
  explicit ProtocolSink(CausalProtocol& proto) : proto_(&proto) {}
  void set_protocol(CausalProtocol& proto) { proto_ = &proto; }
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    DSM_REQUIRE(proto_ != nullptr);
    proto_->on_message(from, bytes);
  }

 private:
  CausalProtocol* proto_ = nullptr;
};

/// Late-bound sink with a stable address: the ARQ node (constructed first,
/// registers with the network) delivers upward through this, and the target
/// behind it — the recovery node — is destroyed and rebuilt on every
/// crash/restart cycle.
class LateSink final : public MessageSink {
 public:
  void set(MessageSink* sink) noexcept { sink_ = sink; }
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    DSM_REQUIRE(sink_ != nullptr);
    sink_->deliver(from, bytes);
  }

 private:
  MessageSink* sink_ = nullptr;
};

/// One rebuildable process: everything here dies on crash and is
/// reconstructed (then restored from the checkpoint) on restart.
struct ProcNode {
  std::unique_ptr<ReliableNode> arq;
  std::unique_ptr<SimEndpoint> lower;  ///< recovery node's path downward
  std::unique_ptr<RecoveryNode> recovery;
  std::unique_ptr<CausalProtocol> proto;
  BufferingProtocol* buffering = nullptr;
  bool up = true;
};

/// Crash/restart mode: full stack Network → ARQ → RecoveryNode → protocol,
/// synchronous checkpoints after every state-mutating event, anti-entropy
/// catch-up on restart.  Kept separate from the plain path so the latter
/// stays byte-for-byte identical to pre-crash-support runs.
SimRunResult run_sim_crash(const SimRunConfig& config,
                           const std::vector<Script>& scripts) {
  config.crash.validate(config.n_procs);
  // Typed objects are not supported with crash/restart: a restarted process's
  // catch-up applies arrive without their typed payload stash, so the store
  // could not replay them.  The CLI rejects the combination up front.
  DSM_REQUIRE(config.protocol_config.objects == nullptr);

  EventQueue queue;
  Network net(queue, *config.latency, config.n_procs);
  if (config.latency_override) {
    net.set_latency_override(config.latency_override);
  }
  net.set_fault_plan(config.fault);

  auto recorder = std::make_unique<RunRecorder>(
      config.n_procs, config.n_vars, [&queue] { return queue.now(); });
  RunTelemetry* const tel = config.telemetry;
  if (tel != nullptr) tel->set_clock([&queue] { return queue.now(); });
  ProtocolObserver* downstream = recorder.get();
  if (tel != nullptr) downstream = &tel->observe_through(*recorder);
  // A write can legitimately reach a process twice (catch-up reply + ARQ
  // retransmission whose ACK died with the crash); record each event once.
  // The filter sits outermost so telemetry and the await waker also see the
  // deduplicated stream (replayed applies would otherwise double-count).
  AwaitWaker waker(config.n_procs);
  FanoutObserver waking({downstream, &waker});
  ReplayFilterObserver filter(waking);

  SimRunResult result;
  std::vector<LateSink> sinks(config.n_procs);
  std::vector<ProcNode> nodes(config.n_procs);
  std::vector<std::vector<std::uint8_t>> checkpoints(config.n_procs);
  std::vector<ProtocolStats> proto_acc(config.n_procs);
  std::vector<std::uint64_t> issued(config.n_procs, 0);

  const auto checkpoint = [&](ProcessId p) {
    ProcNode& node = nodes[p];
    DSM_REQUIRE(node.proto != nullptr);
    ByteWriter w;
    node.proto->snapshot(w);
    node.recovery->snapshot(w);
    node.arq->snapshot(w);
    checkpoints[p] = std::move(w).take();
    if (tel != nullptr) tel->record_checkpoint(p, checkpoints[p].size());
  };

  const auto build = [&](ProcessId p) {
    ProcNode& node = nodes[p];
    node.arq =
        std::make_unique<ReliableNode>(queue, net, p, sinks[p], config.arq);
    node.lower = std::make_unique<SimEndpoint>(*node.arq, p);
    node.recovery =
        std::make_unique<RecoveryNode>(p, config.n_procs, *node.lower);
    sinks[p].set(node.recovery.get());
    node.proto =
        make_protocol(config.kind, p, config.n_procs, config.n_vars,
                      *node.recovery, filter, config.protocol_config);
    node.buffering = dynamic_cast<BufferingProtocol*>(node.proto.get());
    DSM_REQUIRE(node.buffering != nullptr &&
                "crash plans need a class-P buffering protocol; a crashed "
                "token holder would require an election (out of scope)");
    node.recovery->set_protocol(*node.buffering);
    node.recovery->set_checkpoint_hook([&checkpoint, p] { checkpoint(p); });
    if (tel != nullptr)
      node.proto->set_instrumentation(&tel->instrumentation(p));
    node.up = true;
  };

  for (ProcessId p = 0; p < config.n_procs; ++p) build(p);
  for (auto& node : nodes) node.proto->start();
  // Time-zero baseline: a process that crashes before its first operation
  // still restores to a well-formed (empty) state.
  for (ProcessId p = 0; p < config.n_procs; ++p) checkpoint(p);

  std::vector<ScriptRunner> runners;
  runners.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    runners.emplace_back(
        queue, *recorder, [&nodes, p] { return nodes[p].proto.get(); }, p,
        scripts[p], [&checkpoint, p] { checkpoint(p); }, &issued);
    runners.back().set_telemetry(tel);
    waker.attach(p, &runners.back());
  }
  for (auto& r : runners) r.begin();

  // Recovery-completion detector: a restarted process has recovered once its
  // received watermarks cover every write issued anywhere before its restart
  // AND its pending buffer drained (received ⇒ applied or logically applied).
  std::function<void(ProcessId, std::size_t, std::vector<std::uint64_t>)> poll =
      [&](ProcessId p, std::size_t idx, std::vector<std::uint64_t> target) {
        ProcNode& node = nodes[p];
        if (node.up) {
          const VectorClock seen = node.recovery->seen();
          bool caught_up = node.proto->quiescent();
          for (ProcessId u = 0; u < config.n_procs && caught_up; ++u) {
            if (seen[u] < target[u]) caught_up = false;
          }
          if (caught_up) {
            result.recoveries[idx].recovered = true;
            result.recoveries[idx].recovered_at = queue.now();
            return;
          }
        }
        queue.schedule_after(
            sim_ms(1),
            [&poll, p, idx, t = std::move(target)] { poll(p, idx, t); });
      };

  for (const CrashEvent& e : config.crash.events) {
    queue.schedule_at(e.at, [&, e] {
      ProcNode& node = nodes[e.p];
      DSM_REQUIRE(node.up);
      // The dying incarnation's counters survive in the accumulators (stats
      // are volatile by design — they are not part of the checkpoint).
      proto_acc[e.p] += node.proto->stats();
      result.reliable += node.arq->stats();
      result.recovery += node.recovery->stats();
      if (tel != nullptr) {
        tel->record_crash(e.p);
        tel->fold_reliable(e.p, node.arq->stats());
        tel->fold_recovery(e.p, node.recovery->stats());
      }
      net.detach(e.p);
      runners[e.p].suspend();
      sinks[e.p].set(nullptr);
      node.proto.reset();
      node.buffering = nullptr;
      node.recovery.reset();
      node.arq.reset();
      node.up = false;
    });
    queue.schedule_at(e.restart_at, [&, e] {
      if (tel != nullptr) tel->record_restart(e.p);
      build(e.p);
      ProcNode& node = nodes[e.p];
      ByteReader r(checkpoints[e.p]);
      DSM_REQUIRE(node.proto->restore(r));
      DSM_REQUIRE(node.recovery->restore(r));
      DSM_REQUIRE(node.arq->restore(r));  // also retransmits everything unacked
      DSM_REQUIRE(r.exhausted());
      node.recovery->request_catch_up();
      checkpoint(e.p);
      runners[e.p].resume();
      const std::size_t idx = result.recoveries.size();
      result.recoveries.push_back(
          RecoveryRecord{e.p, e.at, e.restart_at, 0, false});
      poll(e.p, idx, issued);
    });
  }

  const auto all_done = [&] {
    return std::all_of(runners.begin(), runners.end(),
                       [](const ScriptRunner& r) { return r.done(); });
  };
  const auto all_quiescent = [&] {
    return std::all_of(nodes.begin(), nodes.end(), [](const ProcNode& n) {
      return n.up && n.proto->quiescent() && n.arq->quiescent();
    });
  };

  std::size_t chunks = 0;
  while (true) {
    const std::size_t fired = queue.run_until(queue.now() + config.settle_chunk);
    if (queue.empty()) {
      result.settled = all_done() && all_quiescent();
      break;
    }
    if (all_done() && all_quiescent()) {
      result.settled = true;
      break;
    }
    if (fired == 0) queue.step();
    if (++chunks >= config.max_settle_chunks) {
      result.settled = false;
      break;
    }
  }

  result.end_time = queue.now();
  result.net = net.stats();
  result.faults = net.fault_stats();
  result.replay_suppressed = filter.suppressed();
  result.stats.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    ProcNode& node = nodes[p];
    if (node.proto != nullptr) {
      proto_acc[p] += node.proto->stats();
      result.reliable += node.arq->stats();
      result.recovery += node.recovery->stats();
      if (tel != nullptr) {
        tel->fold_reliable(p, node.arq->stats());
        tel->fold_recovery(p, node.recovery->stats());
        for (ProcessId to = 0; to < config.n_procs; ++to) {
          if (to != p) tel->sample_rto(p, node.arq->current_rto(to));
        }
      }
    }
    result.stats.push_back(proto_acc[p]);
  }
  if (tel != nullptr) {
    tel->fold_network(result.net, result.faults);
    tel->set_clock({});  // the queue dies with this frame
  }
  result.recorder = std::move(recorder);
  return result;
}

}  // namespace

std::uint64_t SimRunResult::total_delayed() const {
  std::uint64_t s = 0;
  for (const auto& st : stats) s += st.delayed_writes;
  return s;
}
std::uint64_t SimRunResult::total_applies() const {
  std::uint64_t s = 0;
  for (const auto& st : stats) s += st.remote_applies;
  return s;
}
std::uint64_t SimRunResult::total_skipped() const {
  std::uint64_t s = 0;
  for (const auto& st : stats) s += st.skipped_writes;
  return s;
}

SimRunResult run_sim(const SimRunConfig& config,
                     const std::vector<Script>& scripts) {
  DSM_REQUIRE(config.latency != nullptr);
  DSM_REQUIRE(scripts.size() == config.n_procs);

  if (config.crash.active()) return run_sim_crash(config, scripts);

  EventQueue queue;
  Network net(queue, *config.latency, config.n_procs);
  if (config.latency_override) {
    net.set_latency_override(config.latency_override);
  }

  auto recorder = std::make_unique<RunRecorder>(
      config.n_procs, config.n_vars, [&queue] { return queue.now(); });

  // Telemetry (optional): protocol events tee through the RunTelemetry
  // observer into the recorder, stamped with simulated time.
  RunTelemetry* const tel = config.telemetry;
  ProtocolObserver* observer = recorder.get();
  if (tel != nullptr) {
    tel->set_clock([&queue] { return queue.now(); });
    observer = &tel->observe_through(*recorder);
  }

  // Parked awaits wake on the applies at their process.
  AwaitWaker waker(config.n_procs);
  FanoutObserver waking({observer, &waker});
  observer = &waking;

  // Typed-object runs interpose the ObjectStore outermost: it stashes each
  // mutation's typed payload at send/receipt and replays it on apply, before
  // forwarding every event unchanged to telemetry/recorder.
  std::unique_ptr<ObjectStore> objects;
  if (config.protocol_config.objects != nullptr) {
    objects = std::make_unique<ObjectStore>(config.protocol_config.objects,
                                            config.n_procs, config.n_vars,
                                            *observer);
    observer = objects.get();
  }

  // Wiring order matters in fault mode: the ARQ node registers itself as the
  // network sink and needs the (not-yet-filled) protocol sink as its upper
  // layer; the endpoint then routes protocol sends through the ARQ node.
  std::vector<ProtocolSink> sinks(config.n_procs);
  std::vector<std::unique_ptr<ReliableNode>> arq;
  std::vector<SimEndpoint> endpoints;
  endpoints.reserve(config.n_procs);
  if (config.fault.active()) {
    net.set_fault_plan(config.fault);
    arq.reserve(config.n_procs);
    for (ProcessId p = 0; p < config.n_procs; ++p) {
      arq.push_back(
          std::make_unique<ReliableNode>(queue, net, p, sinks[p], config.arq));
      endpoints.emplace_back(*arq[p], p);
    }
  } else {
    for (ProcessId p = 0; p < config.n_procs; ++p) {
      net.attach(p, sinks[p]);
      endpoints.emplace_back(net, p);
    }
  }

  std::vector<std::unique_ptr<CausalProtocol>> protos;
  protos.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    protos.push_back(make_protocol(config.kind, p, config.n_procs,
                                   config.n_vars, endpoints[p], *observer,
                                   config.protocol_config));
    if (tel != nullptr) protos[p]->set_instrumentation(&tel->instrumentation(p));
    sinks[p].set_protocol(*protos[p]);
  }

  for (auto& proto : protos) proto->start();

  std::vector<ScriptRunner> runners;
  runners.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    runners.emplace_back(
        queue, *recorder, [&protos, p] { return protos[p].get(); }, p,
        scripts[p]);
    runners.back().set_telemetry(tel);
    runners.back().set_objects(objects.get());
    waker.attach(p, &runners.back());
  }
  for (auto& r : runners) r.begin();

  // Run to quiescence: the queue draining is sufficient; for token runs the
  // queue never drains, so poll the protocols' quiescence between chunks.
  const auto all_done = [&] {
    return std::all_of(runners.begin(), runners.end(),
                       [](const ScriptRunner& r) { return r.done(); });
  };
  const auto all_quiescent = [&] {
    return std::all_of(protos.begin(), protos.end(),
                       [](const auto& p) { return p->quiescent(); }) &&
           std::all_of(arq.begin(), arq.end(),
                       [](const auto& node) { return node->quiescent(); });
  };

  SimRunResult result;
  std::size_t chunks = 0;
  while (true) {
    const std::size_t fired = queue.run_until(queue.now() + config.settle_chunk);
    if (queue.empty()) {
      result.settled = all_done() && all_quiescent();
      break;
    }
    if (all_done() && all_quiescent()) {
      result.settled = true;
      break;
    }
    // The next event lies beyond the chunk horizon (e.g. a heavy-tail
    // latency draw): jump to it so the loop always makes progress.
    if (fired == 0) queue.step();
    if (++chunks >= config.max_settle_chunks) {
      result.settled = false;  // stuck or cap too tight; caller inspects
      break;
    }
  }

  result.end_time = queue.now();
  result.net = net.stats();
  result.faults = net.fault_stats();
  for (const auto& node : arq) result.reliable += node->stats();
  result.stats.reserve(config.n_procs);
  for (const auto& proto : protos) result.stats.push_back(proto->stats());
  if (tel != nullptr) {
    tel->fold_network(result.net, result.faults);
    for (ProcessId p = 0; p < arq.size(); ++p) {
      tel->fold_reliable(p, arq[p]->stats());
      for (ProcessId to = 0; to < config.n_procs; ++to) {
        if (to != p) tel->sample_rto(p, arq[p]->current_rto(to));
      }
    }
    tel->set_clock({});  // the queue dies with this frame
  }
  result.recorder = std::move(recorder);
  result.objects = std::move(objects);
  return result;
}

}  // namespace dsm
