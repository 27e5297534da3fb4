#include "dsm/workload/sim_harness.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/runtime/node_stack.h"
#include "dsm/sim/event_queue.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/script_runner.h"

namespace dsm {

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
  const bool crashes = config.crash.active();
  config.crash.validate(config.n_procs);
  // Typed objects are not supported with crash/restart: a restarted process's
  // catch-up applies arrive without their typed payload stash, so the store
  // could not replay them.  The CLI rejects the combination up front.
  DSM_REQUIRE(!crashes || config.protocol_config.objects == nullptr);

  EventQueue queue;
  Network net(queue, *config.latency, config.n_procs);
  if (config.latency_override) {
    net.set_latency_override(config.latency_override);
  }
  net.set_fault_plan(config.fault);

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

  // Crash mode: a write can legitimately reach a process twice (catch-up
  // reply + ARQ retransmission whose ACK died with the crash); record each
  // event once.  The filter sits above telemetry and the await waker so they
  // also see the deduplicated stream.
  std::optional<ReplayFilterObserver> filter;
  if (crashes) observer = &filter.emplace(waking);

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

  // One NodeStack per process.  The ARQ goes in whenever the link can lose
  // frames: under a fault plan, and under a crash plan, where a crashed
  // receiver loses what was in flight to it.
  std::optional<ReliableConfig> arq;
  if (config.fault.active() || crashes) arq = config.arq;
  std::vector<std::unique_ptr<NodeStack>> stacks;
  stacks.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    const ProtocolHost::Shape shape{config.kind,   p,
                                    config.n_procs, config.n_vars,
                                    config.protocol_config, crashes,
                                    DurabilityPolicy{}};
    stacks.push_back(
        std::make_unique<NodeStack>(queue, net, shape, arq, *observer, tel));
  }
  for (auto& stack : stacks) stack->start();

  std::vector<std::uint64_t> issued(config.n_procs, 0);
  std::vector<ScriptRunner> runners;
  runners.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    ScriptRunner::AfterOp after_op;
    if (crashes) after_op = [&stacks, p] { stacks[p]->host().note_mutation(); };
    runners.emplace_back(
        queue, *recorder,
        [&stacks, p]() -> CausalProtocol* {
          return stacks[p]->up() ? &stacks[p]->host().protocol() : nullptr;
        },
        p, scripts[p], std::move(after_op), &issued);
    runners.back().set_telemetry(tel);
    runners.back().set_objects(objects.get());
    waker.attach(p, &runners.back());
  }
  for (auto& r : runners) r.begin();

  SimRunResult result;

  // Recovery-completion detector: a restarted process has recovered once its
  // received watermarks cover every write issued anywhere before its restart
  // AND its pending buffer drained (received ⇒ applied or logically applied).
  std::function<void(ProcessId, std::size_t, std::vector<std::uint64_t>)> poll =
      [&](ProcessId p, std::size_t idx, std::vector<std::uint64_t> target) {
        const NodeStack& stack = *stacks[p];
        if (stack.up()) {
          const VectorClock seen = stack.host().recovery()->seen();
          bool caught_up = stack.host().protocol().quiescent();
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

  // A crashed process is unreachable: the network counts what is in flight
  // to it as crash drops until the restart re-attaches its stack.
  for (const CrashEvent& e : config.crash.events) {
    queue.schedule_at(e.at, [&, e] {
      net.detach(e.p);
      stacks[e.p]->kill();
      runners[e.p].suspend();
    });
    queue.schedule_at(e.restart_at, [&, e] {
      net.attach(e.p, *stacks[e.p]);
      stacks[e.p]->restart();
      runners[e.p].resume();
      const std::size_t idx = result.recoveries.size();
      result.recoveries.push_back(
          RecoveryRecord{e.p, e.at, e.restart_at, 0, false});
      poll(e.p, idx, issued);
    });
  }

  // Run to quiescence: the queue draining is sufficient; for token runs the
  // queue never drains, so poll the stacks' quiescence between chunks.
  const auto all_settled = [&] {
    return std::all_of(runners.begin(), runners.end(),
                       [](const ScriptRunner& r) { return r.done(); }) &&
           std::all_of(stacks.begin(), stacks.end(),
                       [](const auto& stack) { return stack->quiescent(); });
  };
  std::size_t chunks = 0;
  while (true) {
    const std::size_t fired = queue.run_until(queue.now() + config.settle_chunk);
    if (queue.empty()) {
      result.settled = all_settled();
      break;
    }
    if (all_settled()) {
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
  if (filter) result.replay_suppressed = filter->suppressed();
  result.stats.reserve(config.n_procs);
  for (ProcessId p = 0; p < config.n_procs; ++p) {
    const NodeStack& stack = *stacks[p];
    result.stats.push_back(stack.host().stats());
    result.reliable += stack.reliable_stats();
    result.recovery += stack.host().recovery_stats();
    // Dead incarnations were folded at their kill; fold the live one.
    if (tel == nullptr || !stack.up()) continue;
    if (const RecoveryNode* rec = stack.host().recovery()) {
      tel->fold_recovery(p, rec->stats());
    }
    if (const ReliableNode* node = stack.arq()) {
      tel->fold_reliable(p, node->stats());
      for (ProcessId to = 0; to < config.n_procs; ++to) {
        if (to != p) tel->sample_rto(p, node->current_rto(to));
      }
    }
  }
  if (tel != nullptr) {
    tel->fold_network(result.net, result.faults);
    tel->set_clock({});  // the queue dies with this frame
  }
  result.recorder = std::move(recorder);
  result.objects = std::move(objects);
  return result;
}

}  // namespace dsm
