// optcm — per-process script execution as chained queue events.
//
// A ScriptRunner walks one process's Script step by step on an EventQueue,
// recording operations into the RunRecorder exactly when they are issued.
// It is deployment-agnostic: the simulator drives it on virtual time, and
// the multi-process ProcessNode drives it on a wall-clock-synchronized
// queue — the same stepping, waiting, and recording logic in both, which is
// what makes observer-event logs comparable across deployments.
//
// A ReadUntil step whose value is missing parks: it schedules no poll chain,
// only one cancelable deadline, and on_apply() (the harness calls it for
// every apply at this process) arms at most one re-check.  Every wake-up
// lands on the step's poll grid t0 + k·poll_every, so the step completes at
// the instant a poll chain would have; see ScriptStep::poll_every for the
// grid and its tie rule.
//
// Crash-mode extras (used by the simulator's crash path): the protocol is
// fetched through an accessor (the instance is rebuilt on restart), a step
// firing while the process is down is stashed and replayed on resume(),
// `after_op` (the checkpoint hook) runs after every completed operation, and
// `issued` counts this process's writes (the recovery-completion target).

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dsm/protocols/run_recorder.h"
#include "dsm/sim/event_queue.h"
#include "dsm/workload/script.h"

namespace dsm {

class ObjectStore;
class RunTelemetry;

class ScriptRunner {
 public:
  using ProtoFn = std::function<CausalProtocol*()>;
  using AfterOp = std::function<void()>;

  /// \pre `queue`, `recorder`, and `script` outlive the runner; `proto()`
  ///      returns the live protocol whenever an event fires while up.
  ScriptRunner(EventQueue& queue, RunRecorder& recorder, ProtoFn proto,
               ProcessId self, const Script& script, AfterOp after_op = {},
               std::vector<std::uint64_t>* issued = nullptr);

  /// Schedule the first step (delay relative to queue.now()).
  void begin();

  /// Start at step `k` instead of 0 (durable restart: the first k steps were
  /// already executed by a previous incarnation and replayed from its WAL).
  /// Call before begin().
  void set_start_index(std::size_t k) noexcept { next_ = k; }

  /// Attach run telemetry (write-operation events); may stay null.
  void set_telemetry(RunTelemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  /// Attach the run's ObjectStore; required before any kMutate/kObserve step
  /// fires (typed steps abort without one).  May stay null for register-only
  /// scripts.
  void set_objects(ObjectStore* objects) noexcept { objects_ = objects; }

  /// Multiply every step delay and poll interval by `scale` (the net runtime
  /// stretches microsecond-granularity sim scripts onto wall-clock time).
  /// Call before begin().
  void set_time_scale(std::uint64_t scale) noexcept { time_scale_ = scale; }

  [[nodiscard]] bool done() const noexcept { return next_ >= script_->size(); }

  /// Crash-mode hooks: stash steps while down, replay the stashed one on
  /// resume.  A parked await keeps only its next poll instant, which
  /// stashes the step if the process is still down then.
  void suspend();
  void resume();

  /// A write was applied at this process: a parked await re-checks at its
  /// next poll instant not before now, ordered after the apply.
  void on_apply();

 private:
  void schedule_step(std::size_t idx, SimTime extra_delay);
  void execute(std::size_t idx);
  [[nodiscard]] SimTime poll_period() const;
  void park(std::size_t idx);
  void unpark();
  void arm_recheck();
  /// Poll instant park_t0_ + k·poll_period() of the parked step.
  void wake(std::uint64_t k);

  EventQueue* queue_;
  RunRecorder* recorder_;
  RunTelemetry* telemetry_ = nullptr;
  ObjectStore* objects_ = nullptr;
  ProtoFn proto_;
  ProcessId self_;
  const Script* script_;
  AfterOp after_op_;
  std::vector<std::uint64_t>* issued_;
  std::uint64_t time_scale_ = 1;
  std::size_t next_ = 0;
  SimTime waited_ = 0;
  bool down_ = false;
  bool stashed_ = false;
  std::size_t stash_idx_ = 0;
  // The parked await: its step, the instant and waited_ it parked with, its
  // deadline, and its one armed re-check.
  bool parked_ = false;
  bool recheck_armed_ = false;
  std::size_t park_idx_ = 0;
  SimTime park_t0_ = 0;
  SimTime park_waited_ = 0;
  EventQueue::Handle deadline_;
  EventQueue::Handle recheck_;
};

/// Calls ScriptRunner::on_apply for each apply at a process with an
/// attached runner; observes nothing else.  Harnesses tee it in with a
/// FanoutObserver below any replay filter, so a suppressed echo wakes
/// nobody.
class AwaitWaker final : public ProtocolObserver {
 public:
  explicit AwaitWaker(std::size_t n_procs) : runners_(n_procs, nullptr) {}

  void attach(ProcessId p, ScriptRunner* runner) { runners_.at(p) = runner; }

  void on_apply(ProcessId at, WriteId /*w*/, bool /*delayed*/) override {
    if (at < runners_.size() && runners_[at] != nullptr) {
      runners_[at]->on_apply();
    }
  }

 private:
  std::vector<ScriptRunner*> runners_;
};

}  // namespace dsm
