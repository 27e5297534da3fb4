#include "dsm/workload/script_runner.h"

#include <algorithm>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/objects/object_store.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

ScriptRunner::ScriptRunner(EventQueue& queue, RunRecorder& recorder,
                           ProtoFn proto, ProcessId self, const Script& script,
                           AfterOp after_op, std::vector<std::uint64_t>* issued)
    : queue_(&queue),
      recorder_(&recorder),
      proto_(std::move(proto)),
      self_(self),
      script_(&script),
      after_op_(std::move(after_op)),
      issued_(issued) {}

void ScriptRunner::begin() {
  if (next_ > 0 && next_ < script_->size()) {
    // Resuming mid-script after a process restart (set_start_index): the
    // step's think-time delay — relative to the previous op — elapsed long
    // ago, while the process was down.  Fire the overdue step immediately;
    // later steps keep their scripted delays.
    const std::size_t idx = next_;
    queue_->schedule_after(0, [this, idx] { execute(idx); });
    return;
  }
  schedule_step(next_, 0);
}

void ScriptRunner::resume() {
  down_ = false;
  if (stashed_) {
    stashed_ = false;
    const std::size_t idx = stash_idx_;
    queue_->schedule_after(0, [this, idx] { execute(idx); });
  }
}

void ScriptRunner::suspend() {
  down_ = true;
  if (!parked_) return;
  // The poll chain this park stands for would have stashed the step at its
  // next instant: keep only that instant, as a plain poll.
  queue_->cancel(deadline_);
  parked_ = false;
  arm_recheck();
}

void ScriptRunner::on_apply() {
  if (parked_) arm_recheck();
}

SimTime ScriptRunner::poll_period() const {
  const SimTime p = (*script_)[park_idx_].poll_every * time_scale_;
  DSM_REQUIRE(p > 0);
  return p;
}

void ScriptRunner::park(std::size_t idx) {
  if (parked_) return;  // a re-check found nothing new: keep the deadline
  parked_ = true;
  park_idx_ = idx;
  park_t0_ = queue_->now();
  park_waited_ = waited_;
  const SimTime p = poll_period();
  const SimTime left = (*script_)[idx].timeout * time_scale_ - waited_;
  const std::uint64_t k = (left + p - 1) / p;
  deadline_ = queue_->schedule_at(park_t0_ + k * p, [this, k] { wake(k); });
}

void ScriptRunner::unpark() {
  if (!parked_) return;
  queue_->cancel(deadline_);
  if (recheck_armed_) queue_->cancel(recheck_);
  parked_ = false;
  recheck_armed_ = false;
}

void ScriptRunner::arm_recheck() {
  if (recheck_armed_) return;
  const SimTime p = poll_period();
  const SimTime since = queue_->now() - park_t0_;
  const std::uint64_t k = std::max<std::uint64_t>(1, (since + p - 1) / p);
  recheck_armed_ = true;
  recheck_ = queue_->schedule_at(park_t0_ + k * p, [this, k] {
    recheck_armed_ = false;
    wake(k);
  });
}

void ScriptRunner::wake(std::uint64_t k) {
  waited_ = park_waited_ + k * poll_period();
  execute(park_idx_);
}

void ScriptRunner::schedule_step(std::size_t idx, SimTime extra_delay) {
  if (idx >= script_->size()) return;
  const ScriptStep& step = (*script_)[idx];
  queue_->schedule_after(step.delay * time_scale_ + extra_delay,
                         [this, idx] { execute(idx); });
}

void ScriptRunner::execute(std::size_t idx) {
  if (down_) {
    // The process is crashed; stash the step until the restart.
    stashed_ = true;
    stash_idx_ = idx;
    return;
  }
  CausalProtocol* proto = proto_();
  DSM_REQUIRE(proto != nullptr);
  const ScriptStep& step = (*script_)[idx];
  switch (step.kind) {
    case StepKind::kWrite: {
      recorder_->record_write(self_, step.var, step.value);
      if (telemetry_ != nullptr) telemetry_->record_write_op(self_);
      proto->write(step.var, step.value);
      if (issued_ != nullptr) ++(*issued_)[self_];
      break;
    }
    case StepKind::kRead: {
      const ReadResult r = proto->read(step.var);
      recorder_->record_read(self_, step.var, r);
      break;
    }
    case StepKind::kReadUntil: {
      // Park while the awaited value is missing; fire the one real read
      // when it is visible (or the timeout elapsed).
      if (proto->peek(step.var).value != step.value &&
          waited_ < step.timeout * time_scale_) {
        park(idx);
        return;
      }
      unpark();
      waited_ = 0;
      const ReadResult r = proto->read(step.var);
      recorder_->record_read(self_, step.var, r);
      break;
    }
    case StepKind::kMutate: {
      recorder_->record_mutation(self_, step.var, step.spec, step.opcode,
                                 step.value, step.arg2);
      if (telemetry_ != nullptr) {
        telemetry_->record_write_op(self_);
        telemetry_->record_object_op(self_, static_cast<SpecId>(step.spec));
      }
      proto->write_typed(step.var, step.spec, step.opcode, step.value,
                         step.arg2);
      if (issued_ != nullptr) ++(*issued_)[self_];
      break;
    }
    case StepKind::kObserve: {
      DSM_REQUIRE(objects_ != nullptr);
      // The protocol read runs first: its Write_co merge installs every
      // causally required mutation, so the store's state and visibility
      // counts are exactly what causal consistency lets the accessor see.
      const ReadResult r = proto->read(step.var);
      const Value answer = objects_->observe(
          self_, step.var, static_cast<OpCode>(step.opcode), step.value);
      recorder_->record_accessor(self_, step.var, step.spec, step.opcode,
                                 step.value, answer, r.writer,
                                 objects_->visible_counts(self_, step.var));
      if (telemetry_ != nullptr)
        telemetry_->record_object_op(self_, static_cast<SpecId>(step.spec));
      break;
    }
  }
  if (after_op_) after_op_();
  next_ = idx + 1;
  schedule_step(next_, 0);
}

}  // namespace dsm
