#include "workloads.h"

#include "dsm/common/rng.h"
#include "dsm/sim/latency.h"
#include "dsm/workload/sim_harness.h"

namespace procbench {

using dsm::ProcessId;
using dsm::Script;
using dsm::StepKind;
using dsm::Value;
using dsm::VarId;

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : all_workloads()) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::kChain:
      return "proc-chain";
    case Workload::kRounds:
      return "proc-rounds";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {Workload::kChain, Workload::kRounds};
  return all;
}

std::size_t steps_of(Workload w, Size size) noexcept {
  const bool timed = size == Size::kTimed;
  switch (w) {
    case Workload::kChain:
      return timed ? 3000 : 300;
    case Workload::kRounds:
      return timed ? 300 : 8;
  }
  return 0;
}

namespace {

dsm::ScriptStep await_step(VarId x, Value v) {
  dsm::ScriptStep s = dsm::read_until_step(0, x, v, kPollEvery);
  s.timeout = kAwaitTimeout;
  return s;
}

void count(Plan& plan) {
  plan.writes = dsm::count_steps(plan.scripts, StepKind::kWrite);
  plan.awaits = dsm::count_steps(plan.scripts, StepKind::kReadUntil);
  plan.reads = dsm::count_steps(plan.scripts, StepKind::kRead) + plan.awaits;
}

}  // namespace

Plan make_chain(std::uint64_t seed, std::size_t hops) {
  Plan plan;
  plan.scripts.assign(kProcs, {});
  dsm::Rng rng(seed);
  VarId prev_var = 0;
  for (std::size_t k = 0; k < hops; ++k) {
    Script& s = plan.scripts[k % kProcs];
    if (k > 0) s.push_back(await_step(prev_var, static_cast<Value>(k)));
    const auto var = static_cast<VarId>(rng.below(kDataVars));
    s.push_back(dsm::write_step(0, var, static_cast<Value>(k + 1)));
    prev_var = var;
  }
  count(plan);
  return plan;
}

Plan make_rounds(std::uint64_t seed, std::size_t rounds, std::size_t burst) {
  Plan plan;
  plan.scripts.assign(kProcs, {});
  dsm::Rng rng(seed);
  const auto marker = [](std::size_t p, std::size_t r) {
    return static_cast<VarId>(kDataVars + 2 * p + r % 2);
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < kProcs; ++p) {
      Script& s = plan.scripts[p];
      for (std::size_t i = 0; i < burst; ++i) {
        const auto var = static_cast<VarId>(rng.below(kDataVars));
        if (i % 4 == 3) {
          s.push_back(dsm::read_step(0, var));
        } else {
          // Unique per (round, node, op): a value names its write.
          const auto v = static_cast<Value>(((r * kProcs + p) * burst + i) + 1);
          s.push_back(dsm::write_step(0, var, v));
        }
      }
      s.push_back(dsm::write_step(0, marker(p, r), static_cast<Value>(r + 1)));
      for (std::size_t q = 0; q < kProcs; ++q) {
        if (q != p) s.push_back(await_step(marker(q, r), static_cast<Value>(r + 1)));
      }
    }
  }
  count(plan);
  return plan;
}

Plan make_plan(Workload w, std::uint64_t seed, Size size) {
  const std::size_t steps = steps_of(w, size);
  return w == Workload::kRounds ? make_rounds(seed, steps, kBurst)
                                : make_chain(seed, steps);
}

std::string check_scripted(const Plan& plan, const dsm::GlobalHistory& history,
                           ProcessId p) {
  const Script& script = plan.scripts.at(p);
  const auto local = history.local(p);
  if (local.size() != script.size()) {
    return std::string("p") + std::to_string(p) + " recorded " +
           std::to_string(local.size()) + " ops for " +
           std::to_string(script.size()) + " script steps";
  }
  for (std::size_t i = 0; i < script.size(); ++i) {
    const dsm::ScriptStep& step = script[i];
    const dsm::Operation& op = history.op(local[i]);
    const bool want_write = step.kind == StepKind::kWrite;
    if (op.is_write() != want_write || op.var != step.var) {
      return std::string("p") + std::to_string(p) + " op " + std::to_string(i) +
             " does not match its script step";
    }
    if (step.kind == StepKind::kReadUntil && op.value != step.value) {
      return std::string("p") + std::to_string(p) + " await " + std::to_string(i) +
             " reached its timeout";
    }
  }
  return {};
}

std::string prove_in_sim(const Plan& plan, std::uint64_t seed) {
  // Wide uniform latencies reorder messages (and so exercise dependency
  // buffering) far more than loopback does.
  const dsm::UniformLatency latency(dsm::sim_us(20), dsm::sim_us(400), seed);
  dsm::SimRunConfig config;
  config.kind = dsm::ProtocolKind::kOptP;
  config.n_procs = kProcs;
  config.n_vars = kVars;
  config.latency = &latency;
  const dsm::SimRunResult result = dsm::run_sim(config, plan.scripts);
  if (!result.settled) return "simulated run never settled";
  for (ProcessId p = 0; p < kProcs; ++p) {
    std::string err = check_scripted(plan, result.recorder->history(), p);
    if (!err.empty()) return "simulator: " + err;
  }
  return {};
}

}  // namespace procbench
