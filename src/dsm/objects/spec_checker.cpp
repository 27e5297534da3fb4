#include "dsm/objects/spec_checker.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {
namespace {

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

TypedOp typed_of(const Operation& op) noexcept {
  TypedOp t;
  t.spec = op.spec;
  t.opcode = op.opcode;
  t.arg = op.value;
  t.arg2 = op.arg2;
  return t;
}

/// DFS over the linearizations of (V, ↦co|V) with per-sender frontiers.
/// Returns true iff some complete linearization makes the spec's observe()
/// reproduce the accessor's recorded return, or the budget ran out.
class LinearizationSearch {
 public:
  LinearizationSearch(const GlobalHistory& h, const CoRelation& co,
                      const ObjectSpec& spec, const Operation& read,
                      std::vector<OpRef> visible, std::uint64_t budget,
                      std::uint64_t* explored)
      : h_(&h), spec_(&spec), read_(&read), budget_(budget),
        explored_(explored) {
    // Per-sender issue-ordered lists.  h.writes() is in recording order, and
    // each sender's subsequence is ordered by its 1-based write seq.
    by_sender_.resize(h.n_procs());
    for (const OpRef w : visible) by_sender_[h.op(w).proc].push_back(w);
    total_ = visible.size();
    // pred_[w][u]: how many of u's visible mutations must be applied before
    // w may run (its ↦co-predecessors within V, per sender).
    for (const OpRef w : visible) {
      std::vector<std::uint32_t> need(h.n_procs(), 0);
      for (ProcessId u = 0; u < h.n_procs(); ++u) {
        for (std::size_t i = 0; i < by_sender_[u].size(); ++i) {
          if (co.precedes(by_sender_[u][i], w))
            need[u] = static_cast<std::uint32_t>(i + 1);
        }
      }
      pred_.emplace(w, std::move(need));
    }
  }

  [[nodiscard]] bool run() {
    std::vector<std::uint32_t> frontier(h_->n_procs(), 0);
    return dfs(frontier, 0, *spec_->make_state());
  }

 private:
  [[nodiscard]] bool matches(const ObjectState& state) const {
    return state.observe(read_->opcode, read_->arg2) == read_->value;
  }

  bool dfs(std::vector<std::uint32_t>& frontier, std::size_t applied,
           const ObjectState& state) {
    if (applied == total_) return matches(state);
    if (*explored_ >= budget_) return true;  // budget spent: accept
    std::uint64_t key = mix_hash(0, state.digest());
    for (const std::uint32_t f : frontier) key = mix_hash(key, f);
    if (!visited_.insert(key).second) return false;
    for (ProcessId u = 0; u < frontier.size(); ++u) {
      if (frontier[u] >= by_sender_[u].size()) continue;
      const OpRef w = by_sender_[u][frontier[u]];
      const std::vector<std::uint32_t>& need = pred_.at(w);
      bool enabled = true;
      for (ProcessId t = 0; t < frontier.size(); ++t)
        if (need[t] > frontier[t]) { enabled = false; break; }
      if (!enabled) continue;
      ++*explored_;
      const Operation& op = h_->op(w);
      std::unique_ptr<ObjectState> next = state.clone();
      next->apply(op.opcode, op.value, op.arg2);
      ++frontier[u];
      const bool found = dfs(frontier, applied + 1, *next);
      --frontier[u];
      if (found) return true;
    }
    return false;
  }

  const GlobalHistory* h_;
  const ObjectSpec* spec_;
  const Operation* read_;
  std::uint64_t budget_;
  std::uint64_t* explored_;
  std::size_t total_ = 0;
  std::vector<std::vector<OpRef>> by_sender_;
  std::unordered_map<OpRef, std::vector<std::uint32_t>> pred_;
  std::unordered_set<std::uint64_t> visited_;
};

void check_typed_accessor(const GlobalHistory& h, const CoRelation& co,
                          OpRef r, const ObjectSpec& spec,
                          const SpecChecker::Options& opts,
                          CheckResult& result) {
  const Operation& read = h.op(r);

  // Mutations on this variable, per sender in issue order.
  std::vector<std::vector<OpRef>> by_sender(h.n_procs());
  for (const OpRef wref : h.writes()) {
    const Operation& w = h.op(wref);
    if (w.var == read.var) by_sender[w.proc].push_back(wref);
  }

  // Reconstruct the visible set V from the accessor's recorded counts; a
  // count-less accessor falls back to its causal past.
  std::vector<OpRef> visible;
  const bool have_counts = read.visible.size() == h.n_procs();
  if (have_counts) {
    for (ProcessId u = 0; u < h.n_procs(); ++u) {
      if (read.visible[u] > by_sender[u].size()) {
        result.violations.push_back(
            {ViolationKind::kIllegalReturn, r, kInvalidOp,
             op_to_string(read) +
                 " claims more applied mutations than were recorded"});
        return;
      }
      for (std::size_t i = 0; i < read.visible[u]; ++i)
        visible.push_back(by_sender[u][i]);
    }
  } else {
    for (const auto& list : by_sender)
      for (const OpRef wref : list)
        if (co.precedes(wref, r)) visible.push_back(wref);
  }

  // Soundness gate: causal consistency requires every causally prior
  // mutation on x to be applied before the accessor runs.
  if (have_counts) {
    for (ProcessId u = 0; u < h.n_procs(); ++u) {
      for (std::size_t i = read.visible[u]; i < by_sender[u].size(); ++i) {
        const OpRef wref = by_sender[u][i];
        if (co.precedes(wref, r)) {
          result.violations.push_back(
              {ViolationKind::kIllegalReturn, r, wref,
               op_to_string(read) + " misses causally prior mutation " +
                   op_to_string(h.op(wref))});
          return;
        }
      }
    }
  }

  // Drop mutations that cannot influence this accessor (e.g. add(3) for
  // contains(7)); what remains is the linearization search's ground set.
  std::erase_if(visible, [&](OpRef wref) {
    return !spec.relevant(typed_of(h.op(wref)), read.opcode, read.arg2);
  });

  bool legal = false;
  if (!spec.order_sensitive()) {
    // Commutative mutations: one linearization decides.
    std::unique_ptr<ObjectState> state = spec.make_state();
    for (const OpRef wref : visible) {
      const Operation& w = h.op(wref);
      state->apply(w.opcode, w.value, w.arg2);
      ++result.linearizations_explored;
    }
    legal = state->observe(read.opcode, read.arg2) == read.value;
  } else {
    LinearizationSearch search(h, co, spec, read, std::move(visible),
                               opts.max_explored_per_accessor,
                               &result.linearizations_explored);
    legal = search.run();
  }
  if (!legal) {
    result.violations.push_back(
        {ViolationKind::kIllegalReturn, r, kInvalidOp,
         op_to_string(read) + " cannot be produced by any linearization of "
                              "its visible mutations under spec " +
             std::string(spec.name())});
  }
}

}  // namespace

CheckResult SpecChecker::check(const GlobalHistory& h,
                               const ObjectSchema& schema) {
  return check(h, schema, Options{});
}

CheckResult SpecChecker::check(const GlobalHistory& h,
                               const ObjectSchema& schema,
                               const Options& opts) {
  const auto co = CoRelation::build(h);
  // No ↦co, nothing to linearize: report the cycle or dangling read exactly
  // as the register checker does.
  if (!co) return ConsistencyChecker::check(h);
  return check(h, schema, *co, opts);
}

CheckResult SpecChecker::check(const GlobalHistory& h,
                               const ObjectSchema& schema,
                               const CoRelation& co, const Options& opts) {
  const RegisterLegality registers(h, co);
  CheckResult result;
  for (OpRef r = 0; r < h.size(); ++r) {
    const Operation& read = h.op(r);
    if (!read.is_read()) continue;
    ++result.reads_checked;
    const SpecId spec_id = schema.spec_for(read.var);
    if (spec_id == SpecId::kRegister) {
      registers.check_read(r, result);
    } else {
      check_typed_accessor(h, co, r, spec_for(spec_id), opts, result);
    }
  }
  return result;
}

}  // namespace dsm
