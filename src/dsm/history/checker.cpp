#include "dsm/history/checker.h"

#include <algorithm>

#include "dsm/common/format.h"

namespace dsm {

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kCyclicCausality: return "cyclic-causality";
    case ViolationKind::kDanglingReadsFrom: return "dangling-reads-from";
    case ViolationKind::kVariableMismatch: return "variable-mismatch";
    case ViolationKind::kValueMismatch: return "value-mismatch";
    case ViolationKind::kOverwrittenRead: return "overwritten-read";
    case ViolationKind::kStaleBottomRead: return "stale-bottom-read";
    case ViolationKind::kIllegalReturn: return "illegal-return";
  }
  return "?";
}

CheckResult ConsistencyChecker::check(const GlobalHistory& h) {
  const auto co = CoRelation::build(h);
  if (!co) {
    CheckResult result;
    // Distinguish "cites a missing write" from a genuine cycle: re-scan the
    // reads for dangling references first.
    for (OpRef r = 0; r < h.size(); ++r) {
      const Operation& op = h.op(r);
      if (op.is_read() && op.write_id.valid() && !h.find_write(op.write_id)) {
        result.violations.push_back(
            {ViolationKind::kDanglingReadsFrom, r, kInvalidOp,
             op_to_string(op) + " reads from unrecorded write " +
                 to_string(op.write_id)});
      }
    }
    if (result.violations.empty()) {
      result.violations.push_back(
          {ViolationKind::kCyclicCausality, kInvalidOp, kInvalidOp,
           "recorded process-order + reads-from relation contains a cycle"});
    }
    return result;
  }
  return check(h, *co);
}

RegisterLegality::RegisterLegality(const GlobalHistory& h,
                                   const CoRelation& co)
    : h_(&h), co_(&co), writes_on_(h.n_vars() * h.n_procs()) {
  for (const OpRef w : h.writes()) {
    const Operation& op = h.op(w);
    writes_on_[std::size_t{op.var} * h.n_procs() + op.proc].push_back(w);
  }
}

std::span<const OpRef> RegisterLegality::writes_on(VarId x,
                                                   ProcessId p) const {
  return writes_on_[std::size_t{x} * h_->n_procs() + p];
}

void RegisterLegality::check_read(OpRef r, CheckResult& result) const {
  const GlobalHistory& h = *h_;
  const Operation& read = h.op(r);
  // The reported witness is the smallest OpRef over all processes, which is
  // the first match in h.writes() order.
  OpRef witness = kInvalidOp;

  if (!read.write_id.valid()) {
    // Read of ⊥: Definition 1 (second clause of ↦ro) — no write on this
    // variable may causally precede the read.  r's past holds a prefix of
    // each process's writes on x, so the first one decides.
    for (ProcessId p = 0; p < h.n_procs(); ++p) {
      const auto ws = writes_on(read.var, p);
      if (!ws.empty() && co_->precedes(ws.front(), r))
        witness = std::min(witness, ws.front());
    }
    if (witness != kInvalidOp) {
      result.violations.push_back(
          {ViolationKind::kStaleBottomRead, r, witness,
           op_to_string(read) + " returned ⊥ but " +
               op_to_string(h.op(witness)) + " is in its causal past"});
    }
    return;
  }

  const auto cited = h.find_write(read.write_id);
  if (!cited) {
    result.violations.push_back(
        {ViolationKind::kDanglingReadsFrom, r, kInvalidOp,
         op_to_string(read) + " reads from unrecorded write " +
             to_string(read.write_id)});
    return;
  }
  const Operation& w = h.op(*cited);
  if (w.var != read.var) {
    result.violations.push_back(
        {ViolationKind::kVariableMismatch, r, *cited,
         op_to_string(read) + " cites " + op_to_string(w) +
             " on a different variable"});
    return;
  }
  if (w.value != read.value) {
    result.violations.push_back(
        {ViolationKind::kValueMismatch, r, *cited,
         op_to_string(read) + " cites " + op_to_string(w) +
             " but the values differ"});
    return;
  }

  // Definition 1's second condition: no write on the same variable strictly
  // between the cited write and the read in ↦co.  On each process the writes
  // on x that follow the cited one in ↦co form a suffix, so the first of
  // them is that process's only candidate witness.
  for (ProcessId p = 0; p < h.n_procs(); ++p) {
    const auto ws = writes_on(read.var, p);
    const auto after = std::partition_point(
        ws.begin(), ws.end(),
        [&](OpRef other) { return !co_->precedes(*cited, other); });
    if (after != ws.end() && co_->precedes(*after, r))
      witness = std::min(witness, *after);
  }
  if (witness != kInvalidOp) {
    result.violations.push_back(
        {ViolationKind::kOverwrittenRead, r, witness,
         op_to_string(read) + " returned a value overwritten by " +
             op_to_string(h.op(witness))});
  }
}

CheckResult ConsistencyChecker::check(const GlobalHistory& h,
                                      const CoRelation& co) {
  const RegisterLegality rule(h, co);
  CheckResult result;
  for (OpRef r = 0; r < h.size(); ++r) {
    if (!h.op(r).is_read()) continue;
    ++result.reads_checked;
    rule.check_read(r, result);
  }
  return result;
}

}  // namespace dsm
