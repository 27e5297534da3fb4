// Tests for the causal-consistency checker (paper Definitions 1–2).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/objects/spec_checker.h"
#include "dsm/workload/paper_examples.h"

namespace dsm {
namespace {

TEST(Checker, H1IsCausallyConsistent) {
  const GlobalHistory h = paper::make_h1_history();
  const CheckResult result = ConsistencyChecker::check(h);
  EXPECT_TRUE(result.consistent());
  EXPECT_EQ(result.reads_checked, 2u);
}

TEST(Checker, EmptyHistoryIsConsistent) {
  const GlobalHistory h(2, 2);
  const CheckResult result = ConsistencyChecker::check(h);
  EXPECT_TRUE(result.consistent());
  EXPECT_EQ(result.reads_checked, 0u);
}

TEST(Checker, BottomReadBeforeAnyWriteIsLegal) {
  GlobalHistory h(2, 1);
  h.add_read(0, 0, kBottom, kNoWrite);
  h.add_write(1, 0, 5);
  // p1's ⊥-read has no write in its causal past: legal.
  EXPECT_TRUE(ConsistencyChecker::check(h).consistent());
}

TEST(Checker, StaleBottomReadIsIllegal) {
  // p1 writes x then reads ⊥ from x: the write is in the read's causal past.
  GlobalHistory h(1, 1);
  h.add_write(0, 0, 5);
  h.add_read(0, 0, kBottom, kNoWrite);
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kStaleBottomRead);
}

TEST(Checker, OverwrittenReadIsIllegal) {
  // Definition 1: p1 writes a then c to x1; p2 reads a *after* having read c
  // would be fine; but reading a with c already ↦co-before the read is not.
  // Construct: p2 reads c (establishing c in its past) then reads a.
  GlobalHistory h(2, 1);
  const WriteId wa = h.add_write(0, 0, 0);  // w1(x1)a
  const WriteId wc = h.add_write(0, 0, 2);  // w1(x1)c, a ↦co c
  h.add_read(1, 0, 2, wc);                  // r2(x1)c
  h.add_read(1, 0, 0, wa);                  // r2(x1)a — stale: a ↦co c ↦co read
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kOverwrittenRead);
  EXPECT_NE(result.violations[0].detail.find("overwritten"), std::string::npos);
}

TEST(Checker, ReadingOldValueWithoutCausalLinkIsLegal) {
  // Two *concurrent* writes to x: a process may read either (this is causal,
  // not sequential, consistency).
  GlobalHistory h(3, 1);
  const WriteId w1 = h.add_write(0, 0, 10);
  const WriteId w2 = h.add_write(1, 0, 20);
  h.add_read(2, 0, 10, w1);
  (void)w2;
  EXPECT_TRUE(ConsistencyChecker::check(h).consistent());
}

TEST(Checker, ProcessesMayDisagreeOnConcurrentWriteOrder) {
  // The paper's central liberality: two processes see concurrent writes in
  // opposite orders.  p3 reads 10 then 20; p4 reads 20 then 10.
  GlobalHistory h(4, 1);
  const WriteId w1 = h.add_write(0, 0, 10);
  const WriteId w2 = h.add_write(1, 0, 20);
  h.add_read(2, 0, 10, w1);
  h.add_read(2, 0, 20, w2);
  h.add_read(3, 0, 20, w2);
  h.add_read(3, 0, 10, w1);
  EXPECT_TRUE(ConsistencyChecker::check(h).consistent());
}

TEST(Checker, RereadingAfterSeeingNewerCausalValueIsIllegal) {
  // Same as above but the writes are causally ordered: once p3 read 20
  // (which causally follows 10), rereading 10 is a violation.
  GlobalHistory h(3, 2);
  const WriteId w1 = h.add_write(0, 0, 10);
  h.add_read(1, 0, 10, w1);                // p2 reads 10
  const WriteId w2 = h.add_write(1, 0, 20);  // so 10 ↦co 20
  h.add_read(2, 0, 20, w2);
  h.add_read(2, 0, 10, w1);  // illegal
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_FALSE(result.consistent());
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kOverwrittenRead);
}

TEST(Checker, ValueMismatchDetected) {
  GlobalHistory h(2, 1);
  const WriteId w = h.add_write(0, 0, 7);
  h.add_read(1, 0, 8, w);  // recorded value disagrees with the cited write
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kValueMismatch);
}

TEST(Checker, VariableMismatchDetected) {
  GlobalHistory h(2, 2);
  const WriteId w = h.add_write(0, 0, 7);
  h.add_read(1, 1, 7, w);  // cites a write on x1 for a read of x2
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kVariableMismatch);
}

TEST(Checker, DanglingReadsFromDetected) {
  GlobalHistory h(2, 1);
  h.add_read(1, 0, 7, WriteId{0, 9});
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kDanglingReadsFrom);
}

TEST(Checker, CyclicCausalityDetected) {
  GlobalHistory h(1, 1);
  h.add_read(0, 0, 7, WriteId{0, 1});  // reads own later write
  h.add_write(0, 0, 7);
  const CheckResult result = ConsistencyChecker::check(h);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kCyclicCausality);
}

TEST(Checker, MultipleViolationsAllReported) {
  GlobalHistory h(2, 2);
  const WriteId w = h.add_write(0, 0, 7);
  h.add_read(1, 0, 8, w);   // value mismatch
  h.add_read(1, 1, 7, w);   // variable mismatch
  const CheckResult result = ConsistencyChecker::check(h);
  EXPECT_EQ(result.violations.size(), 2u);
  EXPECT_EQ(result.reads_checked, 2u);
}

TEST(Checker, ViolationKindNames) {
  EXPECT_STREQ(to_string(ViolationKind::kOverwrittenRead), "overwritten-read");
  EXPECT_STREQ(to_string(ViolationKind::kCyclicCausality), "cyclic-causality");
}

// --------------------------------------------------- checker differential --
//
// The reference: Definition 1 as a plain scan of h.writes() for every read,
// reporting the first witness in that order, with the same unbuildable-
// history diagnosis.  The checker's per-process lookups must reproduce it
// field for field.

CheckResult naive_check(const GlobalHistory& h) {
  CheckResult result;
  const auto co = CoRelation::build(h);
  if (!co) {
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
  for (OpRef r = 0; r < h.size(); ++r) {
    const Operation& read = h.op(r);
    if (!read.is_read()) continue;
    ++result.reads_checked;
    if (!read.write_id.valid()) {
      for (const OpRef wref : h.writes()) {
        const Operation& w = h.op(wref);
        if (w.var == read.var && co->precedes(wref, r)) {
          result.violations.push_back(
              {ViolationKind::kStaleBottomRead, r, wref,
               op_to_string(read) + " returned ⊥ but " + op_to_string(w) +
                   " is in its causal past"});
          break;
        }
      }
      continue;
    }
    const auto cited = h.find_write(read.write_id);
    if (!cited) {
      result.violations.push_back(
          {ViolationKind::kDanglingReadsFrom, r, kInvalidOp,
           op_to_string(read) + " reads from unrecorded write " +
               to_string(read.write_id)});
      continue;
    }
    const Operation& w = h.op(*cited);
    if (w.var != read.var) {
      result.violations.push_back(
          {ViolationKind::kVariableMismatch, r, *cited,
           op_to_string(read) + " cites " + op_to_string(w) +
               " on a different variable"});
      continue;
    }
    if (w.value != read.value) {
      result.violations.push_back(
          {ViolationKind::kValueMismatch, r, *cited,
           op_to_string(read) + " cites " + op_to_string(w) +
               " but the values differ"});
      continue;
    }
    for (const OpRef wref : h.writes()) {
      const Operation& other = h.op(wref);
      if (wref == *cited || other.var != read.var) continue;
      if (co->precedes(*cited, wref) && co->precedes(wref, r)) {
        result.violations.push_back(
            {ViolationKind::kOverwrittenRead, r, wref,
             op_to_string(read) + " returned a value overwritten by " +
                 op_to_string(other)});
        break;
      }
    }
  }
  return result;
}

/// First field where two results differ, or "" when they agree.
std::string result_mismatch(const CheckResult& got, const CheckResult& want) {
  if (got.reads_checked != want.reads_checked) return "reads_checked";
  if (got.linearizations_explored != want.linearizations_explored)
    return "linearizations_explored";
  if (got.violations.size() != want.violations.size()) return "violation count";
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const Violation& a = got.violations[i];
    const Violation& b = want.violations[i];
    if (a.kind != b.kind || a.read != b.read || a.write != b.write ||
        a.detail != b.detail) {
      return "violation " + std::to_string(i) + ": got " + a.detail +
             ", want " + b.detail;
    }
  }
  return "";
}

/// A random register history with n processes.  Reads mostly cite an
/// earlier write on their variable, which yields overwritten reads once a
/// later write is in their past; some read ⊥ (stale once a write on x is in
/// their past), and a few cite a wrong value, a wrong variable, a write
/// that never happens or, in some histories, a write recorded later.
GlobalHistory random_register_history(Rng& rng, std::size_t n) {
  const std::size_t vars = 1 + rng.below(3);
  const std::size_t ops = 10 + rng.below(70);
  const bool allow_future = rng.chance(0.05);
  GlobalHistory h(n, vars);
  std::vector<std::vector<std::pair<WriteId, Value>>> written(vars);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto p = static_cast<ProcessId>(rng.below(n));
    const auto x = static_cast<VarId>(rng.below(vars));
    if (written[x].empty() ? rng.chance(0.7) : rng.chance(0.35)) {
      const auto v = static_cast<Value>(i);
      written[x].emplace_back(h.add_write(p, x, v), v);
    } else if (written[x].empty() || rng.chance(0.15)) {
      h.add_read(p, x, kBottom, kNoWrite);
    } else if (rng.chance(0.04)) {
      h.add_read(p, x, -1, written[x].back().first);  // wrong value
    } else if (rng.chance(0.03)) {
      const auto y = static_cast<VarId>((x + 1) % vars);
      if (!written[y].empty()) {
        h.add_read(p, x, written[y][0].second, written[y][0].first);
      }
    } else if (rng.chance(0.01)) {
      h.add_read(p, x, 0, WriteId{p, 1000});  // never recorded
    } else if (allow_future && rng.chance(0.1)) {
      h.add_read(p, x, 0, WriteId{p, h.write_count(p) + 1});
    } else {
      const auto& [w, v] = written[x][rng.below(written[x].size())];
      h.add_read(p, x, v, w);
    }
  }
  return h;
}

TEST(CheckerDifferential, RandomHistoriesMatchNaiveScanFieldForField) {
  Rng rng(1802);
  std::map<ViolationKind, std::size_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::size_t n = 2 + static_cast<std::size_t>(i) % 6;  // 2..7
    const GlobalHistory h = random_register_history(rng, n);
    const CheckResult want = naive_check(h);
    ASSERT_EQ(result_mismatch(ConsistencyChecker::check(h), want), "")
        << "history " << i << "\n" << h.str();
    const ObjectSchema registers(std::vector<SpecId>(h.n_vars(),
                                                     SpecId::kRegister));
    ASSERT_EQ(result_mismatch(SpecChecker::check(h, registers), want), "")
        << "history " << i << "\n" << h.str();
    for (const Violation& v : want.violations) ++seen[v.kind];
  }
  // Every verdict the rule can give was exercised, the two per-process
  // lookups many times over.
  EXPECT_GT(seen[ViolationKind::kOverwrittenRead], 500u);
  EXPECT_GT(seen[ViolationKind::kStaleBottomRead], 200u);
  for (const auto kind :
       {ViolationKind::kValueMismatch, ViolationKind::kVariableMismatch,
        ViolationKind::kDanglingReadsFrom, ViolationKind::kCyclicCausality}) {
    EXPECT_GT(seen[kind], 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace dsm
