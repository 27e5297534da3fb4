// Tests for the history model and the ↦co relation (paper Section 2),
// anchored on the paper's Example 1 history Ĥ₁.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/history/co_relation.h"
#include "dsm/history/history.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

using paper::kA;
using paper::kB;
using paper::kC;
using paper::kD;
using paper::kX1;
using paper::kX2;

// OpRefs in make_h1_history's recording order.
constexpr OpRef kWa = 0;  // w1(x1)a
constexpr OpRef kWc = 1;  // w1(x1)c
constexpr OpRef kR2 = 2;  // r2(x1)a
constexpr OpRef kWb = 3;  // w2(x2)b
constexpr OpRef kR3 = 4;  // r3(x2)b
constexpr OpRef kWd = 5;  // w3(x2)d

TEST(GlobalHistory, H1Shape) {
  const GlobalHistory h = paper::make_h1_history();
  EXPECT_EQ(h.n_procs(), 3u);
  EXPECT_EQ(h.n_vars(), 2u);
  EXPECT_EQ(h.size(), 6u);
  EXPECT_EQ(h.writes().size(), 4u);
  EXPECT_EQ(h.local(0).size(), 2u);
  EXPECT_EQ(h.local(1).size(), 2u);
  EXPECT_EQ(h.local(2).size(), 2u);
}

TEST(GlobalHistory, WriteIdsAreOneBasedPerProcess) {
  const GlobalHistory h = paper::make_h1_history();
  EXPECT_EQ(h.op(kWa).write_id, (WriteId{0, 1}));
  EXPECT_EQ(h.op(kWc).write_id, (WriteId{0, 2}));
  EXPECT_EQ(h.op(kWb).write_id, (WriteId{1, 1}));
  EXPECT_EQ(h.op(kWd).write_id, (WriteId{2, 1}));
  EXPECT_EQ(h.write_count(0), 2u);
  EXPECT_EQ(h.write_count(1), 1u);
}

TEST(GlobalHistory, FindWrite) {
  const GlobalHistory h = paper::make_h1_history();
  EXPECT_EQ(h.find_write(WriteId{0, 2}), kWc);
  EXPECT_FALSE(h.find_write(WriteId{0, 3}).has_value());
  EXPECT_FALSE(h.find_write(kNoWrite).has_value());
}

// find_write indexes each process's writes by seq − 1; every id outside that
// range is absent rather than an out-of-bounds read.
TEST(GlobalHistory, FindWriteRejectsSeqZero) {
  const GlobalHistory h = paper::make_h1_history();
  EXPECT_FALSE(h.find_write(WriteId{1, 0}).has_value());
  EXPECT_EQ(h.find_write(WriteId{1, 1}), kWb);
}

TEST(GlobalHistory, FindWriteRejectsProcessOutOfRange) {
  const GlobalHistory h = paper::make_h1_history();
  EXPECT_FALSE(h.find_write(WriteId{3, 1}).has_value());
  EXPECT_FALSE(h.find_write(WriteId{~ProcessId{0}, 1}).has_value());
}

TEST(GlobalHistory, FindWriteRejectsSeqPastWriteCount) {
  GlobalHistory h(2, 1);
  EXPECT_FALSE(h.find_write(WriteId{0, 1}).has_value());  // no writes yet
  (void)h.add_write(0, 0, 5);
  h.add_read(0, 0, 5, WriteId{0, 1});  // reads take no seq
  EXPECT_EQ(h.write_count(0), 1u);
  EXPECT_TRUE(h.find_write(WriteId{0, 1}).has_value());
  EXPECT_FALSE(h.find_write(WriteId{0, 2}).has_value());
  EXPECT_FALSE(h.find_write(WriteId{1, 1}).has_value());
}

TEST(GlobalHistory, PaperStyleRendering) {
  const GlobalHistory h = paper::make_h1_history();
  const std::string s = h.str();
  EXPECT_NE(s.find("h1: w1(x1)a; w1(x1)c"), std::string::npos);
  EXPECT_NE(s.find("h2: r2(x1)a; w2(x2)b"), std::string::npos);
  EXPECT_NE(s.find("h3: r3(x2)b; w3(x2)d"), std::string::npos);
}

TEST(OpToString, LetterAndNumericValues) {
  Operation op;
  op.proc = 0;
  op.kind = OpKind::kWrite;
  op.var = 0;
  op.value = 0;
  EXPECT_EQ(op_to_string(op), "w1(x1)a");
  op.value = 100;
  EXPECT_EQ(op_to_string(op), "w1(x1)100");
  op.kind = OpKind::kRead;
  op.value = kBottom;
  EXPECT_EQ(op_to_string(op), "r1(x1)⊥");
}

// ------------------------------------------------------------- CoRelation --

TEST(CoRelation, H1MatchesExampleOne) {
  const GlobalHistory h = paper::make_h1_history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());

  // The paper's stated relations:
  //   w1(x1)a ↦co w2(x2)b, w1(x1)a ↦co w1(x1)c, w2(x2)b ↦co w3(x2)d,
  //   w1(x1)c ‖co w2(x2)b, w1(x1)c ‖co w3(x2)d.
  EXPECT_TRUE(co->precedes(kWa, kWb));
  EXPECT_TRUE(co->precedes(kWa, kWc));
  EXPECT_TRUE(co->precedes(kWb, kWd));
  EXPECT_TRUE(co->concurrent(kWc, kWb));
  EXPECT_TRUE(co->concurrent(kWc, kWd));
  // Transitivity: a ↦co d through b.
  EXPECT_TRUE(co->precedes(kWa, kWd));
  // Asymmetry.
  EXPECT_FALSE(co->precedes(kWb, kWa));
}

TEST(CoRelation, ReadsParticipateInTheRelation) {
  const GlobalHistory h = paper::make_h1_history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  // w1(x1)a ↦ro r2(x1)a ↦po w2(x2)b.
  EXPECT_TRUE(co->precedes(kWa, kR2));
  EXPECT_TRUE(co->precedes(kR2, kWb));
  // The read of b at p3 is after b.
  EXPECT_TRUE(co->precedes(kWb, kR3));
}

TEST(CoRelation, CausalPastOfD) {
  const GlobalHistory h = paper::make_h1_history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  // ↓(w3(x2)d) = {w1(x1)a, r2(x1)a, w2(x2)b, r3(x2)b}; writes: {a, b}.
  EXPECT_EQ(co->causal_past(kWd),
            (std::vector<OpRef>{kWa, kR2, kWb, kR3}));
  EXPECT_EQ(co->write_causal_past(kWd), (std::vector<OpRef>{kWa, kWb}));
  EXPECT_EQ(co->causal_past_size(kWd), 4u);
}

TEST(CoRelation, WritePrecedesByIds) {
  const GlobalHistory h = paper::make_h1_history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  EXPECT_TRUE(co->write_precedes(WriteId{0, 1}, WriteId{1, 1}));
  EXPECT_FALSE(co->write_precedes(WriteId{0, 2}, WriteId{1, 1}));
  EXPECT_TRUE(co->write_concurrent(WriteId{0, 2}, WriteId{2, 1}));
}

TEST(CoRelation, RootsHaveEmptyPast) {
  const GlobalHistory h = paper::make_h1_history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  EXPECT_TRUE(co->causal_past(kWa).empty());
}

TEST(CoRelation, CycleIsRejected) {
  // p1 reads a value from a write that is *after* the read in p1's own
  // program order -> r ↦po w and w ↦ro r: a cycle.
  GlobalHistory h(2, 1);
  h.add_read(0, 0, 7, WriteId{0, 1});  // reads from p1's own later write
  h.add_write(0, 0, 7);
  EXPECT_FALSE(CoRelation::build(h).has_value());
}

TEST(CoRelation, DanglingReadsFromIsRejected) {
  GlobalHistory h(2, 1);
  h.add_read(0, 0, 7, WriteId{1, 5});  // p2 never wrote 5 times
  EXPECT_FALSE(CoRelation::build(h).has_value());
}

TEST(CoRelation, SingleProcessChainIsTotal) {
  GlobalHistory h(1, 1);
  h.add_write(0, 0, 1);
  h.add_write(0, 0, 2);
  h.add_write(0, 0, 3);
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  EXPECT_TRUE(co->precedes(0, 1));
  EXPECT_TRUE(co->precedes(1, 2));
  EXPECT_TRUE(co->precedes(0, 2));
  EXPECT_FALSE(co->precedes(2, 0));
}

TEST(CoRelation, IndependentProcessesAreFullyConcurrent) {
  GlobalHistory h(3, 3);
  h.add_write(0, 0, 1);
  h.add_write(1, 1, 2);
  h.add_write(2, 2, 3);
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());
  EXPECT_TRUE(co->concurrent(0, 1));
  EXPECT_TRUE(co->concurrent(1, 2));
  EXPECT_TRUE(co->concurrent(0, 2));
}

// ---------------------------------------------------- oracle differential --
//
// The reference for ↦co: depth-first reachability over the program-order and
// read-from edges, one search per operation.  It shares nothing with
// CoRelation but the history; a history is unbuildable iff a read cites an
// unrecorded write or some operation reaches itself.

struct NaiveCo {
  bool buildable = false;
  std::vector<std::vector<bool>> reach;  // reach[a][b] ⇔ a ↦co b
};

NaiveCo naive_co(const GlobalHistory& h) {
  const std::size_t n = h.size();
  std::vector<std::vector<OpRef>> succ(n);
  for (ProcessId p = 0; p < h.n_procs(); ++p) {
    const auto ops = h.local(p);
    for (std::size_t i = 1; i < ops.size(); ++i) {
      succ[ops[i - 1]].push_back(ops[i]);
    }
  }
  for (OpRef r = 0; r < n; ++r) {
    const Operation& op = h.op(r);
    if (!op.is_read() || !op.write_id.valid()) continue;
    const auto w = h.find_write(op.write_id);
    if (!w) return {};
    succ[*w].push_back(r);
  }
  NaiveCo co;
  co.reach.assign(n, std::vector<bool>(n, false));
  for (OpRef a = 0; a < n; ++a) {
    std::vector<OpRef> stack = succ[a];
    while (!stack.empty()) {
      const OpRef v = stack.back();
      stack.pop_back();
      if (co.reach[a][v]) continue;
      co.reach[a][v] = true;
      for (const OpRef s : succ[v]) stack.push_back(s);
    }
    if (co.reach[a][a]) return {};  // a cycle through a
  }
  co.buildable = true;
  return co;
}

/// Every query of the oracle against the reference; returns the first
/// disagreement, or "" when there is none.
std::string oracle_mismatch(const GlobalHistory& h) {
  const NaiveCo naive = naive_co(h);
  const auto co = CoRelation::build(h);
  if (co.has_value() != naive.buildable) return "build disagrees";
  if (!co) return "";
  const auto& reach = naive.reach;
  for (OpRef b = 0; b < h.size(); ++b) {
    std::vector<OpRef> past;
    std::vector<OpRef> write_past;
    for (OpRef a = 0; a < h.size(); ++a) {
      const std::string at = " at (" + std::to_string(a) + ", " +
                             std::to_string(b) + ")";
      if (co->precedes(a, b) != reach[a][b]) return "precedes" + at;
      if (co->concurrent(a, b) != (a != b && !reach[a][b] && !reach[b][a]))
        return "concurrent" + at;
      if (!reach[a][b]) continue;
      past.push_back(a);
      if (h.op(a).is_write()) write_past.push_back(a);
    }
    const std::string at = " of " + std::to_string(b);
    if (co->causal_past(b) != past) return "causal_past" + at;
    if (co->write_causal_past(b) != write_past) return "write_causal_past" + at;
    if (co->causal_past_size(b) != past.size()) return "causal_past_size" + at;
  }
  return "";
}

/// A random history on n processes.  Reads may cite a write recorded later
/// (such a history is often still acyclic, so recording order is not a
/// topological order), a write that is never recorded (dangling), or
/// nothing (⊥).
GlobalHistory random_history(Rng& rng, std::size_t n) {
  const std::size_t ops = 5 + rng.below(60);
  const std::size_t vars = 1 + rng.below(3);
  const bool allow_future = rng.chance(0.5);
  const bool allow_dangling = rng.chance(0.1);
  // Plan first, so a read can cite any write of the finished history.
  std::vector<std::pair<ProcessId, bool>> plan;  // (process, is_write)
  std::vector<SeqNo> writes(n, 0);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto p = static_cast<ProcessId>(rng.below(n));
    const bool is_write = rng.chance(0.5);
    if (is_write) ++writes[p];
    plan.emplace_back(p, is_write);
  }
  GlobalHistory h(n, vars);
  for (const auto& [p, is_write] : plan) {
    const auto x = static_cast<VarId>(rng.below(vars));
    if (is_write) {
      h.add_write(p, x, static_cast<Value>(h.size()));
      continue;
    }
    const auto q = static_cast<ProcessId>(rng.below(n));
    const SeqNo limit = allow_future ? writes[q] : h.write_count(q);
    WriteId cited = kNoWrite;
    if (allow_dangling && rng.chance(0.05)) {
      cited = WriteId{q, writes[q] + 1};
    } else if (limit > 0 && !rng.chance(0.1)) {
      cited = WriteId{q, 1 + rng.below(limit)};
    }
    h.add_read(p, x, 0, cited);
  }
  return h;
}

TEST(CoRelationDifferential, PaperHistoriesMatchNaiveReachability) {
  EXPECT_EQ(oracle_mismatch(paper::make_h1_history()), "");
  const ConstantLatency latency(10);
  for (const auto& choreo : {paper::make_fig1_run1(), paper::make_fig1_run2(),
                             paper::make_fig3()}) {
    for (const auto kind : {ProtocolKind::kOptP, ProtocolKind::kAnbkh}) {
      SimRunConfig cfg;
      cfg.kind = kind;
      cfg.n_procs = paper::kH1Procs;
      cfg.n_vars = paper::kH1Vars;
      cfg.latency = &latency;
      cfg.latency_override = choreo.latency_override;
      const auto run = run_sim(cfg, choreo.scripts);
      ASSERT_TRUE(run.settled);
      EXPECT_EQ(oracle_mismatch(run.recorder->history()), "")
          << to_string(kind);
    }
  }
}

TEST(CoRelationDifferential, RandomHistoriesMatchNaiveReachability) {
  Rng rng(2004);
  std::size_t buildable = 0;
  std::size_t dangling = 0;
  std::size_t cyclic = 0;
  for (int i = 0; i < 300; ++i) {
    const std::size_t n = 2 + static_cast<std::size_t>(i) % 6;  // 2..7
    const GlobalHistory h = random_history(rng, n);
    ASSERT_EQ(oracle_mismatch(h), "") << "history " << i << "\n" << h.str();
    if (CoRelation::build(h)) {
      ++buildable;
    } else if (std::ranges::any_of(h.all_ops(), [&](const Operation& op) {
                 return op.is_read() && op.write_id.valid() &&
                        !h.find_write(op.write_id);
               })) {
      ++dangling;
    } else {
      ++cyclic;
    }
  }
  // Every branch was exercised (168 / 14 / 118 with this seed).
  EXPECT_GT(buildable, 100u);
  EXPECT_GT(dangling, 5u);
  EXPECT_GT(cyclic, 50u);
}

}  // namespace
}  // namespace dsm
