// Tests for trace export/import: lossless round-trip and re-auditability of
// imported runs.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/history/checker.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/objects_demo.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

bool events_equal(const RunEvent& a, const RunEvent& b) {
  return a.order == b.order && a.time == b.time && a.at == b.at &&
         a.kind == b.kind && a.write == b.write && a.other == b.other &&
         a.var == b.var && a.value == b.value && a.delayed == b.delayed &&
         a.clock == b.clock;
}

TEST(TraceIo, EmptyRunRoundTrips) {
  RunRecorder rec(2, 3);
  const auto text = export_trace_jsonl(rec);
  const auto imported = import_trace_jsonl(text);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->history.n_procs(), 2u);
  EXPECT_EQ(imported->history.n_vars(), 3u);
  EXPECT_TRUE(imported->events.empty());
}

TEST(TraceIo, FullRunRoundTripsLosslessly) {
  DirectCluster c(ProtocolKind::kOptP, 3, 2);
  c.write(0, 0, 1);
  c.write(1, 1, -42);
  c.deliver_all();
  (void)c.read(2, 0);
  c.write(2, 1, 7);
  auto held = c.intercept_to(0);
  c.deliver_all();
  for (auto& f : held) c.inject(std::move(f));  // some delayed applies

  const auto text = export_trace_jsonl(c.recorder());
  const auto imported = import_trace_jsonl(text);
  ASSERT_TRUE(imported.has_value());

  const GlobalHistory& original = c.recorder().history();
  ASSERT_EQ(imported->history.size(), original.size());
  for (ProcessId p = 0; p < 3; ++p) {
    const auto got = imported->history.local(p);
    const auto want = original.local(p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(imported->history.op(got[i]), original.op(want[i]));
    }
  }
  const auto& original_events = c.recorder().events();
  ASSERT_EQ(imported->events.size(), original_events.size());
  for (std::size_t i = 0; i < original_events.size(); ++i) {
    EXPECT_TRUE(events_equal(imported->events[i], original_events[i]))
        << "event " << i;
  }
}

TEST(TraceIo, ImportedRunReauditsIdentically) {
  // Export a random simulated run and check the auditor/checker verdicts on
  // the imported copy match the live ones.
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 4;
  spec.ops_per_proc = 30;
  spec.seed = 77;
  const UniformLatency latency(sim_us(50), sim_us(800), 9);
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kAnbkh;
  cfg.n_procs = 4;
  cfg.n_vars = 4;
  cfg.latency = &latency;
  const auto result = run_sim(cfg, generate_workload(spec));
  ASSERT_TRUE(result.settled);

  const auto live_audit = OptimalityAuditor::audit(*result.recorder);
  const auto imported = import_trace_jsonl(export_trace_jsonl(*result.recorder));
  ASSERT_TRUE(imported.has_value());
  const auto replay_audit =
      OptimalityAuditor::audit(imported->history, imported->events);

  EXPECT_EQ(replay_audit.total_delayed(), live_audit.total_delayed());
  EXPECT_EQ(replay_audit.total_necessary(), live_audit.total_necessary());
  EXPECT_EQ(replay_audit.total_unnecessary(), live_audit.total_unnecessary());
  EXPECT_EQ(replay_audit.safe(), live_audit.safe());
  EXPECT_EQ(replay_audit.live(), live_audit.live());
  EXPECT_EQ(
      ConsistencyChecker::check(imported->history).consistent(),
      ConsistencyChecker::check(result.recorder->history()).consistent());
}

TEST(TraceIo, MalformedInputsRejected) {
  EXPECT_FALSE(import_trace_jsonl("").has_value());                 // no meta
  EXPECT_FALSE(import_trace_jsonl("not json\n").has_value());
  EXPECT_FALSE(import_trace_jsonl("{\"type\":\"op\"}\n").has_value());  // before meta
  EXPECT_FALSE(
      import_trace_jsonl("{\"type\":\"meta\",\"procs\":0,\"vars\":1}\n")
          .has_value());
  EXPECT_FALSE(
      import_trace_jsonl(
          "{\"type\":\"meta\",\"procs\":2,\"vars\":1}\n{\"type\":\"nope\"}\n")
          .has_value());
  // Truncated event object.
  EXPECT_FALSE(
      import_trace_jsonl(
          "{\"type\":\"meta\",\"procs\":2,\"vars\":1}\n{\"type\":\"ev\",\"order\":1}\n")
          .has_value());
}

TEST(TraceIo, BlankLinesTolerated) {
  const auto imported =
      import_trace_jsonl("{\"type\":\"meta\",\"procs\":1,\"vars\":1}\n\n\n");
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->history.n_procs(), 1u);
}

TEST(TraceIo, TypedRunRoundTripsLosslessly) {
  // The five-spec objects demo exercises every spec's mutations and
  // accessors (visible sets included); the imported ops must compare equal
  // field for field — Operation::operator== covers spec/opcode/arg2/visible.
  const auto schema = make_objects_demo_schema();
  const UniformLatency latency(sim_us(50), sim_us(400), 3);
  SimRunConfig cfg;
  cfg.n_procs = kObjectsDemoProcs;
  cfg.n_vars = kObjectsDemoVars;
  cfg.latency = &latency;
  cfg.protocol_config.objects = schema;
  const auto result = run_sim(cfg, make_objects_demo_scripts());
  ASSERT_TRUE(result.settled);

  const auto imported =
      import_trace_jsonl(export_trace_jsonl(*result.recorder));
  ASSERT_TRUE(imported.has_value());
  const GlobalHistory& original = result.recorder->history();
  ASSERT_EQ(imported->history.size(), original.size());
  bool saw_typed = false;
  for (ProcessId p = 0; p < kObjectsDemoProcs; ++p) {
    const auto got = imported->history.local(p);
    const auto want = original.local(p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Operation& op = original.op(want[i]);
      EXPECT_EQ(imported->history.op(got[i]), op);
      saw_typed = saw_typed || op.spec != SpecId::kRegister;
    }
  }
  EXPECT_TRUE(saw_typed);  // the demo is not a pure register run
}

TEST(TraceIo, RegisterTracesCarryNoTypedKeys) {
  // Byte-compatibility promise: a classic register run exports exactly the
  // pre-typed-extension JSONL (no spec/opcode/arg2 keys anywhere).
  DirectCluster c(ProtocolKind::kOptP, 2, 2);
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  const auto text = export_trace_jsonl(c.recorder());
  EXPECT_EQ(text.find("\"spec\""), std::string::npos);
  EXPECT_EQ(text.find("\"opcode\""), std::string::npos);
  EXPECT_EQ(text.find("\"arg2\""), std::string::npos);
}

TEST(TraceIo, PartialTypedFieldsRejected) {
  // The typed keys are all-or-nothing on an op line.
  const char* meta = "{\"type\":\"meta\",\"procs\":1,\"vars\":1}\n";
  const char* partials[] = {
      // spec without opcode/arg2
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":1}\n",
      // spec+opcode without arg2
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":1,\"opcode\":2}\n",
      // arg2 alone
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"arg2\":5}\n",
  };
  for (const char* line : partials) {
    EXPECT_FALSE(import_trace_jsonl(std::string(meta) + line).has_value())
        << line;
  }
  // spec 0 must ship key-less (the register byte-compatibility rule), and an
  // unknown spec or opcode, or an opcode of the other kind (an accessor on a
  // write line, a mutation on a read line), rejects outright.
  const char* bad_values[] = {
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":0,\"opcode\":0,\"arg2\":0}\n",
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":9,\"opcode\":2,\"arg2\":0}\n",
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":1,\"opcode\":42,\"arg2\":0}\n",
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":1,\"spec\":1,\"opcode\":4,\"arg2\":0}\n",
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"read\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":0,\"spec\":1,\"opcode\":2,\"arg2\":0,"
      "\"visible\":[]}\n",
  };
  for (const char* line : bad_values) {
    EXPECT_FALSE(import_trace_jsonl(std::string(meta) + line).has_value())
        << line;
  }
}

TEST(TraceIo, WriteIdMismatchDetected) {
  // An op line claiming the wrong sequence number must be rejected.
  const char* text =
      "{\"type\":\"meta\",\"procs\":1,\"vars\":1}\n"
      "{\"type\":\"op\",\"proc\":0,\"kind\":\"write\",\"var\":0,\"value\":1,"
      "\"wproc\":0,\"wseq\":5}\n";
  EXPECT_FALSE(import_trace_jsonl(text).has_value());
}

}  // namespace
}  // namespace dsm
