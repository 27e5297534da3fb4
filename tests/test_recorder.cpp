// Unit tests for the run recorder, event rendering and the trace renderers.

#include <gtest/gtest.h>

#include <algorithm>

#include "dsm/audit/trace_render.h"
#include "dsm/common/rng.h"
#include "dsm/protocols/registry.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/sim/latency.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

TEST(RunRecorder, EventsGetMonotoneOrderAndClock) {
  std::uint64_t fake_time = 100;
  RunRecorder rec(2, 1, [&fake_time] { return fake_time += 10; });
  WriteUpdate m;
  m.sender = 0;
  m.write_seq = 1;
  m.clock = VectorClock(2);
  rec.on_send(0, m);
  rec.on_receipt(1, m);
  rec.on_apply(1, WriteId{0, 1}, true);
  const auto& events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].order, 0u);
  EXPECT_EQ(events[1].order, 1u);
  EXPECT_EQ(events[2].order, 2u);
  EXPECT_EQ(events[0].time, 110u);
  EXPECT_EQ(events[2].time, 130u);
  EXPECT_TRUE(events[2].delayed);
}

TEST(RunRecorder, FindLocatesFirstMatch) {
  RunRecorder rec(2, 1);
  rec.on_apply(1, WriteId{0, 1}, false);
  rec.on_apply(1, WriteId{0, 1}, true);  // (would not happen in real runs)
  const auto found = rec.find(EvKind::kApply, 1, WriteId{0, 1});
  ASSERT_TRUE(found.has_value());
  EXPECT_FALSE(found->delayed);  // the first one
  EXPECT_FALSE(rec.find(EvKind::kApply, 0, WriteId{0, 1}).has_value());
}

TEST(RunRecorder, EventsAtFiltersByProcess) {
  RunRecorder rec(3, 1);
  rec.on_apply(0, WriteId{0, 1}, false);
  rec.on_apply(2, WriteId{0, 1}, false);
  rec.on_apply(2, WriteId{1, 1}, false);
  EXPECT_EQ(rec.events_at(0).size(), 1u);
  EXPECT_EQ(rec.events_at(1).size(), 0u);
  EXPECT_EQ(rec.events_at(2).size(), 2u);
}

TEST(RunRecorder, HistoryRecordingAssignsIds) {
  RunRecorder rec(2, 2);
  const WriteId w1 = rec.record_write(0, 0, 5);
  const WriteId w2 = rec.record_write(0, 1, 6);
  EXPECT_EQ(w1, (WriteId{0, 1}));
  EXPECT_EQ(w2, (WriteId{0, 2}));
  rec.record_read(1, 0, ReadResult{5, w1});
  EXPECT_EQ(rec.history().size(), 3u);
}

void expect_same_event(const RunEvent& got, const RunEvent& want) {
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.at, want.at);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.write, want.write);
  EXPECT_EQ(got.other, want.other);
  EXPECT_EQ(got.var, want.var);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.delayed, want.delayed);
  EXPECT_TRUE(std::ranges::equal(got.clock.components(),
                                 want.clock.components()));
}

void expect_same_events(const std::vector<RunEvent>& got,
                        const std::vector<RunEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    expect_same_event(got[i], want[i]);
  }
}

/// The encoded log against a plain vector: every event kind, register and
/// typed history records, restores with gaps in `order`, values and clocks
/// of every varint width, and events() read between appends so the view is
/// filled incrementally across chunk boundaries.
TEST(RunRecorder, EncodedLogMatchesAPlainEventVector) {
  constexpr std::size_t kProcs = 4;
  constexpr std::size_t kVars = 3;
  Rng rng(0x5EC0DE);
  std::uint64_t now = 0;
  RunRecorder rec(kProcs, kVars, [&now] { return now; });
  GlobalHistory want_history(kProcs, kVars);
  std::vector<RunEvent> want;
  std::uint64_t next_order = 0;
  const auto any_value = [&rng]() -> Value {
    switch (rng.below(3)) {
      case 0: return rng.between(-100, 100);
      case 1: return kBottom;
      default: return static_cast<Value>(rng.next());
    }
  };
  const auto any_write = [&rng] {
    return WriteId{static_cast<ProcessId>(rng.below(kProcs)),
                   rng.below(std::uint64_t{1} << rng.below(40))};
  };
  const auto any_clock = [&rng] {
    VectorClock c(kProcs);
    for (std::size_t i = 0; i < kProcs; ++i) c[i] = rng.below(std::uint64_t{1} << rng.below(40));
    return c;
  };

  for (int step = 0; step < 20'000; ++step) {
    now += rng.below(1u << rng.below(24));
    const auto at = static_cast<ProcessId>(rng.below(kProcs));
    const auto var = static_cast<VarId>(rng.below(kVars));
    RunEvent e;
    e.at = at;
    e.time = now;
    switch (rng.below(11)) {
      case 0:
      case 1: {
        WriteUpdate m;
        const WriteId w = any_write();
        m.sender = w.proc;
        m.write_seq = w.seq;
        m.var = var;
        m.value = any_value();
        m.clock = any_clock();
        e.kind = step % 2 == 0 ? EvKind::kSend : EvKind::kReceipt;
        e.write = w;
        e.var = m.var;
        e.value = m.value;
        e.clock = m.clock;
        if (e.kind == EvKind::kSend) {
          rec.on_send(at, m);
        } else {
          rec.on_receipt(at, m);
        }
        break;
      }
      case 2:
        e.kind = EvKind::kApply;
        e.write = any_write();
        e.delayed = rng.chance(0.5);
        rec.on_apply(at, e.write, e.delayed);
        break;
      case 3:
        e.kind = EvKind::kReturn;
        e.var = var;
        e.value = any_value();
        e.write = any_write();
        rec.on_return(at, e.var, e.value, e.write);
        break;
      case 4:
        e.kind = EvKind::kSkip;
        e.write = any_write();
        e.other = any_write();
        rec.on_skip(at, e.write, e.other);
        break;
      case 5: {
        const Value v = any_value();
        EXPECT_EQ(rec.record_write(at, var, v),
                  want_history.add_write(at, var, v));
        continue;
      }
      case 6: {
        const ReadResult r{any_value(), any_write()};
        rec.record_read(at, var, r);
        want_history.add_read(at, var, r.value, r.writer);
        continue;
      }
      case 7: {
        const Value arg = any_value();
        const Value arg2 = any_value();
        EXPECT_EQ(rec.record_mutation(
                      at, var, static_cast<std::uint8_t>(SpecId::kCasRegister),
                      static_cast<std::uint8_t>(OpCode::kCas), arg, arg2),
                  want_history.add_mutation(at, var, SpecId::kCasRegister,
                                            OpCode::kCas, arg, arg2));
        continue;
      }
      case 8: {
        const Value arg = any_value();
        const Value returned = any_value();
        const WriteId from = any_write();
        std::vector<std::uint64_t> visible(rng.below(kProcs + 1));
        for (auto& c : visible) c = rng.below(1u << rng.below(30));
        rec.record_accessor(at, var, static_cast<std::uint8_t>(SpecId::kSet),
                            static_cast<std::uint8_t>(OpCode::kContains), arg,
                            returned, from, visible);
        want_history.add_accessor(at, var, SpecId::kSet, OpCode::kContains,
                                  arg, returned, from, std::move(visible));
        continue;
      }
      case 9:
        // A replayed event keeps its own order and time; live recording
        // resumes after it.
        e.kind = static_cast<EvKind>(rng.below(5));
        e.order = next_order + rng.below(4);
        e.time = rng.next();
        e.write = any_write();
        e.other = any_write();
        e.var = var;
        e.value = any_value();
        e.delayed = rng.chance(0.5);
        e.clock = any_clock();
        rec.restore_event(e);
        next_order = e.order + 1;
        want.push_back(e);
        continue;
      default:
        expect_same_events(rec.events(), want);
        if (testing::Test::HasFailure()) return;
        continue;
    }
    e.order = next_order++;
    want.push_back(e);
  }
  expect_same_events(rec.events(), want);
  EXPECT_TRUE(std::ranges::equal(rec.history().all_ops(),
                                 want_history.all_ops()));
  EXPECT_GT(rec.log_bytes(), RunRecorder::kChunkBytes);  // several chunks
  // The same records, re-read chunk by chunk through the cursor.
  std::vector<std::uint8_t> log;
  for (std::uint64_t at = 0; at < rec.log_bytes();) {
    at = rec.copy_chunk(at, log);
  }
  EXPECT_EQ(log.size(), rec.log_bytes());
  RunRecorder copy(kProcs, kVars);
  ByteReader r(log);
  LogRecord record;
  while (r.remaining() > 0) {
    ASSERT_TRUE(decode_log_record(r, record));
    ASSERT_NE(record.kind, LogRecord::Kind::kIncarnation);
    if (record.kind == LogRecord::Kind::kOp) {
      copy.restore_op(record.op);
    } else {
      copy.restore_event(record.event);
    }
  }
  expect_same_events(copy.events(), want);
  EXPECT_TRUE(std::ranges::equal(copy.history().all_ops(),
                                 want_history.all_ops()));
}

/// The Ĥ₁ simulator run's log costs at most 32 B per event (history records
/// included): the budget that keeps the log far below a RunEvent each.
TEST(RunRecorder, H1LogStaysWithin32BytesPerEvent) {
  const ConstantLatency latency(sim_us(10));
  SimRunConfig config;
  config.n_procs = 3;
  config.n_vars = 2;
  config.latency = &latency;
  const auto sim = run_sim(config, paper::make_h1_scripts());
  ASSERT_TRUE(sim.settled);
  const RunRecorder& rec = *sim.recorder;
  ASSERT_FALSE(rec.events().empty());
  EXPECT_LE(rec.log_bytes(), 32 * rec.events().size())
      << rec.log_bytes() << " B for " << rec.events().size() << " events";
}

TEST(EventToString, PaperNotation) {
  RunEvent e;
  e.at = 2;
  e.kind = EvKind::kApply;
  e.write = WriteId{1, 1};
  EXPECT_EQ(event_to_string(e), "apply_3(w2^1)");

  e.kind = EvKind::kReturn;
  e.var = 1;
  e.value = 7;
  EXPECT_EQ(event_to_string(e), "return_3(x2,7)");

  e.kind = EvKind::kSkip;
  e.write = WriteId{0, 2};
  e.other = WriteId{0, 4};
  EXPECT_EQ(event_to_string(e), "skip_3(w1^2 by w1^4)");
}

TEST(SequenceStr, JoinsWithProcessOrderSymbol) {
  RunRecorder rec(3, 1);
  WriteUpdate m;
  m.sender = 0;
  m.write_seq = 1;
  m.clock = VectorClock(3);
  rec.on_receipt(2, m);
  rec.on_apply(2, WriteId{0, 1}, false);
  const std::string seq = rec.sequence_str(2);
  EXPECT_EQ(seq, "receipt_3(w1^1) <_3 apply_3(w1^1)");
}

// ------------------------------------------------------------ renderers ----

TEST(TraceRender, SequencesListEveryProcess) {
  DirectCluster c(ProtocolKind::kOptP, 3, 2);
  c.write(0, 0, 1);
  c.deliver_all();
  const std::string out = render_sequences(c.recorder());
  EXPECT_NE(out.find("p1: send_1(w1^1)"), std::string::npos);
  EXPECT_NE(out.find("p2: receipt_2(w1^1)"), std::string::npos);
  EXPECT_NE(out.find("p3: "), std::string::npos);
}

TEST(TraceRender, SpaceTimeShowsClocksAndDelays) {
  DirectCluster c(ProtocolKind::kOptP, 2, 1);
  c.write(0, 0, 1);
  c.write(0, 0, 2);
  auto held = c.intercept_to(1);
  c.inject(std::move(held[1]));  // out of order -> delay
  c.inject(std::move(held[0]));
  const std::string out = render_space_time(c.recorder());
  EXPECT_NE(out.find("[1,0]"), std::string::npos);   // send clock annotation
  EXPECT_NE(out.find("(was delayed)"), std::string::npos);
  EXPECT_NE(out.find("t(us)"), std::string::npos);
}

TEST(TraceRender, OptionsSuppressSections) {
  DirectCluster c(ProtocolKind::kOptP, 2, 1);
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  TraceRenderOptions opts;
  opts.show_clocks = false;
  opts.show_returns = false;
  opts.show_time = false;
  const std::string out = render_space_time(c.recorder(), opts);
  EXPECT_EQ(out.find("[1,0]"), std::string::npos);
  EXPECT_EQ(out.find("return"), std::string::npos);
  EXPECT_EQ(out.find("t(us)"), std::string::npos);
  EXPECT_NE(out.find("apply_2(w1^1)"), std::string::npos);
}

// ------------------------------------------------------------- registry ----

TEST(Registry, NamesRoundTrip) {
  for (const auto kind : all_protocol_kinds()) {
    const auto parsed = parse_protocol(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_protocol("nope").has_value());
  EXPECT_FALSE(parse_protocol("").has_value());
}

TEST(Registry, AllKindsAreConstructibleAndNamed) {
  for (const auto kind : all_protocol_kinds()) {
    DirectCluster c(kind, 2, 2);
    EXPECT_EQ(c.node(0).name(), to_string(kind));
    EXPECT_EQ(c.node(0).n_procs(), 2u);
    EXPECT_EQ(c.node(0).n_vars(), 2u);
  }
}

TEST(Registry, ClassPSubsetIsCorrect) {
  const auto& class_p = class_p_protocol_kinds();
  ASSERT_EQ(class_p.size(), 2u);
  EXPECT_EQ(class_p[0], ProtocolKind::kOptP);
  EXPECT_EQ(class_p[1], ProtocolKind::kAnbkh);
}

}  // namespace
}  // namespace dsm
