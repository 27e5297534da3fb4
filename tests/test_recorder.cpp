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

void expect_same_events(const std::vector<RunEvent>& got,
                        const std::vector<RunEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i])
        << "event " << i << ": " << event_to_string(got[i]) << " vs "
        << event_to_string(want[i]);
  }
}

/// The run-log codec written out byte by byte — one push_back per varint
/// byte, LEB128 and zig-zag by hand — with the recorder's chunking rule: the
/// reference the recorder's raw log bytes and chunk ends must match.
struct ReferenceLog {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> chunk_ends;  ///< log offset after each chunk
  std::size_t chunk_used = 0;
  std::size_t chunk_capacity = 0;
  std::size_t record_start = 0;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u64(std::uint64_t v) {
    while (v >= 0x80) {
      bytes.push_back(static_cast<std::uint8_t>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
  }
  void i64(std::int64_t v) {
    u64((static_cast<std::uint64_t>(v) << 1) ^
        (v < 0 ? ~std::uint64_t{0} : std::uint64_t{0}));
  }
  void u64_vec(std::span<const std::uint64_t> v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }

  void begin() { record_start = bytes.size(); }
  /// A record opens a new chunk when it does not fit the open one's rest.
  void end() {
    const std::size_t size = bytes.size() - record_start;
    if (chunk_ends.empty() || chunk_capacity - chunk_used < size) {
      chunk_ends.push_back(bytes.size());
      chunk_capacity = std::max(RunRecorder::kChunkBytes, size);
      chunk_used = size;
    } else {
      chunk_ends.back() = bytes.size();
      chunk_used += size;
    }
  }

  void op(const Operation& op) {
    begin();
    const bool typed = op.spec != SpecId::kRegister;
    u8(typed ? 4 : 1);
    u8(op.is_write() ? 1 : 0);
    u64(op.proc);
    u64(op.var);
    i64(op.value);
    u64(op.write_id.proc);
    u64(op.write_id.seq);
    if (typed) {
      u8(static_cast<std::uint8_t>(op.spec));
      u8(static_cast<std::uint8_t>(op.opcode));
      i64(op.arg2);
      u64_vec(op.visible);
    }
    end();
  }
  void event(const RunEvent& e) {
    begin();
    u8(2);
    u64(e.order);
    u64(e.time);
    u64(e.at);
    u8(static_cast<std::uint8_t>(e.kind));
    u64(e.write.proc);
    u64(e.write.seq);
    u64(e.other.proc);
    u64(e.other.seq);
    u64(e.var);
    i64(e.value);
    u8(e.delayed ? 1 : 0);
    u64_vec(e.clock.components());
    end();
  }
  void incarnation(std::uint64_t boot) {
    begin();
    u8(3);
    u64(boot);
    end();
  }
};

/// The recorder's log, chunk by chunk through the cursor.
std::vector<std::uint8_t> whole_log(const RunRecorder& rec,
                                    std::vector<std::uint64_t>* chunk_ends) {
  std::vector<std::uint8_t> log;
  for (std::uint64_t at = 0; at < rec.log_bytes();) {
    at = rec.copy_chunk(at, log);
    if (chunk_ends != nullptr) chunk_ends->push_back(at);
  }
  return log;
}

/// The encoded log against a plain vector and a byte-by-byte reference
/// encoder: every event kind, register and typed history records,
/// incarnation marks, restores with gaps in `order`, values and clocks of
/// every varint width (clocks of up to 64 components, records past any
/// small fixed bound, and one record of each kind at its widest), and
/// events() read between appends so the view is filled incrementally across
/// chunk boundaries.
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
    VectorClock c(rng.below(65));
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = rng.next() >> rng.below(64);
    return c;
  };
  ReferenceLog ref;
  std::vector<std::uint8_t> seen;  ///< the log as checked so far

  for (int step = 0; step < 20'000; ++step) {
    now += rng.below(1u << rng.below(24));
    const auto at = static_cast<ProcessId>(rng.below(kProcs));
    const auto var = static_cast<VarId>(rng.below(kVars));
    RunEvent e;
    e.at = at;
    e.time = now;
    switch (rng.below(12)) {
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
        ref.op(want_history.all_ops().back());
        continue;
      }
      case 6: {
        const ReadResult r{any_value(), any_write()};
        rec.record_read(at, var, r);
        want_history.add_read(at, var, r.value, r.writer);
        ref.op(want_history.all_ops().back());
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
        ref.op(want_history.all_ops().back());
        continue;
      }
      case 8: {
        const Value arg = any_value();
        const Value returned = any_value();
        const WriteId from = any_write();
        std::vector<std::uint64_t> visible(rng.below(65));
        for (auto& c : visible) c = rng.next() >> rng.below(64);
        rec.record_accessor(at, var, static_cast<std::uint8_t>(SpecId::kSet),
                            static_cast<std::uint8_t>(OpCode::kContains), arg,
                            returned, from, visible);
        want_history.add_accessor(at, var, SpecId::kSet, OpCode::kContains,
                                  arg, returned, from, std::move(visible));
        ref.op(want_history.all_ops().back());
        continue;
      }
      case 10: {
        const std::uint64_t boot = rng.next() >> rng.below(64);
        rec.record_incarnation(boot);
        ref.incarnation(boot);
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
        ref.event(e);
        continue;
      default: {
        // The bytes appended since the last check are the reference's; a
        // mismatch stops here, before events() would decode them.
        const std::size_t from = seen.size();
        while (seen.size() < rec.log_bytes()) rec.copy_chunk(seen.size(), seen);
        ASSERT_EQ(seen.size(), ref.bytes.size());
        ASSERT_TRUE(std::equal(seen.begin() + static_cast<std::ptrdiff_t>(from),
                               seen.end(),
                               ref.bytes.begin() + static_cast<std::ptrdiff_t>(from)))
            << "log bytes differ from the reference after offset " << from;
        expect_same_events(rec.events(), want);
        if (testing::Test::HasFailure()) return;
        continue;
      }
    }
    e.order = next_order++;
    want.push_back(e);
    ref.event(e);
  }
  // One record of each kind at its widest: every varint at its full width,
  // 64 clock components and 64 visible counts.
  {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    constexpr ProcessId kMaxProc = ~ProcessId{0};
    RunEvent e;
    e.order = kMax - 1;
    e.time = kMax;
    e.at = kMaxProc;
    e.kind = EvKind::kSkip;
    e.write = WriteId{kMaxProc, kMax};
    e.other = WriteId{kMaxProc, kMax};
    e.var = ~VarId{0};
    e.value = INT64_MIN;
    e.delayed = true;
    e.clock = VectorClock(std::vector<std::uint64_t>(64, kMax));
    rec.restore_event(e);
    want.push_back(e);
    ref.event(e);
    std::vector<std::uint64_t> visible(64, kMax);
    rec.record_accessor(kProcs - 1, kVars - 1,
                        static_cast<std::uint8_t>(SpecId::kSet),
                        static_cast<std::uint8_t>(OpCode::kContains),
                        INT64_MIN, INT64_MIN, WriteId{kMaxProc, kMax},
                        visible);
    want_history.add_accessor(kProcs - 1, kVars - 1, SpecId::kSet,
                              OpCode::kContains, INT64_MIN, INT64_MIN,
                              WriteId{kMaxProc, kMax}, std::move(visible));
    ref.op(want_history.all_ops().back());
    rec.record_incarnation(kMax);
    ref.incarnation(kMax);
  }
  expect_same_events(rec.events(), want);
  EXPECT_TRUE(std::ranges::equal(rec.history().all_ops(),
                                 want_history.all_ops()));
  EXPECT_GT(rec.log_bytes(), RunRecorder::kChunkBytes);  // several chunks
  // The same records, re-read chunk by chunk through the cursor: the bytes
  // and the chunk ends are the reference encoder's.
  std::vector<std::uint64_t> chunk_ends;
  const std::vector<std::uint8_t> log = whole_log(rec, &chunk_ends);
  EXPECT_EQ(log.size(), rec.log_bytes());
  ASSERT_EQ(log.size(), ref.bytes.size());
  EXPECT_TRUE(log == ref.bytes) << "first difference at byte "
                                << std::ranges::mismatch(log, ref.bytes).in1 -
                                       log.begin();
  EXPECT_EQ(chunk_ends, ref.chunk_ends);
  RunRecorder copy(kProcs, kVars);
  ByteReader r(log);
  LogRecord record;
  while (r.remaining() > 0) {
    ASSERT_TRUE(decode_log_record(r, record));
    switch (record.kind) {
      case LogRecord::Kind::kOp: copy.restore_op(record.op); break;
      case LogRecord::Kind::kEvent: copy.restore_event(record.event); break;
      case LogRecord::Kind::kIncarnation:
        copy.record_incarnation(record.boot);
        break;
    }
  }
  expect_same_events(copy.events(), want);
  EXPECT_TRUE(std::ranges::equal(copy.history().all_ops(),
                                 want_history.all_ops()));
  // Re-recording the decoded records reproduces the log byte for byte.
  EXPECT_TRUE(whole_log(copy, nullptr) == log);
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
