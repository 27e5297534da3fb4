// Tests for the real-socket deployment tier (dsm/net): frame assembly,
// Hello/control codecs, TcpTransport pairs on one NetLoop, ARQ-over-TCP
// exactly-once under forced disconnects, the causal log merger, and
// fork-based ProcessCluster runs checked against the simulator.

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/codec/codec.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/history/co_relation.h"
#include "dsm/net/control.h"
#include "dsm/net/frame.h"
#include "dsm/net/merge.h"
#include "dsm/net/process_cluster.h"
#include "dsm/net/process_node.h"
#include "dsm/net/socket.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/sim/latency.h"
#include "dsm/sim/reliable.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

// ------------------------------------------------------------ utilities ---

/// Drive `loop` until `pred()` holds or `timeout_ms` of wall time passes.
template <typename Pred>
bool pump(NetLoop& loop, Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    loop.poll_once(sim_ms(2));
  }
  return true;
}

struct CapturingSink final : MessageSink {
  std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> got;
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    got.emplace_back(from,
                     std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
};

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

/// A frame view's body as a buffer the assertions can compare.
std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> body) {
  return {body.begin(), body.end()};
}

// ------------------------------------------------------- FrameAssembler ---

TEST(Frame, RoundTripSingleFrame) {
  const auto body = bytes_of("hello frame");
  const auto wire = encode_frame(FrameKind::kData, body);
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  const auto f = rx.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, static_cast<std::uint8_t>(FrameKind::kData));
  EXPECT_EQ(bytes_of(f->body), body);
  EXPECT_FALSE(rx.next().has_value());
  EXPECT_FALSE(rx.poisoned());
}

TEST(Frame, ByteAtATimeFeedReassembles) {
  const auto body = bytes_of("dribbled in one byte at a time");
  const auto wire = encode_frame(FrameKind::kControl, body);
  FrameAssembler rx;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_TRUE(rx.feed(std::span(&wire[i], 1)));
    EXPECT_FALSE(rx.next().has_value()) << "frame complete too early at " << i;
  }
  ASSERT_TRUE(rx.feed(std::span(&wire.back(), 1)));
  const auto f = rx.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(bytes_of(f->body), body);
}

TEST(Frame, MultipleFramesPerFeed) {
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 5; ++i) {
    const auto one =
        encode_frame(FrameKind::kData, bytes_of("msg" + std::to_string(i)));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  for (int i = 0; i < 5; ++i) {
    const auto f = rx.next();
    ASSERT_TRUE(f.has_value()) << i;
    EXPECT_EQ(bytes_of(f->body), bytes_of("msg" + std::to_string(i)));
  }
  EXPECT_FALSE(rx.next().has_value());
}

TEST(Frame, EmptyLengthPoisons) {
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(std::vector<std::uint8_t>{0, 0, 0, 0, 42}));
  EXPECT_FALSE(rx.next().has_value());
  EXPECT_TRUE(rx.poisoned());
  EXPECT_EQ(rx.error(), FrameError::kEmpty);
  // A poisoned assembler stays dead: feeds are refused.
  EXPECT_FALSE(rx.feed(encode_frame(FrameKind::kData, bytes_of("x"))));
  EXPECT_FALSE(rx.next().has_value());
}

TEST(Frame, OversizeLengthPoisons) {
  const auto huge = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  std::vector<std::uint8_t> wire = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF)};
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  EXPECT_FALSE(rx.next().has_value());
  EXPECT_TRUE(rx.poisoned());
  EXPECT_EQ(rx.error(), FrameError::kOversize);
}

TEST(Frame, TakeResidualReturnsUnconsumedBytes) {
  const auto first = encode_frame(FrameKind::kHello, bytes_of("hi"));
  const auto tail = bytes_of("pipelined leftovers");
  auto wire = first;
  wire.insert(wire.end(), tail.begin(), tail.end());
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  ASSERT_TRUE(rx.next().has_value());
  EXPECT_EQ(rx.take_residual(), tail);
  // After take_residual the assembler is empty.
  EXPECT_FALSE(rx.next().has_value());
}

TEST(Frame, RandomChunkingNeverChangesTheFrameStream) {
  Rng rng(0x5EED);
  for (int iter = 0; iter < 50; ++iter) {
    // Build a random frame stream, then feed it in random-size chunks.
    std::vector<std::vector<std::uint8_t>> bodies;
    std::vector<std::uint8_t> wire;
    const auto n_frames = rng.below(8) + 1;
    for (std::uint64_t i = 0; i < n_frames; ++i) {
      std::vector<std::uint8_t> body(rng.below(300) + 1);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
      const auto one = encode_frame(FrameKind::kData, body);
      wire.insert(wire.end(), one.begin(), one.end());
      bodies.push_back(std::move(body));
    }
    FrameAssembler rx;
    std::size_t off = 0;
    std::size_t decoded = 0;
    while (off < wire.size()) {
      const auto n = std::min<std::size_t>(rng.below(64) + 1,
                                           wire.size() - off);
      ASSERT_TRUE(rx.feed(std::span(wire.data() + off, n)));
      off += n;
      while (const auto f = rx.next()) {
        ASSERT_LT(decoded, bodies.size());
        EXPECT_EQ(bytes_of(f->body), bodies[decoded]);
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, bodies.size());
    EXPECT_FALSE(rx.poisoned());
  }
}

TEST(Frame, CorruptedHeaderNeverCrashesAssembler) {
  Rng rng(0xBAD5EED);
  const auto clean = encode_frame(FrameKind::kData, bytes_of("payload"));
  for (int iter = 0; iter < 2'000; ++iter) {
    auto wire = clean;
    const auto flips = rng.below(4) + 1;
    for (std::uint64_t i = 0; i < flips; ++i) {
      wire[rng.below(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    FrameAssembler rx;
    (void)rx.feed(wire);
    // Drain whatever it makes of the bytes; must terminate and never crash.
    while (rx.next().has_value()) {
    }
  }
}

TEST(Frame, PayloadCorruptionIsTheUpperLayersProblem) {
  // Framing carries no payload checksum: flipping body bytes yields a frame
  // of the same length whose body differs — the assembler must deliver it
  // un-poisoned.  Rejecting garbage is the ARQ's defensive decode's job
  // (FaultyTransport's corrupt fault relies on exactly that split).
  const auto body = bytes_of("these bytes will be mangled");
  auto wire = encode_frame(FrameKind::kData, body);
  for (std::size_t i = 5; i < wire.size(); ++i) wire[i] ^= 0xA5;
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  const auto f = rx.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->body.size(), body.size());
  EXPECT_NE(bytes_of(f->body), body);
  EXPECT_FALSE(rx.poisoned());
}

TEST(Frame, PoisonMidStreamKeepsEarlierFramesAndRefusesTheRest) {
  // Adversarial chunking across a poison boundary: N good frames, then a
  // zero-length header, then more valid-looking bytes — delivered one byte
  // at a time.  Every pre-poison frame decodes; after the poison, feeds are
  // refused and next() never produces another frame (no over-read).
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    const auto one =
        encode_frame(FrameKind::kData, bytes_of("ok" + std::to_string(i)));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  const std::vector<std::uint8_t> zero_len = {0, 0, 0, 0, 42};
  wire.insert(wire.end(), zero_len.begin(), zero_len.end());
  const auto trailing = encode_frame(FrameKind::kData, bytes_of("never seen"));
  wire.insert(wire.end(), trailing.begin(), trailing.end());

  FrameAssembler rx;
  std::size_t decoded = 0;
  bool refused = false;
  for (const std::uint8_t b : wire) {
    if (!rx.feed(std::span(&b, 1))) {
      refused = true;
      break;
    }
    while (rx.next().has_value()) ++decoded;
  }
  EXPECT_EQ(decoded, 3u);
  EXPECT_TRUE(refused);
  EXPECT_TRUE(rx.poisoned());
  EXPECT_EQ(rx.error(), FrameError::kEmpty);
  EXPECT_FALSE(rx.next().has_value());
}

TEST(Frame, RandomGarbageStreamsTerminate) {
  // Pure adversarial input: random bytes in random chunks must never hang,
  // crash, or hand back more frames than the bytes could possibly contain.
  Rng rng(0xFEED5);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> wire(rng.below(2'000) + 1);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.below(256));
    FrameAssembler rx;
    std::size_t off = 0;
    std::size_t frames = 0;
    while (off < wire.size()) {
      const auto n =
          std::min<std::size_t>(rng.below(97) + 1, wire.size() - off);
      if (!rx.feed(std::span(wire.data() + off, n))) break;
      off += n;
      while (rx.next().has_value()) ++frames;
    }
    // Each frame costs at least a 4-byte header + 1 body byte.
    EXPECT_LE(frames, wire.size() / 5);
  }
}

/// Every frame `wire` yields when fed in two parts split at `split`, as
/// (kind, body copy) pairs, each copied before the next call to next().
std::vector<std::pair<std::uint8_t, std::vector<std::uint8_t>>> frames_split_at(
    FrameAssembler& rx, std::span<const std::uint8_t> wire, std::size_t split) {
  std::vector<std::pair<std::uint8_t, std::vector<std::uint8_t>>> out;
  for (const auto part : {wire.first(split), wire.subspan(split)}) {
    if (!rx.feed(part)) break;
    while (const auto f = rx.next()) {
      out.emplace_back(f->kind, bytes_of(f->body));
    }
  }
  return out;
}

TEST(Frame, ViewsCarryTheSameKindsAndBodiesAtEverySplitPoint) {
  const std::vector<std::pair<FrameKind, std::vector<std::uint8_t>>> sent = {
      {FrameKind::kHello, bytes_of("hi")},
      {FrameKind::kData, {}},
      {FrameKind::kData, bytes_of("a data frame")},
      {FrameKind::kControl, std::vector<std::uint8_t>(300, 0xC3)},
      {FrameKind::kData, bytes_of("z")},
  };
  std::vector<std::uint8_t> wire;
  for (const auto& [kind, body] : sent) {
    const auto one = encode_frame(kind, body);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameAssembler rx;
    const auto got = frames_split_at(rx, wire, split);
    ASSERT_EQ(got.size(), sent.size()) << "split " << split;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].first, static_cast<std::uint8_t>(sent[i].first));
      EXPECT_EQ(got[i].second, sent[i].second) << "split " << split;
    }
    EXPECT_FALSE(rx.poisoned());
  }
}

TEST(Frame, PoisonYieldsTheSameFramesAtEverySplitPoint) {
  auto wire = encode_frame(FrameKind::kData, bytes_of("ok"));
  const std::vector<std::uint8_t> zero_len = {0, 0, 0, 0, 42};
  wire.insert(wire.end(), zero_len.begin(), zero_len.end());
  const auto trailing = encode_frame(FrameKind::kData, bytes_of("never seen"));
  wire.insert(wire.end(), trailing.begin(), trailing.end());
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    FrameAssembler rx;
    const auto got = frames_split_at(rx, wire, split);
    ASSERT_EQ(got.size(), 1u) << "split " << split;
    EXPECT_EQ(got[0].second, bytes_of("ok"));
    EXPECT_TRUE(rx.poisoned());
    EXPECT_EQ(rx.error(), FrameError::kEmpty);
    EXPECT_FALSE(rx.next().has_value());
  }
}

TEST(Frame, ResidualAfterAControlHelloAtEverySplitPoint) {
  // A control client pipelines its first request behind the Hello: once the
  // Hello has been popped, the residual is exactly the bytes fed after it.
  const auto hello = encode_hello_frame(HelloRole::kControl, 0, 3);
  const auto request = encode_frame(FrameKind::kControl, bytes_of("request"));
  std::vector<std::uint8_t> wire = hello;
  wire.insert(wire.end(), request.begin(), request.end());
  for (std::size_t split = hello.size(); split <= wire.size(); ++split) {
    FrameAssembler rx;
    ASSERT_TRUE(rx.feed(std::span(wire).first(split)));
    const auto f = rx.next();
    ASSERT_TRUE(f.has_value()) << "split " << split;
    EXPECT_EQ(f->kind, static_cast<std::uint8_t>(FrameKind::kHello));
    EXPECT_EQ(bytes_of(f->body),
              std::vector<std::uint8_t>(hello.begin() + 5, hello.end()));
    const auto residual = std::span(wire).subspan(hello.size(),
                                                  split - hello.size());
    EXPECT_EQ(rx.take_residual(), bytes_of(residual));
    EXPECT_FALSE(rx.next().has_value());
  }
}

// ----------------------------------------------------------------- hello --

TEST(Hello, EncodedHelloParsesAsHelloFrame) {
  const auto wire = encode_hello_frame(HelloRole::kPeer, /*sender=*/2,
                                       /*n_procs=*/3);
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(wire));
  const auto f = rx.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, static_cast<std::uint8_t>(FrameKind::kHello));
  // Magic is the first field of the body.
  ByteReader r(f->body);
  EXPECT_EQ(r.u32().value_or(0), kHelloMagic);
  EXPECT_EQ(r.u8().value_or(0xFF), kNetVersion);
}

// -------------------------------------------------------- control codec ---

ControlMessage roundtrip(const ControlMessage& m) {
  const auto decoded = decode_control(encode_control(m));
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(ControlMessage{});
}

TEST(Control, RunRoundTripCarriesScriptAndScale) {
  ControlMessage m;
  m.op = ControlOp::kRun;
  m.time_scale = 1000;
  m.script = {write_step(sim_ms(2), 0, 7), read_step(sim_us(10), 1),
              read_until_step(0, 0, 7, sim_us(25))};
  const auto d = roundtrip(m);
  EXPECT_EQ(d.op, ControlOp::kRun);
  EXPECT_EQ(d.time_scale, 1000u);
  ASSERT_EQ(d.script.size(), m.script.size());
  for (std::size_t i = 0; i < m.script.size(); ++i) {
    EXPECT_EQ(d.script[i].delay, m.script[i].delay);
    EXPECT_EQ(d.script[i].kind, m.script[i].kind);
    EXPECT_EQ(d.script[i].var, m.script[i].var);
    EXPECT_EQ(d.script[i].value, m.script[i].value);
    EXPECT_EQ(d.script[i].poll_every, m.script[i].poll_every);
    EXPECT_EQ(d.script[i].timeout, m.script[i].timeout);
  }
}

TEST(Control, EveryOpRoundTrips) {
  for (const auto op :
       {ControlOp::kPing, ControlOp::kQueryDone, ControlOp::kFetchLog,
        ControlOp::kFetchStats, ControlOp::kShutdown,
        ControlOp::kQueryQuiescent, ControlOp::kAck}) {
    ControlMessage m;
    m.op = op;
    EXPECT_EQ(roundtrip(m).op, op);
  }
  // The retired in-process kill and restart codes decode to nothing.
  for (const std::vector<std::uint8_t>& retired : {std::vector<std::uint8_t>{7},
                                                   std::vector<std::uint8_t>{8}}) {
    EXPECT_FALSE(decode_control(retired).has_value())
        << "op byte " << int{retired[0]};
  }
  ControlMessage kill;
  kill.op = ControlOp::kKillConn;
  kill.peer = 2;
  EXPECT_EQ(roundtrip(kill).peer, 2u);
  ControlMessage pong;
  pong.op = ControlOp::kPong;
  pong.flag = true;
  EXPECT_TRUE(roundtrip(pong).flag);
  ControlMessage done;
  done.op = ControlOp::kDoneReply;
  done.flag = false;
  EXPECT_FALSE(roundtrip(done).flag);
  ControlMessage fetch;
  fetch.op = ControlOp::kFetchLog;
  fetch.cursor = 70000;
  EXPECT_EQ(roundtrip(fetch).cursor, 70000u);
  ControlMessage log;
  log.op = ControlOp::kLogReply;
  log.cursor = 65536;
  log.flag = true;
  log.bytes = {0x03, 0x02, 0x00, 0xff};
  const auto got = roundtrip(log);
  EXPECT_EQ(got.cursor, log.cursor);
  EXPECT_TRUE(got.flag);
  EXPECT_EQ(got.bytes, log.bytes);
  ControlMessage err;
  err.op = ControlOp::kError;
  err.text = "boom";
  EXPECT_EQ(roundtrip(err).text, "boom");
}

/// Every counter of every layer crosses the wire: each field gets its own
/// value, and each must come back.  The walk covers all of NodeNetStats, so
/// a field missing from a table would fail the size check instead.
TEST(Control, StatsRoundTripAllCounters) {
  ControlMessage m;
  m.op = ControlOp::kStatsReply;
  std::uint64_t next = 1000;
  std::size_t fields = 0;
  for_each_stat(m.stats, [&](const char*, std::uint64_t& v) {
    v = next++;
    ++fields;
  });
  EXPECT_EQ(fields * sizeof(std::uint64_t), sizeof(NodeNetStats));
  const auto d = roundtrip(m);
  std::vector<std::pair<std::string, std::uint64_t>> sent;
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for_each_stat(m.stats, [&](const char* name, std::uint64_t v) {
    sent.emplace_back(name, v);
  });
  for_each_stat(d.stats, [&](const char* name, std::uint64_t v) {
    got.emplace_back(name, v);
  });
  EXPECT_EQ(got, sent);
  EXPECT_EQ(d.stats.tcp.writev_calls, m.stats.tcp.writev_calls);
  EXPECT_NE(d.stats.tcp.writev_calls, 0u);
}

/// The sum across nodes is field-wise over every part.
TEST(Control, StatsSumIsFieldWise) {
  NodeNetStats a;
  NodeNetStats b;
  std::uint64_t next = 1;
  for_each_stat(a, [&](const char*, std::uint64_t& v) { v = next++; });
  for_each_stat(b, [&](const char*, std::uint64_t& v) { v = 100 * next++; });
  NodeNetStats sum = a;
  sum += b;
  std::vector<std::uint64_t> want;
  std::vector<std::uint64_t> have;
  for_each_stat(a, [&](const char*, std::uint64_t v) { want.push_back(v); });
  std::size_t i = 0;
  for_each_stat(b, [&](const char*, std::uint64_t v) { want[i++] += v; });
  for_each_stat(sum, [&](const char*, std::uint64_t v) { have.push_back(v); });
  EXPECT_EQ(have, want);
}

TEST(Control, MalformedInputsRejected) {
  EXPECT_FALSE(decode_control({}).has_value());
  // Unknown op.
  EXPECT_FALSE(decode_control(std::vector<std::uint8_t>{0x2A}).has_value());
  // Trailing garbage behind a valid message.
  ControlMessage ping;
  ping.op = ControlOp::kPing;
  auto bytes = encode_control(ping);
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_control(bytes).has_value());
  // Truncation anywhere in a kRun message.
  ControlMessage run;
  run.op = ControlOp::kRun;
  run.script = {write_step(sim_ms(1), 0, 1), read_step(0, 1)};
  const auto full = encode_control(run);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_control(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(Control, OversizedReplyBecomesErrorNamingTheCap) {
  // A kLogReply whose records alone exceed the 16 MiB frame cap: the node
  // answers kError instead of aborting, so the driver's call fails like any
  // other error.  (A node's chunks are far below the cap.)
  ControlMessage log;
  log.op = ControlOp::kLogReply;
  log.bytes.assign(kMaxFrameBytes + 1, 0x5a);
  FrameAssembler rx;
  ASSERT_TRUE(rx.feed(encode_control_reply(log)));
  const auto frame = rx.next();
  ASSERT_TRUE(frame.has_value());
  const auto rep = decode_control(frame->body);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->op, ControlOp::kError);
  EXPECT_NE(rep->text.find(std::to_string(kMaxFrameBytes)), std::string::npos)
      << rep->text;
  // A reply that fits goes out unchanged.
  log.bytes = {1, 2, 3};
  EXPECT_EQ(encode_control_reply(log),
            encode_frame(FrameKind::kControl, encode_control(log)));
}

TEST(Control, CorruptionFuzzNeverCrashes) {
  Rng rng(0xC7A1);
  ControlMessage run;
  run.op = ControlOp::kRun;
  run.time_scale = 50;
  for (int i = 0; i < 20; ++i) {
    run.script.push_back(write_step(sim_ms(1), static_cast<VarId>(i % 3), i));
  }
  const auto clean = encode_control(run);
  for (int iter = 0; iter < 2'000; ++iter) {
    auto bytes = clean;
    switch (rng.below(3)) {
      case 0:
        for (std::uint64_t i = 0, n = rng.below(6) + 1; i < n; ++i) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:
        bytes.resize(rng.below(bytes.size()));
        break;
      default:
        bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        break;
    }
    const auto decoded = decode_control(bytes);
    if (decoded) {
      // Survivors must re-encode to something decodable.
      EXPECT_TRUE(decode_control(encode_control(*decoded)).has_value());
    }
  }
}

// --------------------------------------------------------------- NetLoop ---

TEST(NetLoop, SubMillisecondTimersSleepMicroseconds) {
  // 20 chained timers on an idle loop, each due 100 µs of wall time after
  // the previous one fired.  A loop that rounds each sub-ms wait up to a
  // 1 ms poll() takes at least 20 ms on every attempt; the best of a few
  // attempts keeps a busy test host from failing a µs-precise loop.
  auto chain_of_20 = [] {
    NetLoop loop;
    int fired = 0;
    std::function<void()> tick = [&] {
      if (++fired < 20) {
        loop.queue().schedule_at(loop.wall_now() + sim_us(100), tick);
      }
    };
    loop.queue().schedule_at(loop.wall_now() + sim_us(100), tick);
    const auto start = std::chrono::steady_clock::now();
    while (fired < 20) loop.poll_once(sim_ms(50));
    return std::chrono::steady_clock::now() - start;
  };
  auto best = chain_of_20();
  for (int attempt = 1; attempt < 5 && best >= std::chrono::milliseconds(10);
       ++attempt) {
    best = std::min(best, chain_of_20());
  }
  EXPECT_LT(best, std::chrono::milliseconds(10));
}

TEST(NetLoop, ReadyAckIsReadBeforeAnOverdueRtoFires) {
  // A stall longer than the RTO: the loop wakes with the ACK that retires
  // the entry already in its pipe and the RTO timer overdue.  The loop reads
  // first, so the timer finds the entry retired and resends nothing.
  NetLoop loop;
  struct Wire final : DatagramTransport {
    void attach(ProcessId, MessageSink&) override {}
    void send(ProcessId, ProcessId, Payload) override { ++frames; }
    [[nodiscard]] std::size_t n_procs() const override { return 2; }
    std::size_t frames = 0;
  } wire;
  struct Upper final : MessageSink {
    void deliver(ProcessId, std::span<const std::uint8_t>) override {}
  } upper;
  const ReliableConfig cfg = net_reliable_defaults();
  ReliableNode node(loop.queue(), wire, 0, upper, cfg);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  loop.watch(fds[0], [&](NetLoop::Ready) {
    std::uint8_t buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) node.deliver(1, {buf, static_cast<std::size_t>(n)});
  });
  bool stall = false;
  loop.add_tick_hook([&] {
    if (!stall) return;
    stall = false;
    // Well past the initial RTO plus its jitter (at most a quarter of it).
    std::this_thread::sleep_for(std::chrono::microseconds(2 * cfg.rto));
  });
  loop.poll_once(0);  // bring the loop's clock up to the wall

  node.send(1, make_payload({7}));  // seq 1, its RTO timer armed
  const std::uint8_t ack[] = {0x01, 1};
  ASSERT_EQ(::write(fds[1], ack, sizeof ack), 2);
  stall = true;
  loop.poll_once(sim_ms(50));  // stalls in its pre-poll edge, wakes late

  EXPECT_FALSE(stall);
  EXPECT_TRUE(node.quiescent());
  EXPECT_EQ(node.stats().retransmissions, 0u);
  EXPECT_EQ(wire.frames, 1u);
  // The ACK's RTT sample ends at the overdue timer's due time, rto plus its
  // jitter (at most a quarter of rto), not at the wake 2·rto or more after
  // the send.  A first sample r sets the RTO to r + 4·(r/2) = 3r.
  EXPECT_EQ(node.stats().rtt_samples, 1u);
  EXPECT_GE(node.current_rto(1), 3 * cfg.rto);
  EXPECT_LE(node.current_rto(1), 3 * cfg.rto + 3 * cfg.rto / 4);
  loop.unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetLoop, CallbackSeesTheTimeTheLoopWoke) {
  // After an idle sleep of at least 2 ms, a callback's clock reads no
  // earlier than the wall time at which the peer wrote.
  NetLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<SimTime> wrote_at{0};
  bool seen = false;
  SimTime seen_at = 0;
  loop.watch(fds[0], [&](NetLoop::Ready) {
    char c = 0;
    EXPECT_EQ(::read(fds[0], &c, 1), 1);
    seen_at = loop.queue().now();
    seen = true;
  });
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    wrote_at = loop.wall_now();
    EXPECT_EQ(::write(fds[1], "x", 1), 1);
  });
  while (!seen) loop.poll_once(sim_ms(50));
  peer.join();
  EXPECT_GE(wrote_at.load(), sim_ms(2));
  EXPECT_GE(seen_at, wrote_at.load());
  loop.unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ------------------------------------------------------------- sockets ---

TEST(Socket, ParseAddrReadsBothFamilies) {
  const auto tcp = net::parse_addr("127.0.0.1:7101");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7101);
  EXPECT_TRUE(tcp->unix_name.empty());

  const auto unix_addr = net::parse_addr("@optcm-a:1");
  ASSERT_TRUE(unix_addr.has_value());
  EXPECT_EQ(unix_addr->unix_name, "optcm-a:1");  // ':' is part of the name

  // The longest abstract name fills sun_path after its leading NUL.
  const std::string longest(net::kMaxUnixName, 'n');
  EXPECT_TRUE(net::parse_addr("@" + longest).has_value());
  EXPECT_FALSE(net::parse_addr("@" + longest + "n").has_value());
  EXPECT_FALSE(net::parse_addr("@").has_value());
  EXPECT_FALSE(net::parse_addr("").has_value());
  EXPECT_FALSE(net::parse_addr("127.0.0.1").has_value());
}

TEST(Socket, AbstractNameListenDialAcceptRoundTrip) {
  const std::string text =
      "@optcm-test-" + std::to_string(::getpid()) + "-round-trip";
  const int listen_fd = net::listen_on(*net::parse_addr(text));
  ASSERT_GE(listen_fd, 0);
  // The name is taken while its listener lives.
  EXPECT_LT(net::listen_on(*net::parse_addr(text)), 0);

  // An AF_UNIX connect completes at once; the accept side sees it pending.
  const int client = net::dial(*net::parse_addr(text));
  ASSERT_GE(client, 0);
  EXPECT_EQ(net::take_socket_error(client), 0);
  const int server = net::accept_conn(listen_fd);
  ASSERT_GE(server, 0);
  EXPECT_EQ(::write(client, "ping", 4), 4);
  char buf[4] = {};
  pollfd readable{};
  readable.fd = server;
  readable.events = POLLIN;
  ASSERT_EQ(::poll(&readable, 1, /*timeout_ms=*/5000), 1);
  EXPECT_EQ(::read(server, buf, sizeof buf), 4);
  EXPECT_EQ(std::string(buf, 4), "ping");
  ::close(server);
  ::close(client);

  // Closing the listener frees the name: a dial is refused, a rebind works.
  ::close(listen_fd);
  EXPECT_LT(net::dial(*net::parse_addr(text)), 0);
  const int rebound = net::listen_on(*net::parse_addr(text));
  EXPECT_GE(rebound, 0);
  ::close(rebound);
}

// ------------------------------------------- TcpTransport pair, one loop ---

/// Two TcpTransports on one NetLoop, pre-bound so addresses are known before
/// start() — the in-process mirror of the fork harness's race-free setup.
/// Every case runs once per stream family: TCP loopback with kernel-assigned
/// ports, then abstract AF_UNIX names.
class TransportPairTest : public ::testing::Test {
 protected:
  struct Pair {
    NetLoop loop;
    CapturingSink sinks[2];
    std::unique_ptr<TcpTransport> transports[2];

    /// Plain transport tests sink frames directly; the ARQ test attaches
    /// ReliableNodes instead (attach() is once-only).
    void attach_sinks() {
      for (std::size_t p = 0; p < 2; ++p) {
        transports[p]->attach(static_cast<ProcessId>(p), sinks[p]);
      }
    }

    void start_both() {
      transports[0]->start();
      transports[1]->start();
      ASSERT_TRUE(pump(loop, [this] { return fully_connected(); }))
          << "mesh never connected";
    }

    [[nodiscard]] bool fully_connected() const {
      return transports[0]->fully_connected() &&
             transports[1]->fully_connected();
    }
  };

  /// Runs `body` on a fresh pair bound in each family.
  template <class Body>
  void on_each_family(Body body) {
    static int pairs = 0;
    for (const bool unix_family : {false, true}) {
      SCOPED_TRACE(unix_family ? "AF_UNIX" : "TCP");
      Pair pair;
      std::vector<std::string> peers(2);
      int fds[2];
      for (std::size_t p = 0; p < 2; ++p) {
        const std::string text =
            unix_family ? "@optcm-test-" + std::to_string(::getpid()) + "-" +
                              std::to_string(pairs) + "-" + std::to_string(p)
                        : "127.0.0.1:0";
        fds[p] = net::listen_on(*net::parse_addr(text));
        ASSERT_GE(fds[p], 0) << text;
        peers[p] = unix_family ? text
                               : "127.0.0.1:" +
                                     std::to_string(net::local_port(fds[p]));
      }
      ++pairs;
      for (std::size_t p = 0; p < 2; ++p) {
        TcpTransportConfig config;
        config.self = static_cast<ProcessId>(p);
        config.peers = peers;
        config.listen_fd = fds[p];
        config.reconnect_min = sim_ms(2);
        config.reconnect_max = sim_ms(50);
        pair.transports[p] =
            std::make_unique<TcpTransport>(pair.loop, std::move(config));
      }
      body(pair);
    }
  }
};

TEST_F(TransportPairTest, ConnectSendBothDirections) {
  on_each_family([](Pair& t) {
    t.attach_sinks();
    t.start_both();
    t.transports[0]->send(0, 1, make_payload(bytes_of("zero to one")));
    t.transports[1]->send(1, 0, make_payload(bytes_of("one to zero")));
    ASSERT_TRUE(pump(t.loop, [&t] {
      return t.sinks[0].got.size() == 1 && t.sinks[1].got.size() == 1;
    }));
    EXPECT_EQ(t.sinks[1].got[0].first, 0u);
    EXPECT_EQ(t.sinks[1].got[0].second, bytes_of("zero to one"));
    EXPECT_EQ(t.sinks[0].got[0].first, 1u);
    EXPECT_EQ(t.sinks[0].got[0].second, bytes_of("one to zero"));
    EXPECT_TRUE(pump(t.loop, [&t] {
      return t.transports[0]->flushed() && t.transports[1]->flushed();
    }));
    EXPECT_GE(t.transports[0]->stats().frames_out, 1u);
    EXPECT_GE(t.transports[1]->stats().frames_in, 1u);
    EXPECT_GT(t.transports[0]->stats().bytes_out, 0u);
  });
}

TEST_F(TransportPairTest, EncodeOnceFanOutSharesThePayload) {
  on_each_family([](Pair& t) {
    t.attach_sinks();
    t.start_both();
    const auto payload = make_payload(bytes_of("shared bytes"));
    // Broadcast = unicast fan-out; with the payload refcounted, use_count
    // rises while queued rather than the bytes being copied.
    t.transports[0]->send(0, 1, payload);
    ASSERT_TRUE(pump(t.loop, [&t] { return t.sinks[1].got.size() == 1; }));
    EXPECT_EQ(t.sinks[1].got[0].second, bytes_of("shared bytes"));
  });
}

TEST_F(TransportPairTest, SendWhileDownDropsAndReconnectRepairs) {
  on_each_family([](Pair& t) {
    t.attach_sinks();
    t.start_both();
    // Kill from the dialer side (1 dials 0); the very next send must drop.
    t.transports[1]->kill_connection(0);
    EXPECT_EQ(t.transports[1]->stats().conns_killed, 1u);
    t.transports[1]->send(1, 0, make_payload(bytes_of("lost")));
    EXPECT_GE(t.transports[1]->stats().sends_dropped, 1u);
    // The dialer re-dials with backoff; the mesh heals on its own.
    ASSERT_TRUE(pump(t.loop, [&t] { return t.fully_connected(); }))
        << "never reconnected";
    EXPECT_GE(t.transports[1]->stats().reconnects, 1u);
    // Traffic flows again over the new connection.
    t.transports[1]->send(1, 0, make_payload(bytes_of("after reconnect")));
    ASSERT_TRUE(pump(t.loop, [&t] { return !t.sinks[0].got.empty(); }));
    EXPECT_EQ(t.sinks[0].got.back().second, bytes_of("after reconnect"));
  });
}

TEST_F(TransportPairTest, AcceptorSideKillAlsoHeals) {
  on_each_family([](Pair& t) {
    t.attach_sinks();
    t.start_both();
    // Kill from the acceptor side (0 accepts 1): peer notices EOF, re-dials.
    t.transports[0]->kill_connection(1);
    ASSERT_TRUE(pump(t.loop, [&t] { return t.fully_connected(); }))
        << "never reconnected";
    t.transports[0]->send(0, 1, make_payload(bytes_of("hi again")));
    ASSERT_TRUE(pump(t.loop, [&t] { return !t.sinks[1].got.empty(); }));
    EXPECT_EQ(t.sinks[1].got.back().second, bytes_of("hi again"));
  });
}

// ---------------------------------------------- ARQ over a stream pair -----

/// ReliableNode layered on TcpTransport: a forced disconnect mid-stream
/// loses queued frames (datagram semantics), and the ARQ's retransmission
/// repairs them over the re-dialed connection, still exactly-once.
TEST_F(TransportPairTest, ReliableNodeRepairsAcrossReconnect) {
  on_each_family([](Pair& t) {
    CapturingSink upper[2];
    ReliableConfig arq = net_reliable_defaults();
    arq.rto = sim_ms(10);  // repair quickly; reconnect_min is 2ms here
    ReliableNode node0(t.loop.queue(), *t.transports[0], 0, upper[0], arq);
    ReliableNode node1(t.loop.queue(), *t.transports[1], 1, upper[1], arq);
    t.transports[0]->attach(0, node0);
    t.transports[1]->attach(1, node1);
    t.start_both();

    constexpr std::size_t kMessages = 30;
    std::size_t sent = 0;
    bool killed = false;
    while (sent < kMessages) {
      node1.send(0, make_payload(bytes_of("m" + std::to_string(sent))));
      ++sent;
      if (sent == kMessages / 2 && !killed) {
        // Drop the link mid-stream with unacked traffic in flight.
        t.transports[1]->kill_connection(0);
        killed = true;
      }
      t.loop.poll_once(sim_us(200));
    }
    ASSERT_TRUE(pump(t.loop, [&] {
      return upper[0].got.size() == kMessages && node1.quiescent();
    }, 10'000)) << "delivered " << upper[0].got.size();

    // Exactly-once: every payload arrives precisely once.
    std::vector<std::string> delivered;
    for (const auto& [from, bytes] : upper[0].got) {
      EXPECT_EQ(from, 1u);
      delivered.emplace_back(bytes.begin(), bytes.end());
    }
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(std::unique(delivered.begin(), delivered.end()),
              delivered.end());
    EXPECT_EQ(delivered.size(), kMessages);

    // The kill really cost traffic and the ARQ really repaired it.
    EXPECT_GE(t.transports[1]->stats().reconnects, 1u);
    EXPECT_GE(node1.stats().retransmissions, 1u);
    EXPECT_EQ(node1.stats().abandoned, 0u);
  });
}

// ------------------------------------------------------------ merge -------

/// Split a simulator run into per-node views (each node keeps only its own
/// ops and events), exactly what fetch_log returns from a live cluster.
std::vector<ImportedRun> split_run(const RunRecorder& rec) {
  const GlobalHistory& h = rec.history();
  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < h.n_procs(); ++p) {
    ImportedRun r{GlobalHistory(h.n_procs(), h.n_vars()), rec.events_at(p)};
    for (const OpRef ref : h.local(p)) {
      const Operation& op = h.op(ref);
      if (op.is_write()) {
        (void)r.history.add_write(p, op.var, op.value);
      } else {
        (void)r.history.add_read(p, op.var, op.value, op.write_id);
      }
    }
    runs.push_back(std::move(r));
  }
  return runs;
}

TEST(Merge, RebuildsH1RunFromPerNodeViews) {
  const ConstantLatency latency(sim_us(10));
  SimRunConfig config;
  config.n_procs = 3;
  config.n_vars = 2;
  config.latency = &latency;
  const auto sim = run_sim(config, paper::make_h1_scripts());
  ASSERT_TRUE(sim.settled);

  const auto runs = split_run(*sim.recorder);
  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(CoRelation::build(merged->history).has_value());

  // The merged history is causally consistent and auditable.
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  const auto report =
      OptimalityAuditor::audit(merged->history, merged->events);
  EXPECT_TRUE(report.safe());
  EXPECT_TRUE(report.live());

  // Per-process event sequences survive the split+merge byte-for-byte.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sequence_str(merged->events, p), sim.recorder->sequence_str(p))
        << "process " << p;
  }
}

TEST(Merge, RebuildsRandomizedRunsAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ConstantLatency latency(sim_us(25));
    SimRunConfig config;
    config.n_procs = 4;
    config.n_vars = 3;
    config.latency = &latency;
    std::vector<Script> scripts(4);
    Rng rng(seed);
    for (ProcessId p = 0; p < 4; ++p) {
      for (int i = 0; i < 12; ++i) {
        const auto delay = sim_us(rng.below(200));
        if (rng.below(2) == 0) {
          scripts[p].push_back(write_step(
              delay, static_cast<VarId>(rng.below(3)),
              static_cast<Value>(rng.below(100) + 1)));
        } else {
          scripts[p].push_back(
              read_step(delay, static_cast<VarId>(rng.below(3))));
        }
      }
    }
    const auto sim = run_sim(config, scripts);
    ASSERT_TRUE(sim.settled);
    const auto merged = merge_runs(split_run(*sim.recorder));
    ASSERT_TRUE(merged.has_value()) << "seed " << seed;
    EXPECT_TRUE(CoRelation::build(merged->history).has_value());
    EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
    for (ProcessId p = 0; p < 4; ++p) {
      EXPECT_EQ(sequence_str(merged->events, p),
                sim.recorder->sequence_str(p))
          << "seed " << seed << " process " << p;
    }
  }
}

TEST(Merge, EmptyInputRejected) {
  EXPECT_FALSE(merge_runs({}).has_value());
}

TEST(Merge, MismatchedShapesRejected) {
  std::vector<ImportedRun> runs;
  runs.push_back({GlobalHistory(2, 1), {}});
  runs.push_back({GlobalHistory(3, 1), {}});  // claims 3 procs in a 2-run set
  EXPECT_FALSE(merge_runs(runs).has_value());
}

TEST(Merge, ReadFromUnknownWriteGetsStuck) {
  std::vector<ImportedRun> runs;
  ImportedRun r0{GlobalHistory(2, 1), {}};
  // p0 read a write of p1 that no trace contains: unsatisfiable dependency.
  (void)r0.history.add_read(0, 0, 42, WriteId{1, 5});
  runs.push_back(std::move(r0));
  runs.push_back({GlobalHistory(2, 1), {}});
  EXPECT_FALSE(merge_runs(runs).has_value());
}

TEST(Merge, SendOfAWriteTheNodeNeverIssuedRejected) {
  // p1 issued write {1, 1}.  A send event in p0's log that names it (or a
  // write of p0's own that p0 never issued) cannot come from a real run.
  for (const WriteId named : {WriteId{1, 1}, WriteId{0, 1}}) {
    std::vector<ImportedRun> runs;
    ImportedRun r0{GlobalHistory(2, 1), {}};
    RunEvent send;
    send.at = 0;
    send.kind = EvKind::kSend;
    send.write = named;
    r0.events.push_back(send);
    runs.push_back(std::move(r0));
    ImportedRun r1{GlobalHistory(2, 1), {}};
    (void)r1.history.add_write(1, 0, 7);
    runs.push_back(std::move(r1));
    EXPECT_FALSE(merge_runs(runs).has_value())
        << "send of write " << named.proc << ":" << named.seq;
  }
}

TEST(Merge, EventFromWrongProcessRejected) {
  std::vector<ImportedRun> runs;
  ImportedRun r0{GlobalHistory(1, 1), {}};
  RunEvent ev;
  ev.at = 1;  // a node may only observe itself
  ev.kind = EvKind::kSend;
  r0.events.push_back(ev);
  runs.push_back(std::move(r0));
  EXPECT_FALSE(merge_runs(runs).has_value());
}

/// A node records only its own ops.  One of another process inside node p's
/// run would never be emitted, so the merge must refuse rather than drop it.
TEST(Merge, OpOfAnotherProcessRejected) {
  std::vector<ImportedRun> runs;
  ImportedRun r0{GlobalHistory(2, 1), {}};
  (void)r0.history.add_write(0, 0, 7);
  (void)r0.history.add_write(1, 0, 9);  // p1's write in p0's run
  runs.push_back(std::move(r0));
  runs.push_back({GlobalHistory(2, 1), {}});
  EXPECT_FALSE(merge_runs(runs).has_value());
}

// ---------------------------------------------------- fork-based cluster ---

/// End-to-end acceptance: a 3-process loopback cluster runs Ĥ₁ and its
/// merged observer-event log matches the simulator byte-for-byte.
TEST(ProcessClusterTest, H1MatchesSimulatorByteForByte) {
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  ASSERT_TRUE(cluster.run(paper::make_h1_scripts(), /*time_scale=*/1000));
  ASSERT_TRUE(cluster.wait_done());

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < 3; ++p) {
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value()) << "process " << p;
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  const auto report =
      OptimalityAuditor::audit(merged->history, merged->events);
  EXPECT_TRUE(report.safe());
  EXPECT_TRUE(report.live());
  EXPECT_TRUE(report.write_delay_optimal());

  const ConstantLatency latency(sim_us(10));
  SimRunConfig sim_config;
  sim_config.n_procs = 3;
  sim_config.n_vars = 2;
  sim_config.latency = &latency;
  const auto sim = run_sim(sim_config, paper::make_h1_scripts());
  ASSERT_TRUE(sim.settled);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sequence_str(runs[p].events, p), sim.recorder->sequence_str(p))
        << "process " << p;
  }
}

/// Ĥ₁ on three shards packed `per_proc` to an OS process: the sum of every
/// shard's kFetchStats reply.
void run_packed_h1(std::size_t per_proc, NodeNetStats& total) {
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  config.shards_per_proc = per_proc;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  ASSERT_TRUE(cluster.run(paper::make_h1_scripts(), /*time_scale=*/1000));
  ASSERT_TRUE(cluster.wait_done());
  for (ProcessId p = 0; p < 3; ++p) {
    const auto stats = cluster.fetch_stats(p);
    ASSERT_TRUE(stats.has_value()) << "shard " << p;
    total += *stats;
  }
  EXPECT_TRUE(cluster.shutdown());
  EXPECT_EQ(total.reliable.abandoned, 0u);
}

/// All three shards in one process: every frame rides the ring mesh and
/// none leaves the host.
TEST(ProcessClusterTest, AllShardsPackedSendNoCrossHostFrame) {
  NodeNetStats total;
  run_packed_h1(3, total);
  EXPECT_EQ(total.shard.cross_frames, 0u);
  EXPECT_GT(total.shard.local_frames, 0u);
  EXPECT_EQ(total.shard.ring_pushes, total.shard.local_frames);
}

/// Two shards per process leave p2 on its own host: some frames cross.
TEST(ProcessClusterTest, TwoShardsPerProcessSendCrossHostFrames) {
  NodeNetStats total;
  run_packed_h1(2, total);
  EXPECT_GT(total.shard.cross_frames, 0u);
  EXPECT_GT(total.shard.local_frames, 0u);
}

/// Satellite: kill a peer connection mid-run under a dense write load; the
/// ARQ must retransmit over the re-dialed connection and the merged run must
/// still check out.
TEST(ProcessClusterTest, ReconnectMidRunRepairsViaArq) {
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());

  // Dense enough that traffic is in flight when the link dies: 30 writes at
  // a 2ms cadence from p0, with p1/p2 awaiting the final value.
  constexpr Value kLast = 30;
  std::vector<Script> scripts(3);
  for (Value v = 1; v <= kLast; ++v) {
    scripts[0].push_back(write_step(sim_ms(2), 0, v));
  }
  scripts[1].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  scripts[2].push_back(read_until_step(0, 0, kLast, sim_ms(1)));

  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(cluster.kill_connection(1, 0));  // p1 drops its link to p0
  ASSERT_TRUE(cluster.wait_done());

  NodeNetStats total;
  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < 3; ++p) {
    const auto stats = cluster.fetch_stats(p);
    ASSERT_TRUE(stats.has_value());
    total += *stats;
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value());
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  // The disconnect really happened and the ARQ really repaired it.
  EXPECT_GE(total.tcp.reconnects, 1u);
  EXPECT_GE(total.reliable.retransmissions, 1u);
  EXPECT_EQ(total.reliable.abandoned, 0u);

  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  const auto report =
      OptimalityAuditor::audit(merged->history, merged->events);
  EXPECT_TRUE(report.safe());
  EXPECT_TRUE(report.live());
}

/// SIGKILL a node mid-run (no cleanup, no goodbye), fork a fresh process on
/// the same address and state dir, and let it rejoin from its snapshot + WAL
/// tail while its peers' ARQs resend what it missed.  The respawn replays
/// its WAL into its log before it records anything new, so the log fetched
/// just before the kill is a field-for-field prefix of the final one: every
/// op, and every event with its order and time.  The final logs, merged as
/// they are, must be checker-clean and byte-identical to the uninterrupted
/// simulator run.
TEST(ProcessClusterTest, SigkillRespawnFromStateDirMatchesSimulator) {
  std::string state_dir = "/tmp/optcm-net-state-XXXXXX";
  ASSERT_NE(::mkdtemp(state_dir.data()), nullptr);

  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  config.shape.recoverable = true;
  config.state_dir = state_dir;
  config.fsync = FsyncPolicy::kEvery;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());

  // The respawned node restarts the gap before its next step, so a kill just
  // before p1's w(x1)c (due at +60ms) delays that write by the downtime.  p2
  // waits 720ms instead of 120ms before w(x2)b, so the delayed c still comes
  // first: c after b is a legal run, but not the simulator's.
  auto scripts = paper::make_h1_scripts();
  scripts[1][1].delay = 240;
  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/3000));

  // Randomized kill point in the first 100ms, before or after c is written.
  Rng rng(static_cast<std::uint64_t>(::getpid()));
  const auto kill_at = std::chrono::milliseconds(1 + rng.below(100));
  std::this_thread::sleep_for(kill_at);
  const auto pre_kill = cluster.fetch_log(0);
  ASSERT_TRUE(pre_kill.has_value());
  ASSERT_TRUE(cluster.kill_process(0));
  ASSERT_TRUE(cluster.respawn_process(0));
  ASSERT_TRUE(cluster.wait_ready());
  ASSERT_TRUE(cluster.wait_quiescent());  // peers caught the respawn up
  ASSERT_TRUE(cluster.run_node(0, scripts[0], /*time_scale=*/3000));
  ASSERT_TRUE(cluster.wait_done());

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < 3; ++p) {
    auto run = cluster.fetch_log(p);
    ASSERT_TRUE(run.has_value()) << "process " << p;
    runs.push_back(std::move(*run));
  }
  EXPECT_TRUE(cluster.shutdown());

  // What the first incarnation logged, the WAL replayed verbatim.
  const auto pre_ops = pre_kill->history.all_ops();
  const auto ops = runs[0].history.all_ops();
  ASSERT_LE(pre_ops.size(), ops.size()) << "kill at +" << kill_at.count();
  for (std::size_t i = 0; i < pre_ops.size(); ++i) {
    EXPECT_TRUE(pre_ops[i] == ops[i])
        << "op " << i << ": " << op_to_string(pre_ops[i]) << " became "
        << op_to_string(ops[i]) << ", kill at +" << kill_at.count() << "ms";
  }
  const std::vector<RunEvent>& pre_events = pre_kill->events;
  ASSERT_LE(pre_events.size(), runs[0].events.size())
      << "kill at +" << kill_at.count();
  for (std::size_t i = 0; i < pre_events.size(); ++i) {
    EXPECT_TRUE(pre_events[i] == runs[0].events[i])
        << "event " << i << ": " << event_to_string(pre_events[i]) << " @"
        << pre_events[i].time << " became "
        << event_to_string(runs[0].events[i]) << " @"
        << runs[0].events[i].time << ", kill at +" << kill_at.count()
        << "ms";
  }

  const auto merged = merge_runs(runs);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
  const auto report =
      OptimalityAuditor::audit(merged->history, merged->events);
  EXPECT_TRUE(report.safe());
  EXPECT_TRUE(report.live());

  const ConstantLatency latency(sim_us(10));
  SimRunConfig sim_config;
  sim_config.n_procs = 3;
  sim_config.n_vars = 2;
  sim_config.latency = &latency;
  const auto sim = run_sim(sim_config, scripts);
  ASSERT_TRUE(sim.settled);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sequence_str(runs[p].events, p), sim.recorder->sequence_str(p))
        << "process " << p << ", kill at +" << kill_at.count() << "ms";
  }

  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
}

/// A receipt whose spill failed stays unacknowledged.  Node 1's storage
/// fails every write after its boot spill, so its receipt of p0's write
/// never reaches the disk and the node holds the ACK.  SIGKILLed and
/// respawned onto the same failing storage, it boots from the snapshot that
/// predates the receipt, and p0's tx window returns the write.
TEST(ProcessClusterTest, ReceiptWhoseSpillFailedIsResentAfterASigkill) {
  std::string state_dir = "/tmp/optcm-net-state-XXXXXX";
  ASSERT_NE(::mkdtemp(state_dir.data()), nullptr);
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 2;
  config.shape.n_vars = 1;
  config.shape.recoverable = true;
  config.state_dir = state_dir;
  config.fsync = FsyncPolicy::kNone;
  // A boot spill makes three write calls: the WAL commit and the snapshot's
  // header and body.  Every call from the fourth on fails.
  config.storage_fail.emplace_back(
      1, StorageFailpoint{StorageFailpoint::Op::kWrite,
                          StorageFailpoint::Kind::kEnospc, 4, 0});
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  std::vector<Script> scripts(2);
  scripts[0].push_back(write_step(sim_ms(1), 0, 7));
  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));

  // True once node 1's live log holds the receipt of p0's write.
  const auto received = [&cluster] {
    const auto run = cluster.fetch_log(1);
    return run.has_value() &&
           std::any_of(run->events.begin(), run->events.end(),
                       [](const RunEvent& e) {
                         return e.kind == EvKind::kReceipt && e.at == 1;
                       });
  };
  const auto wait_received = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!received()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  };
  ASSERT_TRUE(wait_received());
  const auto stats = cluster.fetch_stats(1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->node.snapshot_failures, 1u);
  EXPECT_EQ(stats->reliable.acks_sent, 0u);  // held: p0 keeps the write
  EXPECT_FALSE(cluster.wait_quiescent(/*timeout_ms=*/200));

  ASSERT_TRUE(cluster.kill_process(1));
  ASSERT_TRUE(cluster.respawn_process(1));
  ASSERT_TRUE(cluster.wait_ready());
  EXPECT_TRUE(wait_received()) << "the respawn never got p0's write back";
  EXPECT_TRUE(cluster.shutdown());
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
}

/// A spill that failed is retried at the tick edge, and the first one that
/// lands releases the held ACKs.  Node 1's storage fails four write calls in
/// a row, the WAL commit's one try and its three retries, at its receipt of
/// p0's write; no later mutation comes to spill again.
TEST(ProcessClusterTest, FailedSpillIsRetriedAndReleasesTheHeldAcks) {
  std::string state_dir = "/tmp/optcm-net-state-XXXXXX";
  ASSERT_NE(::mkdtemp(state_dir.data()), nullptr);
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 2;
  config.shape.n_vars = 1;
  config.shape.recoverable = true;
  config.state_dir = state_dir;
  config.fsync = FsyncPolicy::kNone;
  config.storage_fail.emplace_back(
      1, StorageFailpoint{StorageFailpoint::Op::kWrite,
                          StorageFailpoint::Kind::kEnospc, 4,
                          kWalWriteRetries + 1});
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  std::vector<Script> scripts(2);
  scripts[0].push_back(write_step(sim_ms(1), 0, 7));
  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));
  EXPECT_TRUE(cluster.wait_done(/*timeout_ms=*/10'000));
  const auto stats = cluster.fetch_stats(1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->node.snapshot_failures, 1u);
  EXPECT_GE(stats->reliable.acks_sent, 1u);
  EXPECT_TRUE(cluster.shutdown());
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
}

}  // namespace
}  // namespace dsm
