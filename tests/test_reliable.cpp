// Tests for the fault-injection model and the ARQ layer that rebuilds the
// paper's reliable exactly-once channels over a lossy, duplicating network.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "dsm/audit/auditor.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/sim/reliable.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

// ----------------------------------------------------------- FaultPlan -----

TEST(FaultPlan, InactiveByDefault) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  const auto draw = plan.draw(0, 1, 0);
  EXPECT_FALSE(draw.dropped);
  EXPECT_FALSE(draw.duplicated);
}

TEST(FaultPlan, DrawIsDeterministic) {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.2;
  plan.seed = 99;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto a = plan.draw(0, 1, i);
    const auto b = plan.draw(0, 1, i);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duplicated, b.duplicated);
  }
}

TEST(FaultPlan, RatesRoughlyHonoured) {
  FaultPlan plan;
  plan.drop = 0.25;
  plan.duplicate = 0.25;
  plan.seed = 7;
  int drops = 0, dups = 0;
  constexpr int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    const auto d = plan.draw(1, 2, static_cast<std::uint64_t>(i));
    drops += d.dropped;
    dups += d.duplicated;
  }
  EXPECT_NEAR(drops, kDraws * 0.25, kDraws * 0.02);
  // Duplicates only drawn for non-dropped messages: ~0.25 * 0.75.
  EXPECT_NEAR(dups, kDraws * 0.25 * 0.75, kDraws * 0.02);
}

TEST(FaultPlan, RealizedDropRateMatchesPerChannel) {
  // The point of the splitmix64 rework: the realized rate must match `drop`
  // on EVERY channel, not just in aggregate (the old xor-chain skewed
  // individual channels while looking fine summed).
  FaultPlan plan;
  plan.drop = 0.2;
  plan.seed = 41;
  constexpr int kDraws = 10'000;
  for (ProcessId from = 0; from < 4; ++from) {
    for (ProcessId to = 0; to < 4; ++to) {
      if (from == to) continue;
      int drops = 0;
      for (int i = 0; i < kDraws; ++i) {
        drops += plan.draw(from, to, static_cast<std::uint64_t>(i)).dropped;
      }
      EXPECT_NEAR(drops, kDraws * 0.2, kDraws * 0.03)
          << "channel " << from << "->" << to;
    }
  }
}

TEST(FaultPlan, ChannelsAndConsecutiveDrawsAreDecorrelated) {
  // With p = 0.5 two independent Bernoulli streams agree ~50% of the time.
  // Correlated streams (the old chain) agree nearly always.
  FaultPlan plan;
  plan.drop = 0.5;
  plan.seed = 5;
  constexpr int kDraws = 20'000;
  int agree_channels = 0;  // (0→1) vs (0→2) at the same index
  int agree_serial = 0;    // (0→1) at index i vs i+1
  for (int i = 0; i < kDraws; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    const bool a = plan.draw(0, 1, idx).dropped;
    const bool b = plan.draw(0, 2, idx).dropped;
    const bool c = plan.draw(0, 1, idx + 1).dropped;
    agree_channels += a == b;
    agree_serial += a == c;
  }
  EXPECT_NEAR(agree_channels, kDraws * 0.5, kDraws * 0.02);
  EXPECT_NEAR(agree_serial, kDraws * 0.5, kDraws * 0.02);
}

TEST(FaultPlan, SplitSeversIslandBothWaysAndHeals) {
  FaultPlan plan;
  plan.split({0}, 4, 100, 200);
  EXPECT_TRUE(plan.severed(0, 2, 100));
  EXPECT_TRUE(plan.severed(2, 0, 150));
  EXPECT_FALSE(plan.severed(1, 2, 150));  // both outside the island
  EXPECT_FALSE(plan.severed(0, 2, 99));
  EXPECT_FALSE(plan.severed(0, 2, 200));  // healed (exclusive end)
}

TEST(CrashPlan, ValidateRejectsOverlapAndZeroDowntime) {
  CrashPlan ok;
  ok.events.push_back(CrashEvent{1, 100, 200});
  ok.events.push_back(CrashEvent{1, 200, 300});  // back-to-back is fine
  ok.events.push_back(CrashEvent{2, 150, 250});  // other process overlaps fine
  ok.validate(3);

  CrashPlan zero;
  zero.events.push_back(CrashEvent{0, 100, 100});
  EXPECT_DEATH(zero.validate(1), "restart_at");

  CrashPlan overlap;
  overlap.events.push_back(CrashEvent{1, 100, 300});
  overlap.events.push_back(CrashEvent{1, 200, 400});
  EXPECT_DEATH(overlap.validate(2), "overlapping");
}

// -------------------------------------------------------- ReliableNode -----

class CollectingSink final : public MessageSink {
 public:
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    received.emplace_back(from, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
  std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> received;
};

struct ArqFixture {
  explicit ArqFixture(FaultPlan plan, SimTime latency_scale = 100,
                      const ReliableConfig& config = {}) {
    latency = std::make_unique<UniformLatency>(latency_scale / 2,
                                               latency_scale * 2, 5);
    net = std::make_unique<Network>(queue, *latency, 2);
    net->set_fault_plan(plan);
    for (ProcessId p = 0; p < 2; ++p) {
      nodes.push_back(
          std::make_unique<ReliableNode>(queue, *net, p, sinks[p], config));
      net->attach(p, *nodes[p]);
    }
  }
  EventQueue queue;
  std::unique_ptr<UniformLatency> latency;
  std::unique_ptr<Network> net;
  CollectingSink sinks[2];
  std::vector<std::unique_ptr<ReliableNode>> nodes;
};

TEST(ReliableNode, ExactlyOnceUnderHeavyLossAndDuplication) {
  FaultPlan plan;
  plan.drop = 0.4;
  plan.duplicate = 0.3;
  plan.seed = 17;
  ArqFixture fx(plan);

  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    fx.nodes[0]->send(1, make_payload({static_cast<std::uint8_t>(i),
                                       static_cast<std::uint8_t>(i >> 8)}));
  }
  fx.queue.run();

  ASSERT_EQ(fx.sinks[1].received.size(), static_cast<std::size_t>(kMessages));
  // Each payload exactly once (order may differ — channels are non-FIFO).
  std::set<int> values;
  for (const auto& [from, bytes] : fx.sinks[1].received) {
    EXPECT_EQ(from, 0u);
    values.insert(bytes[0] | bytes[1] << 8);
  }
  EXPECT_EQ(values.size(), static_cast<std::size_t>(kMessages));

  const auto& stats = fx.nodes[0]->stats();
  EXPECT_GT(stats.retransmissions, 0u);           // losses forced retries
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_GT(fx.nodes[1]->stats().duplicates_suppressed, 0u);
  EXPECT_TRUE(fx.nodes[0]->quiescent());
  EXPECT_GT(fx.net->fault_stats().dropped, 0u);
  EXPECT_GT(fx.net->fault_stats().duplicated, 0u);
}

TEST(ReliableNode, NoFaultsMeansNoRetransmissions) {
  ArqFixture fx(FaultPlan{});
  for (int i = 0; i < 50; ++i) fx.nodes[1]->send(0, make_payload({7}));
  fx.queue.run();
  EXPECT_EQ(fx.sinks[0].received.size(), 50u);
  EXPECT_EQ(fx.nodes[1]->stats().retransmissions, 0u);
  EXPECT_EQ(fx.nodes[1]->stats().abandoned, 0u);
  EXPECT_EQ(fx.sinks[0].received.size(), fx.nodes[1]->stats().data_sent);
}

TEST(ReliableNode, PureDuplicationIsFullySuppressed) {
  FaultPlan plan;
  plan.duplicate = 1.0;  // every message delivered twice
  plan.seed = 3;
  ArqFixture fx(plan);
  for (int i = 0; i < 40; ++i) fx.nodes[0]->send(1, make_payload({static_cast<std::uint8_t>(i)}));
  fx.queue.run();
  EXPECT_EQ(fx.sinks[1].received.size(), 40u);
  EXPECT_GE(fx.nodes[1]->stats().duplicates_suppressed, 40u);
  EXPECT_EQ(fx.nodes[0]->stats().abandoned, 0u);
}

TEST(ReliableNode, BroadcastReachesAllPeersExactlyOnce) {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.seed = 23;
  EventQueue queue;
  const ConstantLatency latency(50);
  Network net(queue, latency, 4);
  net.set_fault_plan(plan);
  CollectingSink sinks[4];
  std::vector<std::unique_ptr<ReliableNode>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<ReliableNode>(queue, net, p, sinks[p]));
    net.attach(p, *nodes[p]);
  }
  for (int i = 0; i < 30; ++i) nodes[2]->broadcast(make_payload({static_cast<std::uint8_t>(i)}));
  queue.run();
  for (ProcessId p = 0; p < 4; ++p) {
    if (p == 2) {
      EXPECT_TRUE(sinks[p].received.empty());
    } else {
      EXPECT_EQ(sinks[p].received.size(), 30u) << "p" << p;
    }
  }
  EXPECT_EQ(nodes[2]->stats().abandoned, 0u);
}

TEST(ReliableNode, AdaptiveRtoConvergesTowardMeasuredRtt) {
  // Constant 100µs one-way latency → 200µs RTT with zero variance.  The
  // RFC 6298 estimator must pull the RTO from the (deliberately huge)
  // initial value down toward SRTT + 4·RTTVAR, clamped at min_rto.
  EventQueue queue;
  const ConstantLatency latency(100);
  Network net(queue, latency, 2);
  CollectingSink sinks[2];
  ReliableConfig cfg;
  cfg.rto = sim_ms(50);
  cfg.min_rto = sim_us(300);
  ReliableNode a(queue, net, 0, sinks[0], cfg);
  ReliableNode b(queue, net, 1, sinks[1], cfg);
  net.attach(0, a);
  net.attach(1, b);

  EXPECT_EQ(a.current_rto(1), sim_ms(50));  // pre-sample: the initial RTO
  for (int i = 0; i < 30; ++i) a.send(1, make_payload({1}));
  queue.run();
  EXPECT_GT(a.stats().rtt_samples, 0u);
  EXPECT_LT(a.current_rto(1), sim_ms(5));  // adapted down, nowhere near 50ms
  EXPECT_GE(a.current_rto(1), cfg.min_rto);
  EXPECT_EQ(a.stats().retransmissions, 0u);
  EXPECT_EQ(a.stats().abandoned, 0u);
}

TEST(ReliableNode, PartitionHealsAndArqRepairs) {
  // Everything sent during the blackout vanishes; the retransmission timer
  // outlives the partition and repairs the channel with zero abandonment.
  FaultPlan plan;
  plan.split({0}, 2, 0, sim_ms(5));
  ArqFixture fx(plan);
  for (int i = 0; i < 20; ++i) {
    fx.nodes[0]->send(1, make_payload({static_cast<std::uint8_t>(i)}));
  }
  fx.queue.run();
  EXPECT_EQ(fx.sinks[1].received.size(), 20u);
  EXPECT_GT(fx.net->fault_stats().partition_dropped, 0u);
  EXPECT_GT(fx.nodes[0]->stats().retransmissions, 0u);
  EXPECT_EQ(fx.nodes[0]->stats().abandoned, 0u);
  EXPECT_TRUE(fx.nodes[0]->quiescent());
}

TEST(ReliableNode, AbandonCallbackFiresWhenRetriesExhausted) {
  FaultPlan plan;
  plan.drop = 1.0;  // nothing ever arrives; retries must run out
  plan.seed = 9;
  EventQueue queue;
  const ConstantLatency latency(50);
  Network net(queue, latency, 2);
  net.set_fault_plan(plan);
  CollectingSink sinks[2];
  ReliableConfig cfg;
  cfg.rto = sim_us(100);
  cfg.min_rto = sim_us(50);
  cfg.max_rto = sim_us(400);
  cfg.max_retries = 3;
  std::vector<std::pair<ProcessId, std::uint64_t>> abandoned;
  cfg.on_abandon = [&abandoned](ProcessId to, std::uint64_t seq) {
    abandoned.emplace_back(to, seq);
  };
  ReliableNode a(queue, net, 0, sinks[0], cfg);
  ReliableNode b(queue, net, 1, sinks[1], cfg);
  net.attach(0, a);
  net.attach(1, b);
  a.send(1, make_payload({42}));
  queue.run();

  ASSERT_EQ(abandoned.size(), 1u);
  EXPECT_EQ(abandoned[0].first, 1u);
  EXPECT_EQ(abandoned[0].second, 1u);
  EXPECT_EQ(a.stats().abandoned, 1u);
  EXPECT_EQ(a.stats().retransmissions, 3u);  // exactly max_retries attempts
  EXPECT_TRUE(sinks[1].received.empty());
  EXPECT_TRUE(a.quiescent());  // the abandoned payload is off the books
}

TEST(ReliableNodeDeathTest, AbandonWithoutCallbackIsAHardError) {
  // Default config: exhausting max_retries aborts — silent loss would
  // invalidate every liveness claim downstream.
  EXPECT_DEATH(
      {
        FaultPlan plan;
        plan.drop = 1.0;
        plan.seed = 9;
        EventQueue queue;
        const ConstantLatency latency(50);
        Network net(queue, latency, 2);
        net.set_fault_plan(plan);
        CollectingSink sinks[2];
        ReliableConfig cfg;
        cfg.rto = sim_us(100);
        cfg.min_rto = sim_us(50);
        cfg.max_rto = sim_us(400);
        cfg.max_retries = 2;
        ReliableNode a(queue, net, 0, sinks[0], cfg);
        ReliableNode b(queue, net, 1, sinks[1], cfg);
        net.attach(0, a);
        net.attach(1, b);
        a.send(1, make_payload({42}));
        queue.run();
      },
      "ARQ abandoned a payload");
}

TEST(ReliableNodeDeathTest, AckDelayMustStayBelowMinRto) {
  EventQueue queue;
  const ConstantLatency latency(50);
  Network net(queue, latency, 2);
  CollectingSink sink;
  ReliableConfig cfg;
  cfg.ack_delay = cfg.min_rto;
  EXPECT_DEATH(ReliableNode(queue, net, 0, sink, cfg), "held ACK");
}

// ------------------------------------------------ frames on the wire -------

/// Records every frame a node sends, stamped with the send time, and
/// delivers none: each test feeds the node's inbound side by hand.
class CapturingTransport final : public DatagramTransport {
 public:
  struct Frame {
    ProcessId to;
    SimTime at;
    std::vector<std::uint8_t> bytes;
  };
  explicit CapturingTransport(const EventQueue& queue) : queue_(&queue) {}
  void attach(ProcessId, MessageSink&) override {}
  void send(ProcessId, ProcessId to, Payload payload) override {
    sent.push_back(Frame{to, queue_->now(), *payload});
  }
  [[nodiscard]] std::size_t n_procs() const override { return 2; }

  std::vector<Frame> sent;

 private:
  const EventQueue* queue_;
};

using Bytes = std::vector<std::uint8_t>;

/// A DATA frame: [0x00][varint seq][payload].  Seqs below 128 are one byte.
Bytes data_frame(std::uint8_t seq, std::uint8_t payload) {
  return {0x00, seq, payload};
}

/// A held-ACK configuration for nodes on a CapturingTransport.
ReliableConfig held_acks() {
  ReliableConfig cfg;
  cfg.ack_delay = sim_us(300);
  return cfg;
}

TEST(ReliableNode, DefaultConfigAcksEachDataFrameBeforeDelivering) {
  // ack_delay = 0: one [0x01][seq] frame per DATA frame, duplicates
  // included, already handed to the transport when the payload goes up.
  EventQueue queue;
  CapturingTransport wire(queue);
  struct AckCheckingSink final : MessageSink {
    void deliver(ProcessId, std::span<const std::uint8_t>) override {
      frames_sent_at_delivery.push_back(wire->sent.size());
    }
    const CapturingTransport* wire;
    std::vector<std::size_t> frames_sent_at_delivery;
  } sink;
  sink.wire = &wire;
  ReliableNode node(queue, wire, 1, sink);

  node.deliver(0, data_frame(1, 0xA1));
  node.deliver(0, data_frame(2, 0xA2));
  node.deliver(0, data_frame(1, 0xA1));  // duplicate: re-ACKed, not delivered

  ASSERT_EQ(wire.sent.size(), 3u);
  EXPECT_EQ(wire.sent[0].bytes, (Bytes{0x01, 1}));
  EXPECT_EQ(wire.sent[1].bytes, (Bytes{0x01, 2}));
  EXPECT_EQ(wire.sent[2].bytes, (Bytes{0x01, 1}));
  for (const auto& frame : wire.sent) EXPECT_EQ(frame.to, 0u);
  EXPECT_EQ(sink.frames_sent_at_delivery, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(node.stats().acks_sent, 3u);
  EXPECT_EQ(node.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(queue.pending(), 0u);  // no ACK timer
}

TEST(ReliableNode, HeldAcksRideJustAheadOfTheNextDataFrame) {
  EventQueue queue;
  CapturingTransport wire(queue);
  CollectingSink sink;
  ReliableNode node(queue, wire, 1, sink, held_acks());

  const std::size_t before = queue.pending();
  node.deliver(0, data_frame(1, 0xA1));
  node.deliver(0, data_frame(2, 0xA2));
  EXPECT_TRUE(wire.sent.empty());
  EXPECT_EQ(sink.received.size(), 2u);  // delivery never waits for the ACK
  EXPECT_EQ(queue.pending(), before + 1);  // one ACK timer for the peer

  node.send(0, make_payload({0xB1}));
  ASSERT_EQ(wire.sent.size(), 2u);
  EXPECT_EQ(wire.sent[0].bytes, (Bytes{0x01, 1, 2}));
  EXPECT_EQ(wire.sent[1].bytes, (Bytes{0x00, 1, 0xB1}));
  EXPECT_EQ(node.stats().acks_sent, 1u);

  // The flush cancelled the ACK timer; what is left is the DATA frame's
  // retransmission timer, so nothing more goes out before it is due.
  EXPECT_EQ(queue.pending(), before + 1);
  queue.run_until(node.current_rto(0) - 1);
  EXPECT_EQ(wire.sent.size(), 2u);
}

TEST(ReliableNode, LoneHeldAckGoesOutAckDelayAfterTheFirstPendingSeq) {
  EventQueue queue;
  CapturingTransport wire(queue);
  CollectingSink sink;
  const ReliableConfig cfg = held_acks();
  ReliableNode node(queue, wire, 1, sink, cfg);

  queue.schedule_at(100, [&] { node.deliver(0, data_frame(1, 0xA1)); });
  queue.schedule_at(250, [&] { node.deliver(0, data_frame(3, 0xA3)); });
  queue.schedule_at(260, [&] { node.deliver(0, data_frame(1, 0xA1)); });
  queue.run_until(100 + cfg.ack_delay - 1);
  EXPECT_TRUE(wire.sent.empty());

  queue.run();
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(wire.sent[0].at, 100 + cfg.ack_delay);
  EXPECT_EQ(wire.sent[0].to, 0u);
  EXPECT_EQ(wire.sent[0].bytes, (Bytes{0x01, 1, 3, 1}));
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(ReliableNode, OneAckFrameRetiresSeveralUnackedEntries) {
  EventQueue queue;
  CapturingTransport wire(queue);
  CollectingSink sink;
  ReliableNode node(queue, wire, 0, sink, held_acks());
  for (std::uint8_t i = 0; i < 3; ++i) node.send(1, make_payload({i}));
  EXPECT_FALSE(node.quiescent());

  node.deliver(1, Bytes{0x01, 3, 1, 2});
  EXPECT_TRUE(node.quiescent());
  EXPECT_EQ(node.stats().rtt_samples, 3u);
  EXPECT_EQ(node.stats().malformed_dropped, 0u);
}

TEST(ReliableNode, HeldAcksWaitForTheReleaseAndLeaveAsOneFrame) {
  // While held, neither the ACK timer nor a DATA frame to the peer lets an
  // ACK out; the release sends every held seq at once.
  EventQueue queue;
  CapturingTransport wire(queue);
  CollectingSink sink;
  ReliableNode node(queue, wire, 1, sink, held_acks());
  node.hold_acks(true);
  node.deliver(0, data_frame(1, 0xA1));
  node.deliver(0, data_frame(2, 0xA2));
  EXPECT_EQ(sink.received.size(), 2u);  // delivery never waits for the ACK
  queue.run_until(sim_ms(1));           // past the ACK timer
  node.send(0, make_payload({0xB1}));
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(wire.sent[0].bytes, (Bytes{0x00, 1, 0xB1}));
  node.hold_acks(true);
  EXPECT_EQ(wire.sent.size(), 1u);

  node.hold_acks(false);
  ASSERT_EQ(wire.sent.size(), 2u);
  EXPECT_EQ(wire.sent[1].bytes, (Bytes{0x01, 1, 2}));
  EXPECT_EQ(node.stats().acks_sent, 1u);
  node.hold_acks(false);
  EXPECT_EQ(wire.sent.size(), 2u);
}

TEST(ReliableNode, MalformedFramesAreDroppedAndCounted) {
  EventQueue queue;
  CapturingTransport wire(queue);
  CollectingSink sink;
  ReliableNode node(queue, wire, 0, sink);
  node.send(1, make_payload({7}));
  node.send(1, make_payload({8}));

  const Bytes garbage[] = {
      {},                // no type byte
      {0x05, 1},         // unknown type
      {0x03, 1},         // RESUME with a body
      {0x00},            // DATA without a seq
      {0x00, 0x80},      // DATA with a truncated seq
      {0x01},            // ACK listing no seq
      {0x01, 0x80},      // ACK whose only seq is truncated
      {0x01, 1, 0x82},   // valid seq 1, then a truncated one: nothing retires
      {0x02, 0x80},      // BATCH with a truncated seq
      {0x02, 1},         // BATCH carrying no payload
      {0x02, 1, 0x80},   // BATCH whose length prefix is truncated
      {0x02, 1, 2, 0xA1},  // BATCH whose payload runs past the frame end
      // A whole first payload, then one running past the end: neither is
      // delivered, and the seq is not acknowledged.
      {0x02, 1, 1, 0xA1, 3, 0xA2},
      {0x04, 0x80},      // RESEND with a truncated length
      {0x04, 3, 0x00, 1},  // RESEND whose frame runs past the frame end
      {0x04, 1, 0x00},   // RESEND holding a DATA frame without a seq
      {0x04, 2, 0x01, 1},  // RESEND holding an ACK frame
      // A whole DATA frame, then a truncated one: nothing is delivered.
      {0x04, 3, 0x00, 1, 0xA1, 4, 0x00, 2},
  };
  for (const Bytes& frame : garbage) node.deliver(1, frame);

  EXPECT_EQ(node.stats().malformed_dropped, std::size(garbage));
  EXPECT_EQ(node.stats().rtt_samples, 0u);
  EXPECT_FALSE(node.quiescent());
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(node.stats().acks_sent, 0u);
  EXPECT_EQ(wire.sent.size(), 2u);  // just the two DATA frames

  node.deliver(1, Bytes{0x01, 1, 2});
  EXPECT_TRUE(node.quiescent());
  EXPECT_EQ(node.stats().malformed_dropped, std::size(garbage));
}

// ------------------------------------------ tx window vs a map model -----

/// Three processes' wire: records every frame it is handed, delivers none.
class RecordingWire final : public DatagramTransport {
 public:
  void attach(ProcessId, MessageSink&) override {}
  void send(ProcessId, ProcessId to, Payload payload) override {
    sent.emplace_back(to, *payload);
  }
  [[nodiscard]] std::size_t n_procs() const override { return 3; }

  std::vector<std::pair<ProcessId, Bytes>> sent;
};

/// One DATA or BATCH frame as the node sent it.
struct SentData {
  ProcessId to;
  std::uint64_t seq;
  std::vector<Bytes> payloads;
  friend bool operator==(const SentData&, const SentData&) = default;
};

/// A RESUME frame, which a restored node repeats to each peer until the
/// peer answers.
bool is_resume(const std::pair<ProcessId, Bytes>& frame) {
  return frame.second == Bytes{0x03};
}

SentData parse_data(const std::pair<ProcessId, Bytes>& frame) {
  ByteReader r(frame.second);
  const auto type = r.u8();
  const auto seq = r.u64();
  EXPECT_TRUE(seq.has_value());
  SentData d{frame.first, seq.value_or(0), {}};
  if (type == std::optional<std::uint8_t>{0}) {
    const auto rest = r.rest();
    d.payloads.emplace_back(rest.begin(), rest.end());
    return d;
  }
  EXPECT_EQ(type, std::optional<std::uint8_t>{2});
  while (r.remaining() > 0) {
    const auto payload = r.take(static_cast<std::size_t>(r.u64().value_or(0)));
    EXPECT_TRUE(payload.has_value());
    if (!payload) break;
    d.payloads.emplace_back(payload->begin(), payload->end());
  }
  EXPECT_GE(d.payloads.size(), 2u) << "a batch of one is a DATA frame";
  return d;
}

/// The tx windows of node 0 kept as seq-keyed maps of payload lists, plus
/// each peer's open batch: the reference every walk of the window
/// (snapshot, restore) must match entry for entry.
struct WindowModel {
  using Entries = std::map<std::uint64_t, std::vector<Bytes>>;
  std::vector<std::uint64_t> next_seq = std::vector<std::uint64_t>(3, 1);
  std::vector<Entries> unacked = std::vector<Entries>(3);
  /// Sent under one seq, not yet transmitted (tick-driven nodes only).
  std::vector<std::optional<std::pair<std::uint64_t, std::vector<Bytes>>>>
      open = decltype(open)(3);

  void send(ProcessId to, const Bytes& payload, bool batched) {
    if (!open[to]) open[to].emplace(next_seq[to]++, std::vector<Bytes>{});
    open[to]->second.push_back(payload);
    if (!batched) transmit(to);
  }
  /// The open batch of `to` goes on the wire; what the node must send.
  std::optional<SentData> transmit(ProcessId to) {
    if (!open[to]) return std::nullopt;
    auto [seq, payloads] = std::move(*open[to]);
    open[to].reset();
    unacked[to][seq] = payloads;
    return SentData{to, seq, std::move(payloads)};
  }

  [[nodiscard]] bool drained(ProcessId to) const {
    return unacked[to].empty() && !open[to];
  }

  /// What restore() must retransmit, in order: every window, open batches
  /// included.
  [[nodiscard]] std::vector<SentData> in_order() const {
    std::vector<SentData> out;
    for (ProcessId to = 0; to < 3; ++to) {
      for (const auto& [seq, payloads] : unacked[to]) {
        out.push_back({to, seq, payloads});
      }
      if (open[to]) out.push_back({to, open[to]->first, open[to]->second});
    }
    return out;
  }

  /// `snapshot` with every tx window re-encoded from the model, one
  /// (seq, payload) pair per payload, and the RTT and rx sections copied:
  /// equal to `snapshot` iff the node's windows hold what the model holds,
  /// in the model's order.
  [[nodiscard]] Bytes expected_snapshot(const Bytes& snapshot) const {
    ByteReader r(snapshot);
    ByteWriter w;
    const auto n = r.u64();
    EXPECT_EQ(n, std::optional<std::uint64_t>{3});
    w.u64(3);
    for (ProcessId to = 0; to < 3; ++to) {
      (void)r.u64();  // next_seq
      const auto count = r.u64();
      for (std::uint64_t i = 0; i < count.value_or(0); ++i) {
        (void)r.u64();  // seq
        (void)r.take(static_cast<std::size_t>(r.u64().value_or(0)));
      }
      w.u64(next_seq[to]);
      const std::vector<SentData> entries = in_order();
      std::vector<std::pair<std::uint64_t, const Bytes*>> pairs;
      for (const SentData& entry : entries) {
        if (entry.to != to) continue;
        for (const Bytes& payload : entry.payloads) {
          pairs.emplace_back(entry.seq, &payload);
        }
      }
      w.u64(pairs.size());
      for (const auto& [seq, payload] : pairs) {
        w.u64(seq);
        w.u64(payload->size());
        w.bytes(*payload);
      }
      w.u8(r.u8().value_or(0));  // have_rtt, srtt, rttvar, rto
      for (int field = 0; field < 3; ++field) w.u64(r.u64().value_or(0));
    }
    EXPECT_TRUE(r.ok());
    w.bytes(r.rest());  // rx dedup state
    return std::move(w).take();
  }
};

Bytes snapshot_of(const ReliableNode& node) {
  ByteWriter w;
  node.snapshot(w);
  return std::move(w).take();
}

// Random send / tick / ack / retransmit / abandon / snapshot / restore
// sequences, with an epoch gap of 10⁶ seqs halfway: the window must hold
// exactly what a seq-keyed map would, so snapshot bytes and restore's
// retransmission order stay what they were when the window was one.  Run
// once sending at once and once tick-driven, where sends between two ticks
// to one peer are one entry holding a payload list.
TEST(ReliableNode, TxWindowMatchesASeqKeyedMapModel) {
  for (const bool batched : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      SCOPED_TRACE(testing::Message() << "batched " << batched << " seed "
                                      << seed);
      Rng rng(seed);
      EventQueue queue;
      RecordingWire wire;
      CollectingSink sink;
      WindowModel model;
      WindowModel abandoned;  // entries given up on, by the same keys
      ReliableConfig cfg;
      cfg.max_retries = 3;
      cfg.on_abandon = [&](ProcessId to, std::uint64_t seq) {
        const auto it = model.unacked[to].find(seq);
        ASSERT_NE(it, model.unacked[to].end()) << "abandoned seq " << seq;
        abandoned.unacked[to].insert(model.unacked[to].extract(it));
      };
      const auto fresh_node = [&] {
        auto node = std::make_unique<ReliableNode>(queue, wire, 0, sink, cfg);
        if (batched) node->flush();  // a tick edge: tick-driven from now on
        return node;
      };
      auto node = fresh_node();
      std::uint64_t restores = 0;
      std::size_t widest = 0;
      for (int step = 0; step < 3000; ++step) {
        if (step == 1500) {
          node->skip_tx_sequences(1'000'000);
          for (std::uint64_t& next : model.next_seq) next += 1'000'000;
        }
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
          const auto to = static_cast<ProcessId>(1 + rng.below(2));
          const Bytes payload{static_cast<std::uint8_t>(step),
                              static_cast<std::uint8_t>(step >> 8)};
          wire.sent.clear();
          node->send(to, make_payload(payload));
          model.send(to, payload, batched);
          if (batched) {
            EXPECT_TRUE(wire.sent.empty()) << "a send waits for the tick";
          } else {
            ASSERT_EQ(wire.sent.size(), 1u);
            const auto& [seq, payloads] = *model.unacked[to].rbegin();
            EXPECT_EQ(parse_data(wire.sent[0]), (SentData{to, seq, payloads}));
          }
        } else if (op < 55 && batched) {
          // The tick edge: one frame per peer with an open batch, in peer
          // order, carrying the batch's payloads in send order.
          wire.sent.clear();
          node->flush();
          std::vector<SentData> expected;
          for (ProcessId to = 1; to < 3; ++to) {
            if (model.open[to]) {
              widest = std::max(widest, model.open[to]->second.size());
            }
            if (auto d = model.transmit(to)) expected.push_back(std::move(*d));
          }
          std::vector<SentData> sent;
          for (const auto& frame : wire.sent) sent.push_back(parse_data(frame));
          EXPECT_EQ(sent, expected);
        } else if (op < 55) {
          // Sends go out at once: no tick edge.
        } else if (op < 80) {
          // Ack a few seqs of one peer: live ones anywhere in the window,
          // and now and then one already retired, never sent, or still in
          // the open batch (which an ACK must not retire).
          const auto from = static_cast<ProcessId>(1 + rng.below(2));
          ByteWriter ack;
          ack.u8(1);
          const std::uint64_t k = 1 + rng.below(4);
          for (std::uint64_t i = 0; i < k; ++i) {
            std::uint64_t seq = 1 + rng.below(model.next_seq[from] + 2);
            if (!model.unacked[from].empty() && rng.below(4) != 0) {
              auto it = model.unacked[from].begin();
              std::advance(it, static_cast<std::ptrdiff_t>(
                                   rng.below(model.unacked[from].size())));
              seq = it->first;
            }
            ack.u64(seq);
            model.unacked[from].erase(seq);
          }
          node->deliver(from, ack.buffer());
        } else if (op < 90) {
          // Let RTO timers fire: every retransmission is an entry that was
          // live when it went out, byte for byte; entries out of retries are
          // abandoned, possibly after a retransmission in the same stretch.
          wire.sent.clear();
          queue.run_until(queue.now() + rng.below(sim_ms(30)));
          for (const auto& frame : wire.sent) {
            if (is_resume(frame)) continue;  // a restored node's, unanswered
            const SentData d = parse_data(frame);
            auto it = model.unacked[d.to].find(d.seq);
            if (it == model.unacked[d.to].end()) {
              it = abandoned.unacked[d.to].find(d.seq);
              ASSERT_NE(it, abandoned.unacked[d.to].end()) << "seq " << d.seq;
            }
            EXPECT_EQ(d.payloads, it->second);
          }
        } else if (op < 96) {
          const Bytes snap = snapshot_of(*node);
          ASSERT_EQ(snap, model.expected_snapshot(snap));
        } else {
          // Crash and restore: the fresh node retransmits every window in
          // (peer, seq) order, an open batch as one frame of its own, then
          // sends each peer a RESUME frame, and snapshots the same bytes it
          // restored.
          const Bytes snap = snapshot_of(*node);
          wire.sent.clear();
          auto fresh = fresh_node();
          ByteReader r(snap);
          ASSERT_TRUE(fresh->restore(r));
          node = std::move(fresh);
          std::vector<SentData> resent;
          std::vector<ProcessId> resumed;
          for (const auto& frame : wire.sent) {
            if (is_resume(frame)) {
              resumed.push_back(frame.first);
            } else {
              EXPECT_TRUE(resumed.empty()) << "a RESUME went out first";
              resent.push_back(parse_data(frame));
            }
          }
          EXPECT_EQ(resent, model.in_order());
          EXPECT_EQ(resumed, (std::vector<ProcessId>{1, 2}));
          for (ProcessId to = 1; to < 3; ++to) (void)model.transmit(to);
          EXPECT_EQ(snapshot_of(*node), snap);
          ++restores;
        }
        ASSERT_EQ(node->quiescent(), model.drained(1) && model.drained(2));
      }
      EXPECT_FALSE(abandoned.in_order().empty());
      EXPECT_GT(restores, 0u);
      EXPECT_GT(model.next_seq[1], 1'000'000u);
      if (batched) {
        EXPECT_GE(widest, 3u) << "no multi-payload batch formed";
      }
    }
  }
}

// ------------------------------------------------ resume after restore -----

/// Two nodes' wire with a fixed one-way latency.  A frame to a node with no
/// sink attached (a crashed one) vanishes, and `drop` loses chosen frames.
class TwoNodeWire final : public DatagramTransport {
 public:
  TwoNodeWire(EventQueue& queue, SimTime latency)
      : queue_(&queue), latency_(latency) {}
  void attach(ProcessId p, MessageSink& sink) override { sinks[p] = &sink; }
  void send(ProcessId from, ProcessId to, Payload payload) override {
    if (from == 0 && (*payload)[0] != 0x01) data_sent_at.push_back(queue_->now());
    if (drop && drop(from, *payload)) return;
    if (from == 1 && *payload == Bytes{0x03}) resume_sent_at.push_back(queue_->now());
    queue_->schedule_after(latency_, [this, from, to, payload] {
      if (sinks[to] != nullptr) sinks[to]->deliver(from, *payload);
    });
  }
  [[nodiscard]] std::size_t n_procs() const override { return 2; }

  MessageSink* sinks[2] = {nullptr, nullptr};
  std::function<bool(ProcessId from, const Bytes& frame)> drop;
  std::vector<SimTime> data_sent_at;    ///< p0's DATA and RESEND frames
  std::vector<SimTime> resume_sent_at;  ///< p1's RESUME frames not dropped

 private:
  EventQueue* queue_;
  SimTime latency_;
};

// p0 sends to a crashed p1 until its backoff reaches max_rto.  p1 restarts
// from a checkpoint that predates the send, and its RESUME frame gets the
// payload back within one round trip, not at p0's next backed-off timer.
// Dropping the first RESUME only delays it to the repeat.
TEST(ReliableNode, ResumeFetchesABackedOffPeersWindowWithinOneRoundTrip) {
  constexpr SimTime kLatency = sim_us(100);
  for (const bool drop_first : {false, true}) {
    SCOPED_TRACE(testing::Message() << "drop first RESUME " << drop_first);
    EventQueue queue;
    TwoNodeWire wire(queue, kLatency);
    CollectingSink sinks[2];
    const ReliableConfig cfg;
    ReliableNode peer(queue, wire, 0, sinks[0], cfg);
    wire.attach(0, peer);
    Bytes checkpoint;
    {
      ReliableNode before_crash(queue, wire, 1, sinks[1], cfg);
      checkpoint = snapshot_of(before_crash);
    }

    peer.send(1, make_payload({0xA1}));
    queue.run_until(sim_ms(1500));
    ASSERT_GE(wire.data_sent_at.size(), 3u);
    const SimTime last_gap =
        wire.data_sent_at.back() - wire.data_sent_at[wire.data_sent_at.size() - 2];
    EXPECT_GE(last_gap, cfg.max_rto) << "p0 has backed off to max_rto";
    EXPECT_FALSE(peer.quiescent());

    bool dropped = false;
    wire.drop = [&](ProcessId from, const Bytes& frame) {
      if (!drop_first || dropped || from != 1 || frame != Bytes{0x03}) {
        return false;
      }
      dropped = true;
      return true;
    };
    ReliableNode restored(queue, wire, 1, sinks[1], cfg);
    wire.attach(1, restored);
    const SimTime restart_at = queue.now();
    ByteReader r(checkpoint);
    ASSERT_TRUE(restored.restore(r));
    while (sinks[1].received.empty() && queue.now() < restart_at + cfg.max_rto) {
      ASSERT_TRUE(queue.step());
    }
    ASSERT_EQ(sinks[1].received.size(), 1u);
    EXPECT_EQ(sinks[1].received[0].second, Bytes{0xA1});
    ASSERT_EQ(wire.resume_sent_at.size(), 1u);
    EXPECT_EQ(dropped, drop_first);
    EXPECT_LE(queue.now() - wire.resume_sent_at[0], 2 * kLatency);
    EXPECT_LE(wire.resume_sent_at[0] - restart_at, drop_first ? 2 * cfg.rto : 0);

    // p1's ACK retires the entry, and the answered RESUME stops repeating.
    queue.run_until(queue.now() + sim_ms(1));
    EXPECT_TRUE(peer.quiescent());
    queue.run_until(queue.now() + 4 * cfg.max_rto);
    EXPECT_EQ(wire.resume_sent_at.size(), 1u);
    EXPECT_EQ(sinks[1].received.size(), 1u);
  }
}

TEST(ReliableNode, ABatchAtTheByteCapLeavesAndTheNextSendOpensANewSeq) {
  EventQueue queue;
  RecordingWire wire;
  CollectingSink sink;
  ReliableNode node(queue, wire, 0, sink);
  node.flush();  // a tick edge: tick-driven from now on
  // Each 1000-byte payload takes 1002 batch bytes with its length prefix.
  constexpr std::size_t kSize = 1000;
  constexpr std::size_t kFit = ReliableNode::kMaxBatchBytes / (kSize + 2);
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i <= kFit; ++i) {
    payloads.emplace_back(kSize, static_cast<std::uint8_t>(i));
    node.send(1, make_payload(payloads.back()));
  }
  // The send that would have passed the cap sent the full batch at once.
  ASSERT_EQ(wire.sent.size(), 1u);
  EXPECT_EQ(parse_data(wire.sent[0]),
            (SentData{1, 1, {payloads.begin(), payloads.end() - 1}}));
  node.flush();
  ASSERT_EQ(wire.sent.size(), 2u);
  EXPECT_EQ(parse_data(wire.sent[1]), (SentData{1, 2, {payloads.back()}}));
  EXPECT_EQ(node.stats().data_sent, kFit + 1);
}

// --------------------------- combined drop + duplicate + reorder stress -----

struct StressParams {
  std::uint64_t seed;
  SimTime ack_delay = 0;
  SimTime tick = 0;  ///< > 0: tick-driven nodes, a tick edge this often
};

// Rows with immediate ACKs print as their bare seed, the suite's original
// parameter, so their test names stay put.
void PrintTo(const StressParams& p, std::ostream* os) {
  *os << p.seed;
  if (p.ack_delay > 0) *os << "_ack_delay_" << p.ack_delay;
  if (p.tick > 0) *os << "_tick_" << p.tick;
}

class ArqStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(ArqStress, ExactlyOnceBothWaysUnderCombinedFaults) {
  // High drop + high duplication + wide latency spread (channels are
  // non-FIFO): the exactly-once contract must hold in both directions and
  // the channel must go quiescent with nothing abandoned.
  const std::uint64_t seed = GetParam().seed;
  FaultPlan plan;
  plan.drop = 0.5;
  plan.duplicate = 0.5;
  plan.seed = seed;
  ReliableConfig config;
  config.ack_delay = GetParam().ack_delay;
  const SimTime tick = GetParam().tick;
  ArqFixture fx(plan, /*latency_scale=*/400, config);

  constexpr int kMessages = 300;
  const auto send_both = [&fx](int i) {
    const auto lo = static_cast<std::uint8_t>(i);
    const auto hi = static_cast<std::uint8_t>(i >> 8);
    fx.nodes[0]->send(1, make_payload({lo, hi}));
    fx.nodes[1]->send(0, make_payload({lo, hi}));
  };
  // Tick-driven rows: a send every 20 µs, a tick edge every `tick` µs, so
  // each tick sends a batch of several payloads; batch_of[i] is the tick
  // whose batch carries payload i.
  std::vector<std::uint64_t> batch_of(kMessages, 0);
  std::uint64_t ticks = 0;
  std::function<void()> tick_edge = [&] {
    ++ticks;
    for (auto& node : fx.nodes) node->flush();
    if (fx.queue.now() < kMessages * sim_us(20)) {
      fx.queue.schedule_after(tick, tick_edge);
    }
  };
  if (tick == 0) {
    for (int i = 0; i < kMessages; ++i) send_both(i);
  } else {
    fx.queue.schedule_at(0, tick_edge);
    for (int i = 0; i < kMessages; ++i) {
      fx.queue.schedule_at(static_cast<SimTime>(i) * sim_us(20), [&, i] {
        batch_of[static_cast<std::size_t>(i)] = ticks;
        send_both(i);
      });
    }
  }
  fx.queue.run();

  for (std::size_t receiver = 0; receiver < 2; ++receiver) {
    const auto& sink = fx.sinks[receiver];
    const auto& sender = *fx.nodes[receiver == 0 ? 1 : 0];
    ASSERT_EQ(sink.received.size(), static_cast<std::size_t>(kMessages))
        << "receiver " << receiver << " seed " << seed;
    EXPECT_EQ(sender.stats().data_sent, static_cast<std::uint64_t>(kMessages));
    std::set<int> values;
    for (const auto& [from, bytes] : sink.received) {
      values.insert(bytes[0] | bytes[1] << 8);
    }
    // No payload delivered upward twice, none missing.
    EXPECT_EQ(values.size(), static_cast<std::size_t>(kMessages));
    if (tick > 0) {
      // Each batch reached the receiver once, whole and in send order: its
      // payloads are one run of consecutive values.  Batches themselves
      // may arrive in any order (the channel is not FIFO).
      std::set<std::uint64_t> batches_done;
      std::size_t runs = 0;
      int prev = -1;
      for (const auto& [from, bytes] : sink.received) {
        const int value = bytes[0] | bytes[1] << 8;
        const std::uint64_t batch = batch_of[static_cast<std::size_t>(value)];
        if (prev >= 0 && batch == batch_of[static_cast<std::size_t>(prev)]) {
          EXPECT_EQ(value, prev + 1) << "inside batch " << batch;
        } else {
          EXPECT_TRUE(batches_done.insert(batch).second)
              << "batch " << batch << " split";
          ++runs;
        }
        prev = value;
      }
      EXPECT_LT(runs, static_cast<std::size_t>(kMessages) / 2)
          << "batches should carry several payloads each";
    }
    EXPECT_EQ(sender.stats().abandoned, 0u);
    EXPECT_TRUE(sender.quiescent());
    if (config.ack_delay > 0) {
      // Held ACKs coalesce: fewer ACK frames than DATA frames arrived.
      const ReliableStats& rx = fx.nodes[receiver]->stats();
      EXPECT_LT(rx.acks_sent, rx.delivered + rx.duplicates_suppressed);
    }
  }
  EXPECT_GT(fx.net->fault_stats().dropped, 0u);
  EXPECT_GT(fx.net->fault_stats().duplicated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ArqStress,
    ::testing::Values(StressParams{11}, StressParams{12}, StressParams{13},
                      StressParams{14}, StressParams{15},
                      StressParams{11, sim_us(300)},
                      StressParams{12, sim_us(300)},
                      StressParams{13, sim_us(300)},
                      StressParams{11, 0, sim_us(100)},
                      StressParams{12, 0, sim_us(100)},
                      StressParams{13, sim_us(300), sim_us(100)}));

// ------------------------------------- end-to-end protocol over loss -------

struct LossyParams {
  ProtocolKind kind;
  double drop;
  double duplicate;
  std::uint64_t seed;
  SimTime ack_delay = 0;
};

// Names the row in the test name; gtest's default byte dump would include
// the struct's indeterminate padding and change from build to build.
void PrintTo(const LossyParams& p, std::ostream* os) {
  *os << "drop=" << p.drop << " dup=" << p.duplicate;
  if (p.ack_delay > 0) *os << " ack_delay=" << p.ack_delay;
}

class LossySweep : public ::testing::TestWithParam<LossyParams> {};

TEST_P(LossySweep, ProtocolCorrectOverFaultyNetwork) {
  const auto& p = GetParam();
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 4;
  spec.ops_per_proc = 40;
  spec.write_fraction = 0.5;
  spec.mean_gap = sim_us(400);
  spec.seed = p.seed;

  const UniformLatency latency(sim_us(100), sim_us(900), p.seed ^ 0xA0);
  SimRunConfig cfg;
  cfg.kind = p.kind;
  cfg.n_procs = 4;
  cfg.n_vars = 4;
  cfg.latency = &latency;
  cfg.fault.drop = p.drop;
  cfg.fault.duplicate = p.duplicate;
  cfg.fault.seed = p.seed ^ 0xFA;
  cfg.arq.rto = sim_ms(3);
  cfg.arq.ack_delay = p.ack_delay;
  // The token circulates forever; cap it so the post-workload queue drains
  // (grants keep the ARQ layer non-quiescent otherwise).
  cfg.protocol_config.token_max_rounds = 2000;

  const auto result = run_sim(cfg, generate_workload(spec));
  ASSERT_TRUE(result.settled);
  EXPECT_GT(result.faults.dropped, 0u);
  EXPECT_GT(result.reliable.retransmissions, 0u);
  EXPECT_EQ(result.reliable.abandoned, 0u);
  // Exactly once: every payload sent was delivered upward once.
  EXPECT_EQ(result.reliable.delivered, result.reliable.data_sent);

  EXPECT_TRUE(
      ConsistencyChecker::check(result.recorder->history()).consistent());
  const auto audit = OptimalityAuditor::audit(*result.recorder);
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  if (p.kind == ProtocolKind::kOptP) {
    EXPECT_EQ(audit.total_unnecessary(), 0u);  // Theorem 4 survives loss
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LossySweep,
    ::testing::Values(LossyParams{ProtocolKind::kOptP, 0.2, 0.0, 1},
                      LossyParams{ProtocolKind::kOptP, 0.4, 0.2, 2},
                      LossyParams{ProtocolKind::kAnbkh, 0.2, 0.1, 3},
                      LossyParams{ProtocolKind::kOptPWs, 0.3, 0.1, 4},
                      LossyParams{ProtocolKind::kTokenWs, 0.2, 0.1, 5},
                      LossyParams{ProtocolKind::kOptP, 0.3, 0.2, 6, sim_us(300)},
                      LossyParams{ProtocolKind::kAnbkh, 0.2, 0.1, 7,
                                  sim_us(300)}),
    [](const ::testing::TestParamInfo<LossyParams>& param_info) {
      std::string name = to_string(param_info.param.kind);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += "_s" + std::to_string(param_info.param.seed);
      if (param_info.param.ack_delay > 0) name += "_held_acks";
      return name;
    });

}  // namespace
}  // namespace dsm
