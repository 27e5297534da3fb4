// NodeStack: the crash unit both transport-backed tiers host — ARQ plus
// ProtocolHost, killed and restarted together, with one checkpoint blob.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsm/net/process_cluster.h"
#include "dsm/runtime/node_stack.h"
#include "dsm/sim/network.h"
#include "dsm/storage/snapshot_file.h"
#include "dsm/storage/state_dir.h"

namespace dsm {
namespace {

struct ReceiptCounter final : ProtocolObserver {
  void on_receipt(ProcessId at, const WriteUpdate&) override {
    ++receipts[at];
  }
  std::vector<std::uint64_t> receipts = std::vector<std::uint64_t>(2, 0);
};

ProtocolHost::Shape recoverable_shape(ProcessId self) {
  ProtocolHost::Shape shape;
  shape.kind = ProtocolKind::kOptP;
  shape.self = self;
  shape.n_procs = 2;
  shape.n_vars = 2;
  shape.recoverable = true;
  return shape;
}

/// Two recoverable stacks with ARQ on a 100 µs simulated network.
struct StackPair {
  explicit StackPair(const ReliableConfig& arq = {}) {
    for (ProcessId p = 0; p < 2; ++p) {
      stacks.push_back(std::make_unique<NodeStack>(
          queue, net, recoverable_shape(p), arq, observer));
    }
    for (auto& stack : stacks) stack->start();
  }
  /// p's own write, checkpointed right after it as the harness does.
  void write(ProcessId p, Value v) {
    stacks[p]->host().protocol().write(0, v);
    stacks[p]->host().note_mutation();
  }
  EventQueue queue;
  ConstantLatency latency{sim_us(100)};
  Network net{queue, latency, 2};
  ReceiptCounter observer;
  std::vector<std::unique_ptr<NodeStack>> stacks;
};

TEST(NodeStack, FrameDeliveredWhileDownIsCountedAndReachesNothing) {
  StackPair pair;
  pair.stacks[1]->kill();
  EXPECT_EQ(pair.stacks[1]->arq(), nullptr);
  pair.write(0, 7);
  pair.queue.run_until(sim_ms(1));

  // The frame (and any retransmission) landed on the down stack and stopped
  // there: no ARQ saw it, no protocol received it.
  EXPECT_GE(pair.stacks[1]->host().dropped_while_down(), 1u);
  EXPECT_EQ(pair.observer.receipts[1], 0u);
  EXPECT_EQ(pair.stacks[1]->reliable_stats().delivered, 0u);

  // After the restart the write gets through — by catch-up and by the
  // sender's retransmission (a replay filter would record it once).
  pair.stacks[1]->restart();
  pair.queue.run_until(sim_ms(200));
  EXPECT_GE(pair.observer.receipts[1], 1u);
  EXPECT_EQ(pair.stacks[1]->host().protocol().peek(0).value, 7);
  EXPECT_TRUE(pair.stacks[0]->quiescent());
}

TEST(NodeStack, RestartRetransmitsWhatWasUnackedAtTheCheckpoint) {
  StackPair pair;
  pair.write(0, 5);  // checkpointed before its ACK can arrive
  pair.stacks[0]->kill();
  pair.queue.run_until(sim_ms(1));  // the original reaches p1; the ACK dies
  EXPECT_EQ(pair.observer.receipts[1], 1u);

  pair.stacks[0]->restart();
  const ReliableNode* arq = pair.stacks[0]->arq();
  ASSERT_NE(arq, nullptr);
  EXPECT_EQ(arq->stats().retransmissions, 1u);
  EXPECT_FALSE(arq->quiescent());
  pair.queue.run_until(sim_ms(10));

  // p1's ARQ suppressed the copy; p0's channel drained; p1 applied once.
  EXPECT_TRUE(pair.stacks[0]->quiescent());
  EXPECT_EQ(pair.stacks[1]->reliable_stats().duplicates_suppressed, 1u);
  EXPECT_EQ(pair.observer.receipts[1], 1u);
  EXPECT_EQ(pair.stacks[0]->reliable_stats().data_sent, 2u);  // + catch-up
}

TEST(NodeStack, AcksHeldAtAKillAreRepairedByThePeersRetransmission) {
  ReliableConfig arq;
  arq.ack_delay = sim_us(300);
  StackPair pair(arq);
  pair.write(0, 5);
  pair.queue.run_until(sim_us(150));  // p1 has the write; its ACK is held
  EXPECT_EQ(pair.observer.receipts[1], 1u);
  EXPECT_EQ(pair.stacks[1]->reliable_stats().acks_sent, 0u);

  // The held ACK dies with p1, which restarts from the checkpoint its
  // receipt took: the dedup there already holds the write's seq.
  pair.stacks[1]->kill();
  pair.stacks[1]->restart();
  pair.queue.run_until(sim_ms(20));

  // p0's RTO retransmitted; p1 suppressed the copy, ACKed it, and p0's
  // channel drained.  The write was delivered upward once.
  EXPECT_GE(pair.stacks[0]->reliable_stats().retransmissions, 1u);
  EXPECT_EQ(pair.stacks[1]->reliable_stats().duplicates_suppressed, 1u);
  EXPECT_GE(pair.stacks[1]->reliable_stats().acks_sent, 1u);
  EXPECT_TRUE(pair.stacks[0]->quiescent());
  EXPECT_TRUE(pair.stacks[1]->quiescent());
  EXPECT_EQ(pair.observer.receipts[1], 1u);
  EXPECT_EQ(pair.stacks[1]->host().protocol().peek(0).value, 5);
}

TEST(NodeStack, DecodeRejectsTruncatedFraming) {
  StackPair pair;
  pair.write(0, 3);
  ByteWriter w;
  pair.stacks[0]->encode_checkpoint(w);
  const std::vector<std::uint8_t> blob = std::move(w).take();
  ByteReader whole(blob);
  ASSERT_TRUE(NodeStack::decode_checkpoint(whole).has_value());
  EXPECT_TRUE(whole.exhausted());
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ByteReader r(std::span<const std::uint8_t>(blob.data(), cut));
    EXPECT_FALSE(NodeStack::decode_checkpoint(r).has_value()) << "cut " << cut;
  }
}

/// A snapshot file a durable ProcessNode spilled is [u64 op count] + the
/// stack's encoded checkpoint: it decodes, and a fresh stack boots from it
/// into the state the node had.
TEST(NodeStack, SpilledSnapshotRoundTripsThroughTheDecoder) {
  std::string state_dir = "/tmp/optcm-node-stack-XXXXXX";
  ASSERT_NE(::mkdtemp(state_dir.data()), nullptr);
  ProcessClusterConfig config;
  config.shape.kind = ProtocolKind::kOptP;
  config.shape.n_procs = 3;
  config.shape.n_vars = 2;
  config.shape.recoverable = true;
  config.state_dir = state_dir;
  config.fsync = FsyncPolicy::kNone;
  ProcessCluster cluster(config);
  ASSERT_TRUE(cluster.spawn());
  ASSERT_TRUE(cluster.wait_ready());
  constexpr Value kLast = 4;
  std::vector<Script> scripts(3);
  for (Value v = 1; v <= kLast; ++v) {
    scripts[0].push_back(write_step(sim_ms(1), 0, v));
  }
  scripts[1].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  scripts[2].push_back(read_until_step(0, 0, kLast, sim_ms(1)));
  ASSERT_TRUE(cluster.run(scripts, /*time_scale=*/1));
  ASSERT_TRUE(cluster.wait_done());
  EXPECT_TRUE(cluster.shutdown());

  for (ProcessId p = 0; p < 3; ++p) {
    const auto dir = StateDir::open(StateDir::node_subdir(state_dir, p));
    ASSERT_TRUE(dir.has_value());
    const auto snap = SnapshotFile::read(dir->snapshot_path());
    ASSERT_TRUE(snap.has_value()) << "p" << p;
    ByteReader r(*snap);
    const auto ops = r.u64();
    ASSERT_TRUE(ops.has_value());
    EXPECT_EQ(*ops, p == 0 ? 4u : 1u) << "p" << p;  // local ops
    const auto checkpoint = NodeStack::decode_checkpoint(r);
    ASSERT_TRUE(checkpoint.has_value()) << "p" << p;
    EXPECT_TRUE(r.exhausted());

    EventQueue queue;
    const ConstantLatency latency(sim_us(100));
    Network net(queue, latency, 3);
    ProtocolObserver observer;
    std::optional<NodeStack> others[3];
    ProtocolHost::Shape shape = config.shape;
    for (ProcessId q = 0; q < 3; ++q) {
      shape.self = q;
      others[q].emplace(queue, net, shape, net_reliable_defaults(), observer);
    }
    others[p]->start(&*checkpoint);  // restores ARQ, protocol and recovery
    EXPECT_EQ(others[p]->host().protocol().peek(0).value, kLast) << "p" << p;
  }
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
}

}  // namespace
}  // namespace dsm
