// NodeStack: the crash unit every host runs — protocol plus ARQ, killed and
// restarted together, with one checkpoint blob and one restore path.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsm/runtime/node_stack.h"
#include "dsm/runtime/observer_chain.h"
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

NodeStack::Shape recoverable_shape(ProcessId self, std::size_t n_procs = 2) {
  NodeStack::Shape shape;
  shape.kind = ProtocolKind::kOptP;
  shape.self = self;
  shape.n_procs = n_procs;
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
    stacks[p]->protocol().write(0, v);
    stacks[p]->checkpoint();
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
  EXPECT_GE(pair.stacks[1]->node_stats().dropped_while_down, 1u);
  EXPECT_EQ(pair.observer.receipts[1], 0u);
  EXPECT_EQ(pair.stacks[1]->reliable_stats().delivered, 0u);

  // After the restart the write gets through: p1's RESUME frame makes p0
  // resend its window.
  pair.stacks[1]->restart();
  pair.queue.run_until(sim_ms(200));
  EXPECT_GE(pair.observer.receipts[1], 1u);
  EXPECT_EQ(pair.stacks[1]->protocol().peek(0).value, 7);
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
  EXPECT_EQ(pair.stacks[0]->reliable_stats().data_sent, 1u);
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
  EXPECT_EQ(pair.stacks[1]->protocol().peek(0).value, 5);
}

TEST(NodeStack, KillWithAnOpenBatchRestartsAndDeliversItOnce) {
  StackPair pair;
  // A tick edge every 200 µs, as a NetLoop host has one per pass; the first,
  // at time 0, makes both ARQs tick-driven.
  std::function<void()> tick = [&] {
    for (auto& stack : pair.stacks) stack->tick();
    if (pair.queue.now() < sim_ms(50)) {
      pair.queue.schedule_after(sim_us(200), tick);
    }
  };
  tick();
  // Three writes in one tick: one open batch to p1, in each checkpoint.
  for (Value v = 1; v <= 3; ++v) pair.write(0, v);
  ASSERT_NE(pair.stacks[0]->arq(), nullptr);
  EXPECT_EQ(pair.stacks[0]->arq()->stats().data_sent, 3u);
  EXPECT_FALSE(pair.stacks[0]->quiescent());

  // Killed before the tick edge: nothing of the batch reached the wire.
  pair.stacks[0]->kill();
  pair.queue.run_until(sim_ms(1));
  EXPECT_EQ(pair.observer.receipts[1], 0u);

  // The restored ARQ resends the batch as one frame; p1 gets every payload
  // once, in order, and the last write wins.
  pair.stacks[0]->restart();
  ASSERT_NE(pair.stacks[0]->arq(), nullptr);
  EXPECT_EQ(pair.stacks[0]->arq()->stats().retransmissions, 1u);
  pair.queue.run_until(sim_ms(60));
  EXPECT_EQ(pair.observer.receipts[1], 3u);
  // Every payload p0 sent (the three writes) reached p1 exactly once.
  EXPECT_EQ(pair.stacks[1]->reliable_stats().delivered,
            pair.stacks[0]->reliable_stats().data_sent);
  EXPECT_EQ(pair.stacks[1]->reliable_stats().duplicates_suppressed, 0u);
  EXPECT_EQ(pair.stacks[1]->protocol().peek(0).value, 3);
  EXPECT_TRUE(pair.stacks[0]->quiescent());
  EXPECT_TRUE(pair.stacks[1]->quiescent());
}

TEST(NodeStack, DecodeRejectsTruncatedFraming) {
  StackPair pair;
  pair.write(0, 3);
  const std::vector<std::uint8_t> blob = pair.stacks[0]->checkpoint_bytes();
  ByteReader whole(blob);
  ASSERT_TRUE(NodeStack::decode_checkpoint(whole).has_value());
  EXPECT_TRUE(whole.exhausted());
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    ByteReader r(std::span<const std::uint8_t>(blob.data(), cut));
    EXPECT_FALSE(NodeStack::decode_checkpoint(r).has_value()) << "cut " << cut;
  }
}

/// The protocol's own snapshot: its Write_co, apply vector and pending
/// buffer, as bytes.
std::vector<std::uint8_t> protocol_state(const NodeStack& stack) {
  ByteWriter w;
  stack.protocol().snapshot(w);
  return std::move(w).take();
}

/// An in-process restart and a boot from a spilled checkpoint are one path:
/// a stack killed and restarted holds the same bytes as a fresh stack booted
/// from the checkpoint it had when it died.
TEST(NodeStack, RestartBootsLikeAFreshStackFromTheSameCheckpoint) {
  StackPair pair;
  pair.write(0, 1);
  pair.write(1, 2);
  pair.queue.run_until(sim_ms(1));  // each has the other's write
  pair.write(1, 3);                 // and p1's ACK for it is still in flight
  ASSERT_EQ(pair.observer.receipts[1], 1u);
  ASSERT_EQ(pair.observer.receipts[0], 1u);
  ASSERT_NE(pair.stacks[1]->arq(), nullptr);
  ASSERT_FALSE(pair.stacks[1]->arq()->quiescent());
  const std::vector<std::uint8_t> blob = pair.stacks[1]->checkpoint_bytes();

  pair.stacks[1]->kill();
  pair.stacks[1]->restart();

  EventQueue queue;
  const ConstantLatency latency(sim_us(100));
  Network net(queue, latency, 2);
  ProtocolObserver observer;
  const NodeStack peer(queue, net, recoverable_shape(0), ReliableConfig{},
                       observer);
  NodeStack fresh(queue, net, recoverable_shape(1), ReliableConfig{},
                  observer);
  ByteReader r(blob);
  const auto checkpoint = NodeStack::decode_checkpoint(r);
  ASSERT_TRUE(checkpoint.has_value());
  fresh.start(&*checkpoint);

  EXPECT_EQ(pair.stacks[1]->checkpoint_bytes(), fresh.checkpoint_bytes());
  EXPECT_EQ(protocol_state(*pair.stacks[1]), protocol_state(fresh));
  EXPECT_EQ(pair.stacks[1]->protocol().peek(0).value, 3);
  EXPECT_EQ(fresh.protocol().peek(0).value, 3);
  // Both retransmitted the unacked write and resumed the peer.
  EXPECT_EQ(pair.stacks[1]->arq()->stats().retransmissions, 1u);
  EXPECT_EQ(fresh.arq()->stats().retransmissions, 1u);
}

/// A fresh directory under /tmp, removed with everything in it.
struct TempDir {
  TempDir() {
    path = "/tmp/optcm-node-stack-XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) path.clear();
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

/// A durable stack with what a process node gives it: the run log its WAL
/// holds, and an observer chain with a replay filter (`beside` sees the
/// filtered events).  start() boots it from `storage.dir`.
struct DurableStack {
  DurableStack(EventQueue& queue, DatagramTransport& link,
               const NodeStack::Shape& shape, NodeStack::Storage storage,
               const ReliableConfig& arq = {},
               ProtocolObserver* beside = nullptr)
      : log(shape.n_procs, shape.n_vars, [&queue] { return queue.now(); }),
        chain(log, shape.n_procs, shape.n_vars,
              {.beside = beside != nullptr
                             ? std::vector<ProtocolObserver*>{beside}
                             : std::vector<ProtocolObserver*>{},
               .replay_filter = true,
               .objects = nullptr}),
        self(shape.self) {
    storage.log = &log;
    storage.filter = chain.filter();
    stack.emplace(queue, link, shape, arq, chain.head(), nullptr,
                  std::move(storage));
    stack->start();
  }
  /// A write or read, recorded and checkpointed as a script step is.
  void write(VarId x, Value v) {
    log.record_write(self, x, v);
    stack->protocol().write(x, v);
    stack->checkpoint();
  }
  void read(VarId x) {
    log.record_read(self, x, stack->protocol().read(x));
    stack->checkpoint();
  }

  RunRecorder log;
  ObserverChain chain;
  ProcessId self;
  std::optional<NodeStack> stack;
};

NodeStack::Storage storage_in(const TempDir& dir) {
  NodeStack::Storage storage;
  storage.dir = dir.path;
  storage.fsync = FsyncPolicy::kNone;
  return storage;
}

/// The protocol part of a stack's last checkpoint.
std::vector<std::uint8_t> protocol_part(const NodeStack& stack) {
  ByteReader r(stack.checkpoint_bytes());
  const auto checkpoint = NodeStack::decode_checkpoint(r);
  if (!checkpoint) return {};
  return {checkpoint->protocol.begin(), checkpoint->protocol.end()};
}

/// The stack owns the spill contract: while no snapshot lands, no ACK leaves
/// the stack and the sender's window stays unacked; the first tick() at
/// which the retried spill lands releases them.  Under FsyncPolicy::kNone
/// the only fsync the storage makes is each snapshot's, so failing fsync
/// calls 2–4 fails the three spills after the boot's.
TEST(NodeStack, AcksWaitForASpillThatLands) {
  TempDir dir;
  EventQueue queue;
  const ConstantLatency latency(sim_us(100));
  Network net(queue, latency, 2);
  ReceiptCounter observer;
  NodeStack p0(queue, net, recoverable_shape(0), ReliableConfig{}, observer);
  p0.start();
  NodeStack::Storage storage = storage_in(dir);
  storage.failpoints.push_back({StorageFailpoint::Op::kFsync,
                                StorageFailpoint::Kind::kEio, 2, 3});
  DurableStack p1(queue, net, recoverable_shape(1), std::move(storage), {},
                  &observer);
  const auto spills = [&p1] {
    const NodeStats s = p1.stack->node_stats();
    return s.snapshot_writes + s.snapshot_failures;
  };
  EXPECT_EQ(p1.stack->node_stats().snapshot_writes, 1u);  // the boot's
  p1.stack->checkpoint();  // the spill fails: the ACKs are held
  EXPECT_EQ(spills(), 2u);

  p0.protocol().write(0, 4);
  p0.checkpoint();
  queue.run_until(sim_ms(5));  // p0's RTO fires and resends, too
  EXPECT_EQ(observer.receipts[1], 1u);
  EXPECT_EQ(p1.stack->protocol().peek(0).value, 4);
  EXPECT_EQ(p1.stack->reliable_stats().acks_sent, 0u);
  EXPECT_GE(p0.reliable_stats().retransmissions, 1u);
  EXPECT_FALSE(p0.quiescent());
  EXPECT_EQ(spills(), 3u);  // the frame that delivered spilled

  // A tick retries the spill; while it still fails nothing is released.
  p1.stack->tick();
  EXPECT_EQ(spills(), 4u);
  EXPECT_EQ(p1.stack->reliable_stats().acks_sent, 0u);
  queue.run_until(sim_ms(6));
  EXPECT_FALSE(p0.quiescent());

  // The spill lands at the next tick, and the held ACKs leave with it.
  p1.stack->tick();
  EXPECT_EQ(spills(), 5u);
  EXPECT_EQ(p1.stack->node_stats().snapshot_writes, 2u);
  EXPECT_GE(p1.stack->reliable_stats().acks_sent, 1u);
  queue.run_until(sim_ms(7));
  EXPECT_TRUE(p0.quiescent());

  // Landed: the next tick retries nothing.
  p1.stack->tick();
  EXPECT_EQ(spills(), 5u);
}

/// A BATCH frame is checkpointed once, after all its payloads.  The ARQ marks
/// the frame's seq seen before its first payload goes up, so a checkpoint
/// between two payloads would restore a stack that suppresses the resent
/// batch as a duplicate and never gets the second payload.
TEST(NodeStack, BatchFrameIsCheckpointedOnceAfterAllItsPayloads) {
  TempDir dir;
  EventQueue queue;
  const ConstantLatency latency(sim_us(100));
  Network net(queue, latency, 2);
  ReceiptCounter observer;
  ReliableConfig arq;
  arq.ack_delay = sim_us(300);  // p1's ACK is still held when p1 dies
  NodeStack p0(queue, net, recoverable_shape(0), arq, observer);
  p0.start();
  auto p1 = std::make_unique<DurableStack>(queue, net, recoverable_shape(1),
                                           storage_in(dir), arq, &observer);
  p0.tick();  // tick-driven: both writes share one frame
  for (Value v = 1; v <= 2; ++v) {
    p0.protocol().write(0, v);
    p0.checkpoint();
  }
  p0.tick();
  queue.run_until(sim_us(150));
  EXPECT_EQ(observer.receipts[1], 2u);
  // The boot's snapshot, then one for the whole frame.
  EXPECT_EQ(p1->stack->node_stats().snapshot_writes, 2u);

  // p1 dies before its ACK leaves and boots from the frame's snapshot.
  net.detach(1);
  p1 = std::make_unique<DurableStack>(queue, net, recoverable_shape(1),
                                      storage_in(dir), arq, &observer);
  EXPECT_EQ(p1->stack->protocol().peek(0).value, 2);
  queue.run_until(sim_ms(20));
  EXPECT_TRUE(p0.quiescent());
  EXPECT_EQ(p1->stack->reliable_stats().duplicates_suppressed, 1u);
  EXPECT_EQ(p1->stack->protocol().peek(0).value, 2);
  EXPECT_EQ(observer.receipts[1], 2u);
}

/// A snapshot file a durable stack spilled is [u64 op count] + the stack's
/// encoded checkpoint: it decodes, and a fresh stack boots from it into the
/// state the durable one had.
TEST(NodeStack, SpilledSnapshotRoundTripsThroughTheDecoder) {
  constexpr std::size_t kProcs = 3;
  constexpr Value kLast = 4;
  TempDir root;
  EventQueue queue;
  const ConstantLatency latency(sim_us(100));
  Network net(queue, latency, kProcs);
  std::vector<std::unique_ptr<DurableStack>> nodes;
  for (ProcessId p = 0; p < kProcs; ++p) {
    NodeStack::Storage storage;
    storage.dir = StateDir::node_subdir(root.path, p);
    storage.fsync = FsyncPolicy::kNone;
    nodes.push_back(std::make_unique<DurableStack>(
        queue, net, recoverable_shape(p, kProcs), std::move(storage)));
  }
  for (Value v = 1; v <= kLast; ++v) {
    nodes[0]->write(0, v);
    queue.run_until(queue.now() + sim_ms(1));
  }
  for (ProcessId p = 1; p < kProcs; ++p) nodes[p]->read(0);
  queue.run_until(queue.now() + sim_ms(1));

  for (ProcessId p = 0; p < kProcs; ++p) {
    const auto dir = StateDir::open(StateDir::node_subdir(root.path, p));
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

    EventQueue fresh_queue;
    Network fresh_net(fresh_queue, latency, kProcs);
    ProtocolObserver observer;
    std::optional<NodeStack> fresh[kProcs];
    for (ProcessId q = 0; q < kProcs; ++q) {
      fresh[q].emplace(fresh_queue, fresh_net, recoverable_shape(q, kProcs),
                       ReliableConfig{}, observer);
    }
    fresh[p]->start(&*checkpoint);  // restores ARQ and protocol
    EXPECT_EQ(fresh[p]->protocol().peek(0).value, kLast) << "p" << p;
  }
}

/// One step of the durable-boot script: process `p` writes `value` to `var`,
/// or reads `var`.  p0 is durable; p1 is a plain recoverable peer.
struct Step {
  ProcessId p;
  bool write;
  VarId var;
  Value value;
};
constexpr Step kBootScript[] = {
    {1, true, 1, 10}, {0, true, 0, 1},  {0, false, 1, 0}, {1, true, 1, 11},
    {0, true, 0, 2},  {0, false, 1, 0}, {0, true, 1, 3},  {0, false, 0, 0},
};
constexpr std::size_t kBootOps = 6;  ///< p0's steps in kBootScript

/// Runs kBootScript on a durable p0 and a plain p1 up to p0's `k`th op,
/// letting the network settle before each step.
struct BootRun {
  BootRun(const TempDir& dir, std::size_t k,
          std::vector<StorageFailpoint> failpoints = {}) {
    NodeStack::Storage storage = storage_in(dir);
    storage.failpoints = std::move(failpoints);
    p0.emplace(queue, net, recoverable_shape(0), std::move(storage));
    p1.start();
    std::size_t done = 0;
    for (const Step& step : kBootScript) {
      if (step.p == 0 && done == k) break;
      queue.run_until(queue.now() + sim_ms(1));
      if (step.p == 0) {
        snapshots_before = p0->stack->node_stats().snapshot_writes;
        step.write ? p0->write(step.var, step.value) : p0->read(step.var);
        ++done;
      } else if (step.write) {
        p1.protocol().write(step.var, step.value);
        p1.checkpoint();
      }
    }
  }
  /// Destroy p0 and boot a new one on the same state dir.
  DurableStack& reboot(const TempDir& dir) {
    net.detach(0);
    p0.reset();
    p0.emplace(queue, net, recoverable_shape(0), storage_in(dir));
    return *p0;
  }

  EventQueue queue;
  ConstantLatency latency{sim_us(100)};
  Network net{queue, latency, 2};
  ProtocolObserver observer;
  NodeStack p1{queue, net, recoverable_shape(1), ReliableConfig{}, observer};
  std::optional<DurableStack> p0;
  std::uint64_t snapshots_before = 0;  ///< landed before p0's last op
};

/// A durable stack destroyed after any op and rebuilt on its state dir holds
/// the live stack's protocol state, byte for byte, and the same history and
/// events.  Deterministic: the simulator, no fork.
TEST(NodeStack, DurableBootAfterEachOpRestoresTheLiveState) {
  for (std::size_t k = 1; k <= kBootOps; ++k) {
    TempDir dir;
    BootRun run(dir, k);
    DurableStack& live = *run.p0;
    const std::vector<std::uint8_t> state = protocol_part(*live.stack);
    const std::string history = live.log.history().str();
    const std::string events = live.log.sequence_str(0);
    ASSERT_EQ(live.log.history().local(0).size(), k);

    DurableStack& booted = run.reboot(dir);
    EXPECT_EQ(protocol_part(*booted.stack), state) << "after op " << k;
    EXPECT_EQ(booted.log.history().str(), history) << "after op " << k;
    EXPECT_EQ(booted.log.sequence_str(0), events) << "after op " << k;
    // The snapshot covered every op: nothing ran again.
    EXPECT_EQ(booted.chain.filter()->suppressed(), 0u) << "after op " << k;
  }
}

/// The same, with op k's snapshot failing after its WAL commit: the WAL is
/// one mutation ahead of the snapshot, so the boot runs op k again with the
/// filter muted and reaches the live state all the same.  A spill makes
/// three write calls (the WAL record, the snapshot's header and body), so
/// op k's snapshot header is call 3·s + 2 after s landed spills.
TEST(NodeStack, DurableBootReconcilesAWalOneOpAheadOfTheSnapshot) {
  for (std::size_t k = 1; k <= kBootOps; ++k) {
    std::uint64_t landed = 0;
    {
      TempDir dry;
      landed = BootRun(dry, k).snapshots_before;
    }
    TempDir dir;
    BootRun run(dir, k,
                {{StorageFailpoint::Op::kWrite, StorageFailpoint::Kind::kEio,
                  3 * landed + 2, 1}});
    DurableStack& live = *run.p0;
    const NodeStats counts = live.stack->node_stats();
    ASSERT_EQ(counts.snapshot_writes, landed) << "after op " << k;
    ASSERT_EQ(counts.snapshot_failures, 1u) << "after op " << k;
    ASSERT_EQ(live.stack->wal_stats().write_errors, 0u);
    const std::vector<std::uint8_t> state = protocol_part(*live.stack);
    const std::string history = live.log.history().str();
    const std::string events = live.log.sequence_str(0);

    DurableStack& booted = run.reboot(dir);
    EXPECT_EQ(protocol_part(*booted.stack), state) << "after op " << k;
    EXPECT_EQ(booted.log.history().str(), history) << "after op " << k;
    EXPECT_EQ(booted.log.sequence_str(0), events) << "after op " << k;
    // Op k ran again, muted: its events were dropped, not recorded twice.
    EXPECT_GE(booted.chain.filter()->suppressed(), 1u) << "after op " << k;
  }
}

/// Forwards a durable stack's frames to the network, noting at each send how
/// many fsyncs its WAL has made.
class FsyncAtSend final : public DatagramTransport {
 public:
  explicit FsyncAtSend(Network& net) : net_(&net) {}
  void attach(ProcessId p, MessageSink& sink) override {
    net_->attach(p, sink);
  }
  void send(ProcessId from, ProcessId to, Payload payload) override {
    fsyncs_at_send.push_back(stack->wal_stats().fsyncs);
    net_->send(from, to, std::move(payload));
  }
  [[nodiscard]] std::size_t n_procs() const override {
    return net_->n_procs();
  }

  const NodeStack* stack = nullptr;
  std::vector<std::uint64_t> fsyncs_at_send;

 private:
  Network* net_;
};

/// Under group commit a write's WAL record waits for the tick's one fsync,
/// and its DATA frame waits for the same tick's ARQ flush: tick() syncs
/// first, so the frame reaches the transport only after the fsync that
/// covers the record.  (FsyncPolicy::kNone would make group_sync a no-op,
/// so the policy here is kEvery.)
TEST(NodeStack, GroupCommitFsyncsAWriteBeforeItsFrameLeaves) {
  TempDir dir;
  EventQueue queue;
  const ConstantLatency latency(sim_us(100));
  Network net(queue, latency, 2);
  FsyncAtSend link(net);
  ProtocolObserver observer;
  NodeStack p1(queue, net, recoverable_shape(1), ReliableConfig{}, observer);
  p1.start();
  NodeStack::Storage storage = storage_in(dir);
  storage.fsync = FsyncPolicy::kEvery;
  storage.group_commit = true;
  DurableStack p0(queue, link, recoverable_shape(0), std::move(storage));
  link.stack = &*p0.stack;
  p0.stack->tick();  // tick-driven from here on
  for (Value v = 1; v <= 3; ++v) {
    p0.write(0, v);  // its record is appended, not yet synced
    const std::uint64_t fsyncs_at_append = p0.stack->wal_stats().fsyncs;
    const std::size_t sent = link.fsyncs_at_send.size();
    EXPECT_EQ(sent, static_cast<std::size_t>(v - 1)) << "a frame left early";
    p0.stack->tick();
    ASSERT_EQ(link.fsyncs_at_send.size(), sent + 1) << "write " << v;
    EXPECT_GT(link.fsyncs_at_send.back(), fsyncs_at_append) << "write " << v;
    queue.run_until(queue.now() + sim_ms(1));
  }
  EXPECT_EQ(p1.protocol().peek(0).value, 3);
  EXPECT_EQ(p0.stack->wal_stats().group_commits, 4u);  // the boot's, and 3
}

}  // namespace
}  // namespace dsm
