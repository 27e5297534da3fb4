// Heap allocations on the process-tier write path.  This binary replaces
// the global operator new so it can count every allocation, then checks:
//
//   * a replicated write on three node stacks (TCP on one NetLoop, the ARQ
//     with held ACKs and its tick edge, the telemetry tee and the run
//     recorder) costs the cluster at most kWriteBudget allocations, warm-up
//     excluded, and 600 single-write hops at most kHopsBudget;
//   * steady-state frame reassembly, in-order ARQ dedupe and the tee's
//     receipt bookkeeping allocate nothing at all;
//   * an epoch gap in the ARQ's tx sequences leaves its window's heap
//     footprint as it is.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dsm/net/frame.h"
#include "dsm/net/net_loop.h"
#include "dsm/net/process_node.h"
#include "dsm/net/socket.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/runtime/node_stack.h"
#include "dsm/sim/reliable.h"
#include "dsm/telemetry/telemetry.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};  ///< requested, not yet freed

/// Each block carries its requested size in a header this far before it.
constexpr std::size_t kHeader = alignof(std::max_align_t);

// GCC pairs the replaced operator new with free() as a mismatch; here the
// pair is the point.  Kept out of line: inlined into a delete of an object
// GCC can see, the read of the size header in front of it warns as out of
// bounds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
[[gnu::noinline]] void release(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  std::free(block);
}
#pragma GCC diagnostic pop
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (auto* block = static_cast<unsigned char*>(std::malloc(kHeader + size))) {
    std::memcpy(block, &size, sizeof size);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                           std::memory_order_relaxed);
    return block + kHeader;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace dsm {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

/// Heap allocations a replicated write may cost the three nodes together,
/// in bursts of 32 writes per node (measured 4.53).  What remains per write:
/// the payload buffers and their Payload handles, the decoded clock vectors
/// and the run log's growth.  Each node's burst leaves as one DATA frame per
/// peer, so the frame buffers and handles, the batch bodies, the RTO timer
/// closures and the held-ACK timers are shared by the burst.
constexpr double kWriteBudget = 5.0;

/// Heap allocations 600 single-write hops may cost the three nodes together.
/// When every payload had a DATA frame of its own they cost 9864 (16.44 per
/// hop) in every run on an idle host, and a batch of one is that frame.  A
/// loaded host adds a stray one now and then; one more allocation per hop
/// would read 10464.  With one write in flight, every ACK goes out on its
/// held-ACK timer.
constexpr std::size_t kHops = 600;
constexpr std::uint64_t kHopsBudget = 9900;

struct NullSink final : MessageSink {
  std::uint64_t frames = 0;
  void deliver(ProcessId, std::span<const std::uint8_t>) override { ++frames; }
};

/// Drops every datagram (the dedupe test needs no peer).
struct NullTransport final : DatagramTransport {
  void attach(ProcessId, MessageSink&) override {}
  void send(ProcessId, ProcessId, Payload) override {}
  [[nodiscard]] std::size_t n_procs() const override { return 2; }
};

/// Counts applies per node, then hands every event on to the recorder.
struct ApplyCounter final : ProtocolObserver {
  explicit ApplyCounter(ProtocolObserver& down) : down_(down) {}
  void on_send(ProcessId at, const WriteUpdate& m) override {
    down_.on_send(at, m);
  }
  void on_receipt(ProcessId at, const WriteUpdate& m) override {
    down_.on_receipt(at, m);
  }
  void on_apply(ProcessId at, WriteId w, bool delayed) override {
    ++applied;
    down_.on_apply(at, w, delayed);
  }
  void on_return(ProcessId at, VarId x, Value v, WriteId from) override {
    down_.on_return(at, x, v, from);
  }
  void on_skip(ProcessId at, WriteId w, WriteId by) override {
    down_.on_skip(at, w, by);
  }
  std::uint64_t applied = 0;

 private:
  ProtocolObserver& down_;
};

constexpr std::size_t kProcs = 3;
constexpr std::size_t kVars = 8;

/// One process's layers, as a node process stacks them.
struct Node {
  Node(NetLoop& loop, ProcessId self, std::vector<std::string> peers,
       int listen_fd, const ReliableConfig& arq)
      : telemetry(kProcs),
        recorder(kProcs, kVars, [&loop] { return loop.queue().now(); }),
        counter(recorder),
        transport(loop, TcpTransportConfig{.self = self,
                                           .peers = std::move(peers),
                                           .listen_fd = listen_fd,
                                           .local_peers = {}}) {
    telemetry.set_clock([&loop] { return loop.queue().now(); });
    NodeStack::Shape shape;
    shape.self = self;
    shape.n_procs = kProcs;
    shape.n_vars = kVars;
    stack = std::make_unique<NodeStack>(loop.queue(), transport, shape,
                                        arq, telemetry.observe_through(counter),
                                        &telemetry);
    // The ARQ's tick edge, registered ahead of the transport's flush (the
    // cluster starts the transports after building every node).
    loop.add_tick_hook([this] { stack->tick(); });
  }

  /// The script runner's write step.
  void write(VarId x, Value v) {
    const ProcessId self = stack->protocol().self();
    (void)recorder.record_write(self, x, v);
    telemetry.record_write_op(self);
    stack->protocol().write(x, v);
  }

  RunTelemetry telemetry;
  RunRecorder recorder;
  ApplyCounter counter;
  TcpTransport transport;
  std::unique_ptr<NodeStack> stack;
};

class Cluster {
 public:
  explicit Cluster(const ReliableConfig& arq = net_reliable_defaults()) {
    std::vector<std::string> peers(kProcs);
    std::vector<int> fds(kProcs);
    for (std::size_t p = 0; p < kProcs; ++p) {
      fds[p] = net::listen_on(net::Addr{});  // 127.0.0.1:0
      peers[p] = "127.0.0.1:" + std::to_string(net::local_port(fds[p]));
    }
    for (std::size_t p = 0; p < kProcs; ++p) {
      nodes_.push_back(std::make_unique<Node>(
          loop_, static_cast<ProcessId>(p), peers, fds[p], arq));
    }
    for (auto& node : nodes_) node->transport.start();
    pump([this] {
      for (auto& node : nodes_) {
        if (!node->transport.fully_connected()) return false;
      }
      return true;
    });
    for (auto& node : nodes_) node->stack->start();
  }

  /// `rounds` rounds in which every node writes a burst of `burst` writes,
  /// as procbench's proc-rounds workload does, each round driven until every
  /// write is applied everywhere and every ARQ channel is acknowledged.
  /// Returns the writes issued.
  std::uint64_t run_rounds(std::size_t rounds, std::size_t burst) {
    std::uint64_t writes = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < burst; ++i) {
        for (auto& node : nodes_) {
          node->write(static_cast<VarId>(i % kVars),
                      static_cast<Value>(++value_));
          ++writes;
        }
      }
      expected_applies_ += burst * kProcs;
      if (!pump([this] { return settled(); })) return 0;
    }
    return writes;
  }

  /// `hops` writes with one in flight, as procbench's proc-chain workload
  /// runs: node h mod 3 writes hop h once hop h − 1 is applied everywhere
  /// and every ARQ channel is acknowledged.  Returns the writes issued.
  std::uint64_t run_chain(std::size_t hops) {
    for (std::size_t h = 0; h < hops; ++h) {
      nodes_[h % kProcs]->write(static_cast<VarId>(h % kVars),
                                static_cast<Value>(++value_));
      ++expected_applies_;
      if (!pump([this] { return settled(); })) return 0;
    }
    return hops;
  }

  bool settled() {
    for (auto& node : nodes_) {
      if (node->counter.applied != expected_applies_ ||
          !node->stack->quiescent() || !node->transport.flushed()) {
        return false;
      }
    }
    return true;
  }

 private:
  template <typename Pred>
  bool pump(Pred pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      loop_.poll_once(sim_ms(2));
    }
    return true;
  }

  NetLoop loop_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t expected_applies_ = 0;
  Value value_ = 0;
};

TEST(AllocBudget, ReplicatedWriteOnThreeNodeStacks) {
  Cluster cluster;
  ASSERT_GT(cluster.run_rounds(8, 32), 0u) << "warm-up never settled";
  const std::uint64_t before = allocs();
  const std::uint64_t writes = cluster.run_rounds(32, 32);
  const std::uint64_t spent = allocs() - before;
  ASSERT_GT(writes, 0u) << "a measured round never settled";
  const double per_write =
      static_cast<double>(spent) / static_cast<double>(writes);
  std::printf("allocations per replicated write: %.2f (%llu writes)\n",
              per_write, static_cast<unsigned long long>(writes));
  EXPECT_LE(per_write, kWriteBudget);
}

TEST(AllocBudget, SingleWriteHopKeepsTodaysFrame) {
  // One write in flight: every tick-edge batch carries one payload, so the
  // ARQ sends the plain DATA frame it sent before batching, and a hop must
  // not allocate more than it did then.  The RTO is raised to 1 s so that
  // a loaded host's stalls provoke no retransmission to count.
  ReliableConfig arq = net_reliable_defaults();
  arq.rto = arq.min_rto = sim_s(1);
  arq.max_rto = sim_s(2);
  Cluster cluster(arq);
  ASSERT_GT(cluster.run_chain(96), 0u) << "warm-up never settled";
  const std::uint64_t before = allocs();
  const std::uint64_t writes = cluster.run_chain(kHops);
  const std::uint64_t spent = allocs() - before;
  ASSERT_GT(writes, 0u) << "a measured hop never settled";
  const double per_write =
      static_cast<double>(spent) / static_cast<double>(writes);
  std::printf("allocations per single-write hop: %.2f (%llu writes)\n",
              per_write, static_cast<unsigned long long>(writes));
  EXPECT_LE(spent, kHopsBudget);
}

TEST(AllocBudget, FrameReassemblyAllocatesNothing) {
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::vector<std::uint8_t> body(40 + i % 24,
                                         static_cast<std::uint8_t>(i));
    const auto frame = encode_frame(FrameKind::kData, body);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameAssembler rx;
  std::uint64_t bytes = 0;
  const auto pass = [&] {
    // Uneven reads, as a socket hands them over: frames split across feeds.
    for (std::size_t at = 0; at < stream.size();) {
      const std::size_t n = std::min<std::size_t>(173, stream.size() - at);
      (void)rx.feed({stream.data() + at, n});
      at += n;
      while (const auto f = rx.next()) bytes += f->body.size();
    }
  };
  pass();  // warm-up: the buffer grows to its working size
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100; ++i) pass();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(bytes, 0u);
}

TEST(AllocBudget, InOrderArqDedupeAllocatesNothing) {
  EventQueue queue;
  NullTransport transport;
  NullSink upper;
  ReliableNode node(queue, transport, 0, upper, net_reliable_defaults());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t seq = 1; seq <= 256; ++seq) {
    ByteWriter w;
    w.u8(0);  // DATA
    w.u64(seq);
    w.bytes(std::vector<std::uint8_t>(32, 7));
    frames.push_back(std::move(w).take());
  }
  // The first 128 frames warm the pending-ACK list up; the held-ACK timer
  // then flushes it.  Of the next 128, the first arms that timer again; the
  // rest must reach the upper layer without a single allocation.
  for (std::size_t i = 0; i < 128; ++i) node.deliver(1, frames[i]);
  queue.run_until(queue.now() + sim_ms(2));
  node.deliver(1, frames[128]);
  const std::uint64_t before = allocs();
  for (std::size_t i = 129; i < frames.size(); ++i) node.deliver(1, frames[i]);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(upper.frames, frames.size());
  EXPECT_EQ(node.stats().duplicates_suppressed, 0u);
}

TEST(AllocBudget, EpochGapLeavesTheTxWindowFootprintAlone) {
  // 64 unacked sends, an epoch gap of `gap` seqs, 64 more: the heap the
  // node holds afterwards (window, RTO timers) must not depend on the gap.
  const auto held_after_sends = [](std::uint64_t gap) {
    EventQueue queue;
    NullTransport transport;
    NullSink upper;
    ReliableNode node(queue, transport, 0, upper, net_reliable_defaults());
    const Payload payload = make_payload(std::vector<std::uint8_t>(32, 1));
    const std::int64_t before = live_bytes();
    for (int i = 0; i < 64; ++i) node.send(1, payload);
    node.skip_tx_sequences(gap);
    for (int i = 0; i < 64; ++i) node.send(1, payload);
    return live_bytes() - before;
  };
  const std::int64_t no_gap = held_after_sends(0);
  EXPECT_GT(no_gap, 0);
  EXPECT_EQ(held_after_sends(1'000'000), no_gap);
}

TEST(AllocBudget, TeeReceiptBookkeepingAllocatesNothing) {
  RunTelemetry telemetry(kProcs);
  ProtocolObserver downstream;
  ProtocolObserver& tee = telemetry.observe_through(downstream);
  std::vector<WriteUpdate> updates(256);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    updates[i].sender = 1;
    updates[i].write_seq = i + 1;
    updates[i].clock = VectorClock(kProcs);
  }
  // Warm-up resolves the tee's metric handles.
  tee.on_receipt(0, updates[0]);
  tee.on_apply(0, WriteId{1, 1}, false);
  const std::uint64_t before = allocs();
  for (std::size_t i = 1; i < updates.size(); ++i) {
    tee.on_receipt(0, updates[i]);
    tee.on_apply(0, WriteId{1, updates[i].write_seq}, false);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

}  // namespace
}  // namespace dsm
