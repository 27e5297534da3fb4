// SpscRing unit + concurrency suite: wrap-around arithmetic, the full/empty
// boundaries, shutdown drain, and a two-thread stress run with RingMesh's
// doorbell protocol (run under the tsan preset; the ring is the runtime's
// only lock-free component, so this is where a memory-ordering bug would
// show).

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "dsm/net/ring_mesh.h"
#include "dsm/runtime/spsc_ring.h"

namespace dsm {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  for (int i = 0; i < 5; ++i) {
    const auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullBoundaryRejectsThenAccepts) {
  SpscRing<int> ring(4);  // capacity 4 exactly
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.try_push(overflow));
  EXPECT_EQ(overflow, 99);  // rejected push must not consume the value
  EXPECT_EQ(ring.size(), 4u);

  ASSERT_EQ(ring.try_pop().value(), 0);
  EXPECT_TRUE(ring.try_push(overflow));  // one slot freed
  EXPECT_FALSE(ring.try_push(overflow));  // full again
}

TEST(SpscRing, EmptyBoundary) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop().has_value());
  int v = 7;
  ASSERT_TRUE(ring.try_push(v));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.try_pop().value(), 7);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, WrapAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  // Push/pop far more items than the capacity so the masked indices lap the
  // buffer repeatedly; FIFO order must survive every wrap.
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int burst = 0; burst < 3; ++burst) {
      std::uint64_t v = next_in;
      if (ring.try_push(v)) ++next_in;
    }
    while (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GE(next_out, 2000u);  // actually lapped the 4-slot buffer
}

TEST(SpscRing, ShutdownDrain) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  for (int i = 0; i < 6; ++i) {
    const auto v = ring.try_pop();  // queued work drains in push order
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, MovesPayloadsWithoutCopy) {
  SpscRing<std::unique_ptr<int>> ring(4);
  auto p = std::make_unique<int>(42);
  ASSERT_TRUE(ring.try_push(p));
  EXPECT_EQ(p, nullptr);  // moved in
  auto out = ring.try_pop();
  ASSERT_TRUE(out.has_value());
  ASSERT_NE(*out, nullptr);
  EXPECT_EQ(**out, 42);
}

/// Takes what a RingMesh drain hands over and checks it arrives in order.
class OrderedSink final : public MessageSink {
 public:
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    std::uint64_t v = 0;
    in_order = in_order && from == 0 && bytes.size() == sizeof v;
    if (bytes.size() == sizeof v) std::memcpy(&v, bytes.data(), sizeof v);
    in_order = in_order && v == next;
    ++next;
  }
  std::uint64_t next = 0;
  bool in_order = true;
};

// Two-thread stress with RingMesh's parking protocol — the one every shard
// loop runs: drain, arm the doorbell, drain once more, then sleep in poll()
// on the eventfd.  The consumer must see every value in order with no
// losses and no stalls: a lost wakeup leaves a poll to time out.
TEST(SpscRing, ThreadedStressWithDoorbell) {
  constexpr std::uint64_t kItems = 200'000;
  RingMesh mesh(0, 2, 1024);
  std::atomic<bool> stalled{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::vector<std::uint8_t> bytes(sizeof i);
      std::memcpy(bytes.data(), &i, sizeof i);
      const Payload payload = make_payload(std::move(bytes));
      while (!mesh.post(0, 1, payload)) {
        if (stalled.load()) return;  // the consumer gave up
        std::this_thread::yield();
      }
    }
  });

  OrderedSink sink;
  while (sink.next < kItems) {
    if (mesh.drain(1, sink) > 0) continue;
    mesh.arm(1);
    if (mesh.drain(1, sink) > 0) continue;
    pollfd doorbell{mesh.doorbell_fd(1), POLLIN, 0};
    if (::poll(&doorbell, 1, 10'000) != 1) {
      stalled = true;
      break;
    }
    mesh.acknowledge(1);
  }
  producer.join();
  EXPECT_FALSE(stalled.load())
      << "a post found the doorbell unarmed while the consumer slept";
  EXPECT_TRUE(sink.in_order);
  EXPECT_EQ(sink.next, kItems);
}

}  // namespace
}  // namespace dsm
