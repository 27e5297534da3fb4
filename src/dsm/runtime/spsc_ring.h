// optcm — bounded lock-free single-producer/single-consumer ring, the hot
// handoff primitive of the shard-per-core runtime.
//
// One SpscRing carries one DIRECTED link: exactly one thread may push and
// exactly one thread may pop for the ring's lifetime.  Under that contract
// the ring is wait-free on both sides — a push is one store to the slot plus
// one release store of the tail; a pop is one load plus one release store of
// the head.  Head and tail live on separate cache lines, and each side keeps
// a cached copy of the other's index so the common case touches only its own
// line (the classic Lamport ring with index caching; see docs/NETWORK.md).
//
// Capacity is rounded up to a power of two so the index math is a mask, and
// indices grow monotonically (wrap handled by the mask) so full/empty are
// distinguishable without a dead slot: full ⇔ tail − head == capacity.
//
// The ring itself never blocks.  Waiting is layered on top by RingMesh
// (dsm/net/ring_mesh.h): the consumer arms an eventfd doorbell, drains once
// more, then sleeps in poll(); a producer rings only an armed doorbell, so
// no wakeup is lost and a consumer that keeps up costs no syscall.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "dsm/common/contracts.h"

namespace dsm {

/// Destructive-interference stride for the index padding.  A fixed 64 (the
/// x86/arm64 line size) rather than std::hardware_destructive_interference_size
/// — the latter is an ABI hazard GCC warns about (-Winterference-size) because
/// its value can differ between translation units compiled with different
/// tuning flags.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap *= 2;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side.  False when the ring is full; the value is NOT consumed
  /// on failure (the caller may retry or divert to an overflow).
  [[nodiscard]] bool try_push(T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  std::nullopt when empty.
  [[nodiscard]] std::optional<T> try_pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> value(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  /// Approximate (racy by nature): exact when called from either endpoint.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  ///< consumer
  std::uint64_t tail_cache_ = 0;  ///< consumer's view of tail_

  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  ///< producer
  std::uint64_t head_cache_ = 0;  ///< producer's view of head_
};

}  // namespace dsm
