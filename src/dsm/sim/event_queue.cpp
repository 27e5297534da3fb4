#include "dsm/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

namespace {

// Heap order: the earliest (at, seq) on top.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

// Below this many stale keys the heap is never rebuilt: popping them as
// they surface is cheaper.
constexpr std::size_t kMinStaleToCompact = 64;

}  // namespace

EventQueue::Handle EventQueue::schedule_at(SimTime at, Action fn) {
  DSM_REQUIRE(at >= now_);
  std::uint32_t slot = 0;
  if (free_.empty()) {
    DSM_REQUIRE(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].seq = seq;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return Handle{seq, slot};
}

EventQueue::Handle EventQueue::schedule_after(SimTime delay, Action fn) {
  DSM_REQUIRE(delay <= kSimTimeMax - now_);
  return schedule_at(now_ + delay, std::move(fn));
}

bool EventQueue::cancel(Handle h) {
  // A free slot's seq equals a default handle's: reject that pair first.
  if (h.seq == Handle{}.seq || h.slot >= slots_.size() ||
      slots_[h.slot].seq != h.seq) {
    return false;
  }
  release(h.slot);
  ++stale_;
  drop_stale();
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].seq = Slot{}.seq;
  slots_[slot].fn = nullptr;
  free_.push_back(slot);
  --live_;
}

void EventQueue::drop_stale() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --stale_;
  }
  if (stale_ >= kMinStaleToCompact && stale_ > live_) {
    std::erase_if(heap_, [this](const Key& k) { return !live(k); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  // Move the action out and free its slot before running it, so it may
  // schedule and cancel freely (even reusing its own slot).
  Action fn = std::move(slots_[k.slot].fn);
  release(k.slot);
  drop_stale();
  now_ = k.at;
  fn();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && step()) ++fired;
  return fired;
}

std::size_t EventQueue::run_until(SimTime horizon) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().at <= horizon && step()) ++fired;
  return fired;
}

std::optional<SimTime> EventQueue::next_at() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

void EventQueue::advance_to(SimTime t) {
  if (!heap_.empty() && heap_.front().at < t) t = heap_.front().at;
  if (t > now_) now_ = t;
}

}  // namespace dsm
