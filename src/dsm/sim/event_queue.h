// optcm — deterministic discrete-event queue.
//
// Events fire in (time, insertion-sequence) order: ties at the same simulated
// instant resolve by scheduling order, never by container internals, so a
// run is a pure function of (workload, latency seed).
//
// The heap holds 24-byte {at, seq, slot} keys; each action lives in a slot
// of a side vector (reused through a free list) and is moved out, never
// copied, when it fires.  cancel() frees the slot at once and leaves the key
// behind: a key whose slot no longer carries its seq is stale and is skipped.
// Stale keys are popped whenever they reach the top, and the heap is
// rebuilt when they outnumber the live ones, so the top is always live and
// memory stays proportional to the pending events.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dsm/sim/sim_time.h"

namespace dsm {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Names one scheduled event for cancel().  A default handle names none.
  /// Handles stay safe after their event fired or was cancelled: a slot is
  /// reused, but the insertion sequence a handle carries never is.
  struct Handle {
    std::uint64_t seq = ~std::uint64_t{0};
    std::uint32_t slot = 0;
  };

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  Handle schedule_at(SimTime at, Action fn);

  /// Schedule `fn` after a delay relative to now().
  Handle schedule_after(SimTime delay, Action fn);

  /// Drop a pending event: it never fires and never moves now().  Returns
  /// false, and does nothing, if `h` names no pending event.
  bool cancel(Handle h);

  /// Current simulated time (the timestamp of the last fired event).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Cancelled events count for none of these.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Fire the earliest event.  Returns false if the queue was empty.
  bool step();

  /// Fire events until the queue drains or `max_events` fired.  Returns the
  /// number of events fired.
  std::size_t run(std::size_t max_events = ~std::size_t{0});

  /// Fire events with timestamp <= horizon.  Returns events fired.
  std::size_t run_until(SimTime horizon);

  /// Timestamp of the earliest pending event, if any — the net event loop
  /// derives its poll timeout from this.
  [[nodiscard]] std::optional<SimTime> next_at() const;

  /// Advance now() to `t` without firing anything — how a wall-clock-driven
  /// loop reconciles simulated time with real time between poll wakeups.
  /// Call run_until(t) first; events already due before `t` keep their
  /// earlier timestamps, so now() never moves past a pending event.
  void advance_to(SimTime t);

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint64_t seq = ~std::uint64_t{0};  ///< the occupant's; none = ~0
    Action fn;
  };

  [[nodiscard]] bool live(const Key& k) const noexcept {
    return slots_[k.slot].seq == k.seq;
  }
  void release(std::uint32_t slot);
  /// Restore the invariant "the top key is live" after a pop or a cancel.
  void drop_stale();

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::size_t stale_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dsm
