// optcm — the net event loop: ppoll(2) + the deterministic EventQueue, driven
// by wall-clock time.
//
// The whole protocol stack (CausalProtocol, ReliableNode with its adaptive
// RTO timers, ScriptRunner) is written against EventQueue and SimTime.  The
// simulator advances that queue logically; this loop advances it with real
// time instead:
//
//   each wakeup:  t := µs since loop epoch
//                 queue.run_until(t)       — fire every timer now due
//                 queue.advance_to(t)      — reconcile now() with the wall
//   poll timeout: next_at() − now() in µs, capped (so late-registered work
//                 and signals are noticed).
//
// The clock is reconciled as soon as the poll returns, before any fd
// callback runs, so a callback stamps receipts, applies and ARQ RTT samples
// with the time it woke, not the time the loop went to sleep.
//
// So an RTO armed for "now + 5ms" fires within timer slack of 5 real
// milliseconds, and the identical ReliableNode/ScriptRunner code runs over
// sockets unmodified — the single-delivery-context confinement contract
// holds because everything (socket callbacks and timers) dispatches from
// this one loop on one thread.
//
// Tick hooks are the end-to-end batching seam (docs/PERF.md): a hook runs at
// both edges of every poll_once — after the pre-poll timer pass (so work
// queued since the last tick flushes before the loop sleeps) and again after
// dispatch (so work produced by socket callbacks flushes within the same
// tick).  TcpTransport coalesces its out-queues into one writev per peer
// there, and ProcessNode group-commits its WAL there; neither adds latency
// beyond the tick that produced the work.
//
// Thread-safety: none.  One NetLoop per thread of control; tests may park
// several transports on one loop (single-threaded multi-node harnesses).

#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "dsm/sim/event_queue.h"

namespace dsm {

class NetLoop {
 public:
  /// revents-style flags passed to callbacks (POLLIN/POLLOUT/POLLERR/POLLHUP
  /// collapsed to the two actionable facts).
  struct Ready {
    bool readable = false;
    bool writable = false;
    bool hangup = false;  ///< POLLERR | POLLHUP | POLLNVAL
  };
  using IoCallback = std::function<void(Ready)>;

  NetLoop() : epoch_(std::chrono::steady_clock::now()) {}

  NetLoop(const NetLoop&) = delete;
  NetLoop& operator=(const NetLoop&) = delete;

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }

  /// Microseconds since loop construction — the loop's SimTime axis.
  [[nodiscard]] SimTime wall_now() const;

  /// Register `fd` (always polled for readability).  Replaces any existing
  /// registration for the same fd.
  void watch(int fd, IoCallback cb);

  /// Additionally poll `fd` for writability (pending out-queue bytes).
  void set_want_write(int fd, bool want);

  /// Deregister; safe to call from inside a callback (including the fd's
  /// own) and on unknown fds.
  void unwatch(int fd);

  /// Register a batching hook, run at both edges of every poll_once (see the
  /// header comment).  Hooks cannot be removed — owners that may die before
  /// the loop guard with a liveness flag captured in the closure.
  void add_tick_hook(std::function<void()> hook);

  /// One poll + dispatch + timer pass.  Blocks at most `max_wait` (µs),
  /// less when a timer is due sooner.
  void poll_once(SimTime max_wait);

  /// Run poll_once until `stop()` returns true (checked once per wakeup).
  void run(const std::function<bool()>& stop);

  [[nodiscard]] std::size_t watched() const noexcept { return fds_.size(); }

 private:
  struct Watch {
    bool want_write = false;
    IoCallback cb;
  };

  void service_queue();
  void run_tick_hooks();

  std::chrono::steady_clock::time_point epoch_;
  EventQueue queue_;
  std::map<int, Watch> fds_;
  std::vector<pollfd> pfds_;  ///< rebuilt each tick, its storage reused
  std::vector<std::function<void()>> tick_hooks_;
};

}  // namespace dsm
